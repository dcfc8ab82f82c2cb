"""Similarity cohorts and their gram matrices.

A term's cohort is every vocabulary term at least ``min_sim`` similar to it,
the term itself included at similarity 1.0: the term's ``neighbors`` ranking
cut at ``min_sim`` and at the cap. The cohort's gram matrix of all
pairwise similarities is the complete input to sense clustering, which is why
a canned matrix (fixture or external tool output) can be clustered without
any space at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .space import SemanticSpace

DEFAULT_MIN_SIM = 0.40
DEFAULT_CAP = 200


@dataclass(frozen=True)
class Cohort:
    """Terms similar to one target, sorted by descending similarity."""

    target: str
    members: tuple[str, ...]
    sims_to_target: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.members)


def build_cohort(
    space: SemanticSpace,
    term: str,
    min_sim: float = DEFAULT_MIN_SIM,
    cap: int = DEFAULT_CAP,
) -> Cohort:
    """All vocabulary terms with similarity >= ``min_sim`` to ``term``.

    The target is a member at similarity 1.0, first unless a term with a
    parallel vector rounds to 1.0 or above. If more than ``cap`` terms
    qualify, the most similar ``cap`` survive. Ties order lexicographically.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not -1.0 <= min_sim <= 1.0:
        raise ValueError("min_sim must be in [-1, 1]")
    scored = [(name, sim) for name, sim in space.neighbors(term, cap) if sim >= min_sim]
    return Cohort(
        target=term,
        members=tuple(name for name, _ in scored),
        sims_to_target=tuple(sim for _, sim in scored),
    )


def gram_of_units(units: np.ndarray) -> np.ndarray:
    """Pairwise dot products of unit rows, exactly symmetric, unit diagonal."""
    gram = units @ units.T
    upper = np.triu(gram, 1)
    gram = upper + upper.T
    np.fill_diagonal(gram, 1.0)
    return gram


def cohort_units(space: SemanticSpace, cohort: Cohort) -> np.ndarray:
    """Member unit vectors stacked in cohort order."""
    return np.stack([space.unit_vector(m) for m in cohort.members])


def save_gram_fixture(path, labels, gram, decimals: int = 6) -> None:
    """Write a labeled gram matrix in the plain-text fixture layout.

    First line the member count, then one label per line, then the matrix
    rows as space-separated decimals.
    """
    gram = np.asarray(gram)
    lines = [str(len(labels))]
    lines.extend(labels)
    for row in gram:
        lines.append(" ".join(f"{value:.{decimals}f}" for value in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_gram_fixture(path) -> tuple[list[str], np.ndarray]:
    """Read a labeled gram matrix written by :func:`save_gram_fixture`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("empty gram fixture")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError("gram fixture must start with the member count") from None
    if len(lines) < 1 + 2 * n:
        raise ValueError("gram fixture shorter than its declared size")
    labels = [line.strip() for line in lines[1 : 1 + n]]
    rows = []
    for line in lines[1 + n : 1 + 2 * n]:
        row = [float(field) for field in line.split()]
        if len(row) != n:
            raise ValueError("gram fixture row width does not match member count")
        rows.append(row)
    return labels, np.array(rows)
