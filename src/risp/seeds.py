"""Deterministic random seed vectors.

Each surface form maps to a fixed unit-length direction in R^dim derived from
a keyed hash of the term string, so a term's seed never depends on vocabulary
order, ingestion order, platform, or thread schedule. Independent random unit
vectors in high dimension are quasi-orthogonal: their pairwise dot products
have mean 0 and standard deviation sqrt(1/dim) (about 0.058 at dim=300),
which is the noise floor of every similarity this package reports.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

GAUSSIAN = "gaussian"
TERNARY = "ternary"

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SeedScheme:
    """Everything that pins down the seed vector of a term."""

    dim: int = 300
    global_seed: int = 0
    distribution: str = GAUSSIAN
    ternary_nonzeros: int = 8

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not 0 <= self.global_seed < _MAX_SEED:
            raise ValueError("global_seed must fit in 64 bits")
        if self.distribution not in (GAUSSIAN, TERNARY):
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        if self.distribution == TERNARY:
            k = self.ternary_nonzeros
            if not 0 < k <= self.dim or k % 2 != 0:
                raise ValueError("ternary_nonzeros must be even and in (0, dim]")


def _philox_key(term: str, global_seed: int) -> int:
    digest = hashlib.blake2b(
        term.encode("utf-8"),
        digest_size=16,
        key=global_seed.to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")


def seed_vector(term: str, scheme: SeedScheme) -> np.ndarray:
    """The deterministic unit seed vector of a term."""
    if not term:
        raise ValueError("term must be a non-empty string")
    rng = np.random.Generator(np.random.Philox(key=_philox_key(term, scheme.global_seed)))
    if scheme.distribution == GAUSSIAN:
        v = rng.standard_normal(scheme.dim)
        norm = float(np.linalg.norm(v))
        while norm == 0.0:  # unreachable in practice, but keeps the contract total
            v = rng.standard_normal(scheme.dim)
            norm = float(np.linalg.norm(v))
    else:
        k = scheme.ternary_nonzeros
        positions = rng.permutation(scheme.dim)[:k]
        v = np.zeros(scheme.dim)
        v[positions[: k // 2]] = 1.0
        v[positions[k // 2 :]] = -1.0
        norm = float(np.linalg.norm(v))
    return v / norm


class SeedBank:
    """Seed-vector source for one scheme.

    If two distinct terms ever land on the same hash key (never observed;
    128-bit keys) a warning is logged.
    """

    def __init__(self, scheme: SeedScheme):
        self.scheme = scheme
        self._keys: dict[int, str] = {}

    def vector(self, term: str) -> np.ndarray:
        key = _philox_key(term, self.scheme.global_seed)
        holder = self._keys.setdefault(key, term)
        if holder != term:
            logger.warning("seed hash collision: %r vs %r", holder, term)
        return seed_vector(term, self.scheme)

    def matrix(self, terms) -> np.ndarray:
        """Seed vectors for a term sequence stacked into an (n, dim) array."""
        out = np.empty((len(terms), self.scheme.dim))
        for i, term in enumerate(terms):
            out[i] = self.vector(term)
        return out


@dataclass(frozen=True)
class OrthogonalityStats:
    mean: float
    stddev: float
    max_abs: float
    n_pairs: int


def orthogonality_stats(
    scheme: SeedScheme, n_pairs: int, term_prefix: str = "probe"
) -> OrthogonalityStats:
    """Empirical dot-product statistics over disjoint random term pairs.

    Generates 2*n_pairs distinct synthetic terms and pairs them off, so the
    sampled dot products are independent. For a healthy scheme the mean is
    ~0 and the standard deviation ~sqrt(1/dim).
    """
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    bank = SeedBank(scheme)
    left = bank.matrix([f"{term_prefix}-{2 * i}" for i in range(n_pairs)])
    right = bank.matrix([f"{term_prefix}-{2 * i + 1}" for i in range(n_pairs)])
    dots = np.einsum("ij,ij->i", left, right)
    return OrthogonalityStats(
        mean=float(dots.mean()),
        stddev=float(dots.std(ddof=1)),
        max_abs=float(np.abs(dots).max()),
        n_pairs=n_pairs,
    )
