"""Unsupervised sense induction over similarity cohorts.

Each cohort member starts as its own cluster; the pair of clusters with the
highest centroid similarity merges, repeatedly, down to one cluster. A level
with K clusters is a valid sense split when every intercluster similarity is
strictly below the separation threshold. Centroids are unnormalized sums of
member unit vectors, so a merge is one vector addition and the whole gram
matrix updates in closed form from raw inner products:

    <Sa+Sb, Sc> = <Sa, Sc> + <Sb, Sc>
    |Sa+Sb|^2   = |Sa|^2 + |Sb|^2 + 2 <Sa, Sb>

which is also why clustering can run from a canned gram matrix alone, with
no vectors anywhere in sight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cohort import DEFAULT_CAP, DEFAULT_MIN_SIM, Cohort, build_cohort, cohort_units, gram_of_units
from .errors import FrequencyBandError, RispError
from .space import SemanticSpace

logger = logging.getLogger(__name__)

LABEL_MODES = ("members", "global")


@dataclass(frozen=True)
class DisambigConfig:
    """Knobs for cohort construction, level validity, and sense labels."""

    cohort_min_sim: float = DEFAULT_MIN_SIM
    separation_threshold: float = 0.175
    levels: tuple[int, ...] = (4, 3, 2)
    min_freq: int = 5
    max_freq: int = 5000
    label_len: int = 7
    label_mode: str = "members"
    cohort_cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if not self.levels or any(k < 2 for k in self.levels):
            raise ValueError("levels must be a non-empty set of integers >= 2")
        if self.min_freq > self.max_freq:
            raise ValueError("min_freq must not exceed max_freq")
        if self.label_len < 1:
            raise ValueError("label_len must be >= 1")
        if self.label_mode not in LABEL_MODES:
            raise ValueError(f"label_mode must be one of {LABEL_MODES}")
        if not 0.0 < self.separation_threshold < 2.0:
            raise ValueError("separation_threshold must be in (0, 2)")


class ClusterState:
    """One step of the agglomerative merge.

    ``products`` holds raw inner products of cluster sum vectors (diagonal =
    squared norms). ``origin`` lists each cluster's cohort rows. The cohort's
    ``base_gram``, ``parent_sims`` (each member's similarity to the parent
    term) and ``units`` (member unit vectors, None when no space backs the
    run) stay fixed for the whole run. ``merged_pair`` is the (row, col)
    index pair, in the previous state's indexing, whose merge produced this
    state.
    """

    def __init__(
        self,
        members: list[tuple[str, ...]],
        origin: list[tuple[int, ...]],
        products: np.ndarray,
        base_gram: np.ndarray,
        parent_sims: np.ndarray | None = None,
        units: np.ndarray | None = None,
        merged_pair: tuple[int, int] | None = None,
    ):
        self.members = members
        self.origin = origin
        self.products = products
        self.base_gram = base_gram
        self.parent_sims = parent_sims
        self.units = units
        self.merged_pair = merged_pair

    @property
    def K(self) -> int:
        return len(self.members)

    def gram(self) -> np.ndarray:
        """Normalized-centroid similarities, unit diagonal."""
        norms = np.sqrt(np.diag(self.products))
        g = self.products / np.outer(norms, norms)
        np.fill_diagonal(g, 1.0)
        return g


def init_clusters(
    members: Cohort | Sequence[str],
    gram: np.ndarray,
    *,
    units: np.ndarray | None = None,
    parent_sims: Sequence[float] | None = None,
) -> ClusterState:
    """Singleton clusters over cohort members.

    ``units`` are the members' unit vectors when a space backs the run;
    ``parent_sims`` are similarities of each member to the parent term
    (defaulted from a Cohort argument).
    """
    if isinstance(members, Cohort):
        if parent_sims is None:
            parent_sims = members.sims_to_target
        members = members.members
    names = list(members)
    gram = np.asarray(gram, dtype=np.float64)
    if gram.shape != (len(names), len(names)):
        raise ValueError("gram matrix shape does not match member count")
    parent = None
    if parent_sims is not None:
        parent = np.asarray(parent_sims, dtype=np.float64)
        if parent.shape != (len(names),):
            raise ValueError("parent similarities length does not match member count")
    return ClusterState(
        members=[(name,) for name in names],
        origin=[(i,) for i in range(len(names))],
        products=gram.copy(),
        base_gram=gram,
        parent_sims=parent,
        units=None if units is None else np.asarray(units, dtype=np.float64),
    )


def merge_closest(state: ClusterState) -> ClusterState:
    """Merge the two most similar clusters (ties: lowest index pair)."""
    k = state.K
    if k < 2:
        raise ValueError("nothing left to merge")
    masked = state.gram()
    masked[np.tril_indices(k)] = -np.inf
    a, b = divmod(int(np.argmax(masked)), k)  # row-major argmax = lowest tied pair

    merged_row = state.products[a] + state.products[b]
    merged_self = state.products[a, a] + state.products[b, b] + 2.0 * state.products[a, b]
    products = np.delete(np.delete(state.products, b, axis=0), b, axis=1)
    merged_row = np.delete(merged_row, b)
    products[a, :] = merged_row
    products[:, a] = merged_row
    products[a, a] = merged_self

    members = list(state.members)
    members[a] = members[a] + members[b]
    del members[b]
    origin = list(state.origin)
    origin[a] = origin[a] + origin[b]
    del origin[b]

    return ClusterState(
        members=members,
        origin=origin,
        products=products,
        base_gram=state.base_gram,
        parent_sims=state.parent_sims,
        units=state.units,
        merged_pair=(a, b),
    )


def evaluate_level(state: ClusterState, separation_threshold: float) -> tuple[bool, float]:
    """Whether every intercluster similarity sits strictly below the threshold."""
    if state.K < 2:
        raise ValueError("intercluster similarity is undefined for a single cluster")
    g = state.gram()
    max_sim = float(g[np.triu_indices(state.K, 1)].max())
    return max_sim < separation_threshold, max_sim


@dataclass(frozen=True)
class Sense:
    """One induced sense: its members, label, and similarity to the parent."""

    members: tuple[str, ...]
    sim_to_parent: float
    label: tuple[str, ...]
    vector: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LevelResult:
    k: int
    evaluated: bool
    valid: bool
    max_intercluster_sim: float | None
    senses: tuple[Sense, ...]


@dataclass(frozen=True)
class Disambiguation:
    """Full multi-level sense report for one term."""

    term: str
    frequency: int | None
    levels: tuple[LevelResult, ...]
    default_level: int | None

    @property
    def senses(self) -> tuple[Sense, ...]:
        """Senses at the default level; empty when the term is monosemous."""
        for level in self.levels:
            if level.k == self.default_level:
                return level.senses
        return ()

    def to_dict(self) -> dict:
        levels = []
        for lr in self.levels:
            entry = {
                "k": lr.k,
                "valid": lr.valid,
                "max_intercluster_sim": _round6(lr.max_intercluster_sim),
                "senses": [
                    {
                        "sim_to_parent": _round6(s.sim_to_parent),
                        "members": list(s.members),
                        "label": list(s.label),
                    }
                    for s in lr.senses
                ],
            }
            if not lr.evaluated:
                entry["skipped"] = True
            levels.append(entry)
        return {
            "term": self.term,
            "frequency": self.frequency,
            "levels": levels,
            "default_level": self.default_level,
        }


def _round6(value: float | None) -> float | None:
    return None if value is None else round(float(value), 6)


def _senses_at(
    state: ClusterState,
    cfg: DisambigConfig,
    space: SemanticSpace | None,
) -> tuple[Sense, ...]:
    """Every cluster's sense, worked out from its cohort rows.

    A cluster's centroid is the sum of its members' unit vectors, so its
    similarity to the parent and to each member are sums over cohort rows
    divided by the centroid norm; the explicit vector is formed only when
    the run has units.
    """
    senses = []
    for cluster, origin in enumerate(state.origin):
        rows = np.asarray(origin)
        norm = float(np.sqrt(state.products[cluster, cluster]))
        vector = None
        if state.units is not None:
            total = state.units[rows].sum(axis=0)
            vector = total / float(np.linalg.norm(total))
        names = state.members[cluster]
        if cfg.label_mode == "global":
            label = tuple(name for name, _ in space.neighbors(vector, cfg.label_len))
        else:
            sims = (state.base_gram[np.ix_(rows, rows)].sum(axis=1) / norm).tolist()
            ranked = sorted(zip(names, sims), key=lambda pair: (-pair[1], pair[0]))
            label = tuple(name for name, _ in ranked[: cfg.label_len])
        senses.append(
            Sense(
                members=names,
                sim_to_parent=float(state.parent_sims[rows].sum() / norm),
                label=label,
                vector=vector,
            )
        )
    senses.sort(key=lambda s: -s.sim_to_parent)
    return tuple(senses)


def cluster_trajectory(state: ClusterState) -> Iterator[ClusterState]:
    """Yield successive states while merging down to a single cluster."""
    while state.K > 1:
        state = merge_closest(state)
        yield state


def _run_levels(
    state: ClusterState,
    cfg: DisambigConfig,
    space: SemanticSpace | None = None,
) -> tuple[tuple[LevelResult, ...], int | None]:
    want = sorted({int(k) for k in cfg.levels}, reverse=True)
    reachable = {k for k in want if k <= state.K}
    recorded: dict[int, LevelResult] = {}

    def record(st: ClusterState) -> None:
        if st.K in reachable and st.K not in recorded:
            valid, max_sim = evaluate_level(st, cfg.separation_threshold)
            recorded[st.K] = LevelResult(
                k=st.K,
                evaluated=True,
                valid=valid,
                max_intercluster_sim=max_sim,
                senses=_senses_at(st, cfg, space),
            )

    record(state)
    while state.K > 1 and len(recorded) < len(reachable):
        state = merge_closest(state)
        record(state)

    levels = tuple(
        recorded.get(k, LevelResult(k=k, evaluated=False, valid=False,
                                    max_intercluster_sim=None, senses=()))
        for k in want
    )
    valid_levels = [lr.k for lr in levels if lr.evaluated and lr.valid]
    return levels, (max(valid_levels) if valid_levels else None)


def disambiguate(
    space: SemanticSpace,
    term: str,
    cfg: DisambigConfig | None = None,
    force: bool = False,
) -> Disambiguation:
    """Induce senses for one vocabulary term.

    Raises UnknownTermError / ZeroVectorError for unusable terms and
    FrequencyBandError when the term's corpus frequency falls outside
    [min_freq, max_freq], unless ``force`` is set.
    """
    cfg = cfg or DisambigConfig()
    space.unit_vector(term)  # unknown and zero-vector terms fail before the band check
    frequency = space.freq.total_count(term)
    if not force and not cfg.min_freq <= frequency <= cfg.max_freq:
        raise FrequencyBandError(
            f"{term!r} occurs {frequency} times, outside "
            f"[{cfg.min_freq}, {cfg.max_freq}]; use force to override"
        )
    cohort = build_cohort(space, term, cfg.cohort_min_sim, cfg.cohort_cap)
    units = cohort_units(space, cohort)
    gram = gram_of_units(units)
    state = init_clusters(cohort, gram, units=units)
    levels, default = _run_levels(state, cfg, space=space)
    return Disambiguation(term=term, frequency=frequency, levels=levels, default_level=default)


def disambiguate_from_gram(
    labels: Sequence[str],
    gram: np.ndarray,
    parent_sims: Sequence[float] | None = None,
    cfg: DisambigConfig | None = None,
    term: str | None = None,
) -> Disambiguation:
    """Induce senses from a canned gram matrix, no space required.

    ``parent_sims`` are each member's similarity to the parent term; they
    default to the first row (parent = first member). Runs the exact same
    merge trajectory a space-backed call would take on equal inputs.
    """
    cfg = cfg or DisambigConfig()
    if cfg.label_mode == "global":
        raise ValueError("global labels need a space-backed run")
    gram = np.asarray(gram, dtype=np.float64)
    n = len(labels)
    if gram.shape != (n, n):
        raise ValueError("gram matrix shape does not match label count")
    if n == 0:
        raise ValueError("empty gram matrix")
    if np.abs(gram - gram.T).max() > 1e-9:
        raise ValueError("gram matrix is not symmetric")
    if np.abs(np.diag(gram) - 1.0).max() > 1e-6:
        raise ValueError("gram matrix diagonal must be 1")
    if gram.min() < -1.0 - 1e-9 or gram.max() > 1.0 + 1e-9:
        raise ValueError("gram matrix entries outside [-1, 1]")
    if parent_sims is None:
        parent_sims = gram[0]
        if term is None:
            term = labels[0]
    state = init_clusters(list(labels), gram, parent_sims=parent_sims)
    levels, default = _run_levels(state, cfg)
    return Disambiguation(
        term=term if term is not None else "",
        frequency=None,
        levels=levels,
        default_level=default,
    )


@dataclass(frozen=True)
class BatchSummary:
    """How many terms landed on each sense count (0 = monosemous)."""

    terms_processed: int
    by_sense_count: dict[int, int]


def batch_disambiguate(
    space: SemanticSpace,
    cfg: DisambigConfig | None = None,
    terms: Iterable[str] | None = None,
) -> Iterator[Disambiguation]:
    """Disambiguate every in-band vocabulary term, sorted, skipping failures."""
    cfg = cfg or DisambigConfig()
    if terms is None:
        candidates = space.terms()
    else:
        candidates = [t for t in terms if t in space]
    candidates = sorted(
        t for t in candidates
        if cfg.min_freq <= space.freq.total_count(t) <= cfg.max_freq
    )
    for term in candidates:
        try:
            result = disambiguate(space, term, cfg)
        except RispError as exc:
            logger.warning("skipping %r: %s", term, exc)
            continue
        yield result


def summarize(results: Iterable[Disambiguation]) -> BatchSummary:
    """Tally sense counts at each term's default level."""
    counts: dict[int, int] = {}
    total = 0
    for result in results:
        total += 1
        n = len(result.senses)
        counts[n] = counts.get(n, 0) + 1
    return BatchSummary(terms_processed=total, by_sense_count=dict(sorted(counts.items())))
