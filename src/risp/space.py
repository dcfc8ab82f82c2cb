"""The incremental semantic space.

A term's vector is the running sum of the seed vectors of every significant
term that co-occurs with it inside a fixed symmetric window, clipped at
document (or sentence) boundaries. Sums are never normalized in place;
similarity is the cosine of the normalized sums, so the space can keep
absorbing documents without ever revisiting old ones. Seeds are derived from
term strings alone, so vocabulary growth never perturbs existing vectors and
update(build(A), B) equals build(A + B) whenever A alone already yields the
significant set of A + B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnknownTermError, ZeroVectorError
from .ingest import (
    FrequencyTable,
    IngestConfig,
    as_corpus,
    scan_frequencies,
    significant_terms,
    token_segments,
)
from .seeds import GAUSSIAN, SeedBank, SeedScheme

#: Guard band for similarity values that drift past [-1, 1] by rounding.
SIM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SpaceConfig:
    """Geometry of a semantic space: window and seed scheme (which fixes dim)."""

    window: int = 11
    seed_scheme: SeedScheme = SeedScheme()

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 3")

    @property
    def dim(self) -> int:
        return self.seed_scheme.dim

    @property
    def radius(self) -> int:
        return (self.window - 1) // 2

    @classmethod
    def create(
        cls,
        dim: int = 300,
        window: int = 11,
        global_seed: int = 0,
        distribution: str = GAUSSIAN,
        ternary_nonzeros: int = 8,
    ) -> "SpaceConfig":
        """Build a config and its matching seed scheme in one call."""
        scheme = SeedScheme(
            dim=dim,
            global_seed=global_seed,
            distribution=distribution,
            ternary_nonzeros=ternary_nonzeros,
        )
        return cls(window=window, seed_scheme=scheme)


@dataclass(frozen=True)
class TermRecord:
    """Read-only view of one vocabulary entry."""

    term: str
    frequency: int  # corpus total, including occurrences while not significant
    doc_count: int
    context_events: int
    sum: np.ndarray


def distance(sigma, tolerance: float = SIM_TOLERANCE):
    """Map similarity to the distance sqrt(2 * (1 - sigma)).

    Monotone decreasing on [-1, 1]; 1 maps to 0 and -1 to 2. Accepts scalars
    or arrays. Values within ``tolerance`` of the bounds are clamped; anything
    further out raises ValueError.
    """
    arr = np.asarray(sigma, dtype=np.float64)
    if np.any(arr < -1.0 - tolerance) or np.any(arr > 1.0 + tolerance):
        raise ValueError("similarity outside [-1, 1]")
    result = np.sqrt(2.0 * (1.0 - np.clip(arr, -1.0, 1.0)))
    if np.isscalar(sigma) or np.ndim(sigma) == 0:
        return float(result)
    return result


class SemanticSpace:
    """Vocabulary of accumulated context vectors over one seed scheme.

    Vocabulary rows are stored columnar (terms list + one (V, dim) float64
    sum matrix) so accumulation and neighbor scans stay vectorized. The
    frequency table tracks *every* term seen and holds every term's counts;
    vectors exist only for terms that passed the significance filter at some
    ingestion pass.
    """

    def __init__(self, config: SpaceConfig | None = None, ingest_config: IngestConfig | None = None):
        self.config = config or SpaceConfig()
        self.ingest_config = ingest_config or IngestConfig()
        self.freq = FrequencyTable()
        self.docs_ingested = 0
        self._terms: list[str] = []
        self._index: dict[str, int] = {}
        self._sums = np.zeros((0, self.config.dim))
        self._events = np.zeros(0, dtype=np.int64)
        self._seeds = SeedBank(self.config.seed_scheme)
        # None after a load; rebuilt from term strings when accumulation resumes.
        self._seed_rows: np.ndarray | None = np.zeros((0, self.config.dim))
        self._active: dict[str, int] | None = None
        self._units: tuple[list[str], np.ndarray, np.ndarray] | None = None

    # -- vocabulary ------------------------------------------------------

    @property
    def vocabulary_size(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def _row(self, term: str) -> int:
        try:
            return self._index[term]
        except KeyError:
            raise UnknownTermError(f"term not in vocabulary: {term!r}") from None

    def term_vector(self, term: str) -> TermRecord:
        row = self._row(term)
        vec = self._sums[row].copy()
        vec.setflags(write=False)
        return TermRecord(
            term=term,
            frequency=self.freq.total_count(term),
            doc_count=self.freq.doc_count(term),
            context_events=int(self._events[row]),
            sum=vec,
        )

    def _seed_matrix(self) -> np.ndarray:
        if self._seed_rows is None:
            self._seed_rows = self._seeds.matrix(self._terms)
        return self._seed_rows

    def _add_terms(self, terms: Sequence[str]) -> None:
        if not terms:
            return
        n = len(terms)
        self._seed_rows = np.vstack([self._seed_matrix(), self._seeds.matrix(terms)])
        self._sums = np.vstack([self._sums, np.zeros((n, self.config.dim))])
        self._events = np.concatenate([self._events, np.zeros(n, dtype=np.int64)])
        for term in terms:
            self._index[term] = len(self._terms)
            self._terms.append(term)
        self._invalidate()

    def refresh_active(self) -> set[str]:
        """Recompute the significant set; grow the vocabulary for new entrants."""
        sig = significant_terms(self.freq, self.ingest_config)
        self._add_terms(sorted(t for t in sig if t not in self._index))
        self._active = {t: self._index[t] for t in sig}
        return sig

    # -- accumulation ----------------------------------------------------

    def _active_rows(self) -> dict[str, int]:
        if self._active is None:
            self.refresh_active()
        return self._active

    def _accumulate_segment(self, tokens: Sequence[str]) -> None:
        length = len(tokens)
        if length == 0:
            return
        active = self._active_rows()
        rows = np.fromiter((active.get(t, -1) for t in tokens), dtype=np.int64, count=length)
        valid = rows >= 0
        if not valid.any():
            return
        radius = self.config.radius
        dim = self.config.dim

        seed_rows = np.zeros((length, dim))
        seed_rows[valid] = self._seed_matrix()[rows[valid]]
        cum = np.zeros((length + 1, dim))
        np.cumsum(seed_rows, axis=0, out=cum[1:])
        positions = np.arange(length)
        lo = np.maximum(positions - radius, 0)
        hi = np.minimum(positions + radius + 1, length)
        # Window sum around each position, center excluded.
        windows = cum[hi] - cum[lo] - seed_rows

        vcum = np.zeros(length + 1)
        np.cumsum(valid, out=vcum[1:])
        counts = (vcum[hi] - vcum[lo] - valid).astype(np.int64)

        targets = rows[valid]
        np.add.at(self._sums, targets, windows[valid])
        np.add.at(self._events, targets, counts[valid])
        self._invalidate()

    # -- similarity ------------------------------------------------------

    def _invalidate(self) -> None:
        self._units = None

    def _unit_cache(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Terms with context, their read-only unit rows, and each row's place (-1: none)."""
        if self._units is None:
            norms = np.linalg.norm(self._sums, axis=1)
            keep = np.flatnonzero(norms > 0)
            units = self._sums[keep] * (1.0 / norms[keep])[:, None]
            units.setflags(write=False)
            place = np.full(len(self._terms), -1, dtype=np.int64)
            place[keep] = np.arange(len(keep))
            self._units = ([self._terms[i] for i in keep], units, place)
        return self._units

    def unit_vector(self, term: str) -> np.ndarray:
        """The normalized context vector of a term, as a read-only row."""
        row = self._row(term)
        _, units, place = self._unit_cache()
        if place[row] < 0:
            raise ZeroVectorError(f"term has no accumulated context: {term!r}")
        return units[place[row]]

    def similarity(self, term_a: str, term_b: str) -> float:
        """Cosine of the two accumulated vectors. Symmetric; self gives 1.0."""
        unit_a = self.unit_vector(term_a)
        unit_b = self.unit_vector(term_b)
        if term_a == term_b:
            return 1.0
        return float(np.dot(unit_a, unit_b))

    def neighbors(self, query: str | np.ndarray, k: int = 20) -> list[tuple[str, float]]:
        """The k most similar vocabulary terms, ties broken lexicographically.

        ``query`` is a vocabulary term (included in its own result at 1.0) or
        an explicit vector. Zero-vector terms never appear in results.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        place = None
        if isinstance(query, str):
            vec = self.unit_vector(query)
            place = self._unit_cache()[2][self._index[query]]
        else:
            vec = np.asarray(query, dtype=np.float64)
            if vec.shape != (self.config.dim,):
                raise ValueError("query vector has wrong dimensionality")
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ZeroVectorError("query vector has zero norm")
            vec = vec / norm
        terms, units = self.nonzero_unit_rows()
        sims = units @ vec
        if place is not None:
            sims[place] = 1.0
        rows = range(len(sims))
        if k < len(sims):  # every row tied with the k-th score stays, so names break the tie
            rows = np.flatnonzero(sims >= np.partition(sims, -k)[-k])
        scored = sorted(((terms[i], float(sims[i])) for i in rows),
                        key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def nonzero_unit_rows(self) -> tuple[list[str], np.ndarray]:
        """All terms with context, plus their unit vectors, row-aligned.

        Both are the space's cache, not copies: the rows are read-only and
        the list must not be changed.
        """
        terms, units, _ = self._unit_cache()
        return terms, units


def build(
    corpus,
    ingest_config: IngestConfig | None = None,
    space_config: SpaceConfig | None = None,
) -> SemanticSpace:
    """A new space holding ``corpus``: the first :func:`update` of an empty space.

    ``corpus`` may be a corpus object, a path, or a sequence of document
    strings; it is iterated twice, so it must be re-iterable.
    """
    return update(SemanticSpace(space_config, ingest_config), corpus)


def update(space: SemanticSpace, corpus) -> SemanticSpace:
    """Fold additional documents into an existing space, in place.

    Two passes over ``corpus``: scan its frequencies, then accumulate its
    context windows. Significance is re-checked against the merged counts:
    terms crossing min_count gain vectors and accumulate from this delta
    onward; existing vectors are never rescaled or dropped. Single-writer
    discipline is the caller's responsibility (the CLI takes a lock file).
    """
    corpus = as_corpus(corpus)
    space.freq.merge(scan_frequencies(corpus, space.ingest_config))
    space.refresh_active()
    for doc in corpus.documents():
        for segment in token_segments(doc, space.ingest_config):
            space._accumulate_segment(segment)
        space.docs_ingested += 1
    return space
