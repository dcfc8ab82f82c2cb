"""Seeded synthetic corpora for the benchmark workloads.

Every generator writes plain line files (one document per line, tokens
separated by single spaces, lowercase alphanumeric terms) and returns a
``Workload`` that lists those files plus everything the checks need to know
about how they were made: planted senses, the drift schedule, the query and
disambiguation term lists. The program under test only ever sees the files.

Documents are written in blocks so the generator's own memory stays small
next to the program's: the benchmark reports the process's peak resident
memory as the program's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_BLOCK_DOCS = 2000


@dataclass
class Workload:
    """Files and facts of one generated workload."""

    name: str
    ingest: dict  # IngestConfig keyword arguments, as a user would pass flags
    stages: list[Path]  # stages[0] is the base corpus, the rest are update deltas
    stage_tokens: list[int]
    stage_docs: list[int]
    queries: list[str]  # neighbors(term, k=10) queries, in order
    disambig_terms: list[str]
    loads: int  # load_index calls timed on the final index
    chunks: int  # queries and disambiguation terms are timed in this many interleaved chunks
    oracle_terms: list[str]  # cohorts whose merge sequence goes to the oracle
    planted: dict[str, list[frozenset]] = field(default_factory=dict)
    unsplit_terms: list[str] = field(default_factory=list)
    replay_terms: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.queries) % self.chunks or len(self.disambig_terms) % self.chunks:
            raise ValueError("queries and disambiguation terms must split into equal chunks")


def _zipf_weights(n: int, offset: float, exponent: float = 1.0) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + offset) ** exponent
    return weights / weights.sum()


class _LineWriter:
    """Buffered writer of space-joined documents that counts what it wrote."""

    def __init__(self, path: Path):
        self.path = path
        self.docs = 0
        self.tokens = 0
        self._fh = open(path, "w", encoding="utf-8")
        self._buffer: list[str] = []

    def add(self, words) -> None:
        self._buffer.append(" ".join(words))
        self.docs += 1
        self.tokens += len(words)
        if len(self._buffer) >= _BLOCK_DOCS:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer = []

    def close(self) -> None:
        self._flush()
        self._fh.close()


def _write_zipf_stage(path, rng, names, weights, n_docs, doc_len, rank_to_term=None):
    """``n_docs`` documents of ``doc_len`` draws; ranks map through ``rank_to_term``."""
    writer = _LineWriter(path)
    try:
        for start in range(0, n_docs, _BLOCK_DOCS):
            block = min(_BLOCK_DOCS, n_docs - start)
            ranks = rng.choice(len(weights), size=(block, doc_len), p=weights)
            if rank_to_term is not None:
                ranks = rank_to_term[ranks]
            for row in ranks.tolist():
                writer.add([names[i] for i in row])
    finally:
        writer.close()
    return writer


# -- senses: planted polysemy --------------------------------------------

SENSES_PSEUDOWORDS = 12
SENSES_COUNTS = (2, 3, 4)  # cycled over the pseudowords: four of each
SENSES_CONTEXT = 30  # private context terms per sense
SENSES_OCCURRENCES = 150  # documents per sense
SENSES_DOC_LEN = 80
SENSES_BG_VOCAB = 800
SENSES_BG_DOCS = 3000
SENSES_BG_DOC_LEN = 50
SENSES_CONTEXT_SAMPLE = 60  # context terms disambiguated per pseudoword


def make_senses(workdir: Path, seed: int) -> Workload:
    """Planted pseudowords, each spliced into 2-4 private vocabularies.

    The tests/planted.py construction with several pseudowords in one corpus:
    every sense document is drawn from one private context vocabulary with
    its pseudoword inserted once, and Zipf filler is shuffled in. 80% of the
    shuffled documents form the base corpus and two 10% slices the updates.
    """
    rng = np.random.default_rng([seed, 1])
    planted: dict[str, list[frozenset]] = {}
    docs: list[list[str]] = []
    for p in range(SENSES_PSEUDOWORDS):
        pseudo = f"pseudo{p:02d}"
        n_senses = SENSES_COUNTS[p % len(SENSES_COUNTS)]
        vocabs = []
        for g in range(n_senses):
            ctx = [f"p{p:02d}s{g}w{j:02d}" for j in range(SENSES_CONTEXT)]
            vocabs.append(frozenset(ctx))
            draws = rng.integers(0, SENSES_CONTEXT, size=(SENSES_OCCURRENCES, SENSES_DOC_LEN - 1))
            spots = rng.integers(0, SENSES_DOC_LEN, size=SENSES_OCCURRENCES)
            for row, spot in zip(draws.tolist(), spots.tolist()):
                words = [ctx[j] for j in row]
                words.insert(spot, pseudo)
                docs.append(words)
        planted[pseudo] = vocabs
    bg_names = [f"bg{j:04d}" for j in range(SENSES_BG_VOCAB)]
    bg = rng.choice(SENSES_BG_VOCAB, size=(SENSES_BG_DOCS, SENSES_BG_DOC_LEN),
                    p=_zipf_weights(SENSES_BG_VOCAB, 2.7))
    docs.extend([bg_names[i] for i in row] for row in bg.tolist())
    order = rng.permutation(len(docs))
    n = len(docs)
    bounds = [0, int(0.8 * n), int(0.9 * n), n]
    stages, tokens, counts = [], [], []
    for s in range(3):
        path = workdir / f"senses-{s}.txt"
        writer = _LineWriter(path)
        try:
            for i in order[bounds[s]:bounds[s + 1]]:
                writer.add(docs[i])
        finally:
            writer.close()
        stages.append(path)
        tokens.append(writer.tokens)
        counts.append(writer.docs)

    # One timed chunk per pseudoword: the pseudoword and 60 of its context terms.
    disambig_terms, context_sample = [], []
    for pseudo, vocabs in planted.items():
        pool = sorted(frozenset().union(*vocabs))
        sample = rng.choice(pool, size=SENSES_CONTEXT_SAMPLE, replace=False).tolist()
        disambig_terms += [pseudo] + sample
        context_sample += sample
    pool = sorted(planted) + sorted(set().union(*(v for vs in planted.values() for v in vs)))
    pool += bg_names[:400]
    queries = rng.choice(pool, size=1200).tolist()
    return Workload(
        name="senses",
        ingest={"min_count": 5, "max_doc_frequency": 0.5},
        stages=stages,
        stage_tokens=tokens,
        stage_docs=counts,
        queries=queries,
        disambig_terms=disambig_terms,
        loads=20,
        chunks=SENSES_PSEUDOWORDS,
        oracle_terms=["pseudo02", context_sample[0]],  # pseudo02 has four senses
        planted=planted,
        unsplit_terms=context_sample,
    )


# -- stream: incremental growth under drift --------------------------------

STREAM_VOCAB = 3500
STREAM_DOC_LEN = 50
STREAM_BASE_DOCS = 12_000
STREAM_CYCLE_DOCS = 2000
STREAM_CYCLES = 4
# Each update cycle shifts the rank -> term map by this many places, so the
# terms about to become the most frequent had a document frequency of a few
# percent before and cross max_doc_frequency (0.10) during the cycle.
STREAM_ROTATION = 100


def stream_rank_map(cycle: int) -> np.ndarray:
    """Term index drawn at each Zipf rank during ``cycle`` (0 = base corpus)."""
    return (np.arange(STREAM_VOCAB) + cycle * STREAM_ROTATION) % STREAM_VOCAB


def make_stream(workdir: Path, seed: int) -> Workload:
    """Criterion-8-shaped Zipf filler whose term ranks rotate per update cycle."""
    rng = np.random.default_rng([seed, 2])
    names = [f"t{j:04d}" for j in range(STREAM_VOCAB)]
    weights = _zipf_weights(STREAM_VOCAB, 2.7)
    stages, tokens, counts = [], [], []
    for cycle in range(STREAM_CYCLES + 1):
        path = workdir / f"stream-{cycle}.txt"
        n_docs = STREAM_BASE_DOCS if cycle == 0 else STREAM_CYCLE_DOCS
        writer = _write_zipf_stage(path, rng, names, weights, n_docs, STREAM_DOC_LEN,
                                   stream_rank_map(cycle))
        stages.append(path)
        tokens.append(writer.tokens)
        counts.append(writer.docs)
    # Mid-rank terms keep a vector and a full (capped) cohort throughout.
    mid = names[500:2500]
    disambig_terms = rng.choice(mid, size=60, replace=False).tolist()
    # Replay both steady terms and terms that cross max_doc_frequency in a cycle.
    crossing = [names[STREAM_ROTATION * c + 2] for c in range(1, STREAM_CYCLES + 1)]
    steady = rng.choice(mid, size=4, replace=False).tolist()
    return Workload(
        name="stream",
        ingest={"min_count": 5, "max_doc_frequency": 0.10},
        stages=stages,
        stage_tokens=tokens,
        stage_docs=counts,
        queries=rng.choice(names[200:3000], size=840).tolist(),
        disambig_terms=disambig_terms,
        loads=8,
        chunks=6,
        oracle_terms=disambig_terms[:1],
        replay_terms=crossing + steady,
    )


# -- wide: large vocabulary -------------------------------------------------

WIDE_STOPWORDS = 40
WIDE_STOP_MASS = 0.30
WIDE_CONTENT = 40_000
WIDE_TOPICS = 100
WIDE_TOPIC_TERMS = 16
WIDE_TOPIC_SHARE = 0.2  # share of documents that belong to a topic
WIDE_TOPIC_MASS = 0.6  # share of a topic document's tokens drawn from its topic
WIDE_DOC_LEN = 50
WIDE_BASE_DOCS = 7500
WIDE_CYCLE_DOCS = 400
WIDE_CYCLES = 2
WIDE_DISAMBIG = 200  # background terms disambiguated, besides two terms of each topic


def make_wide(workdir: Path, seed: int) -> Workload:
    """A flat Zipf vocabulary of tens of thousands of terms under a stopword band.

    Stopwords hold 30% of the background tokens (document frequency far
    above 0.10); the content vocabulary follows a square-root Zipf law whose
    most frequent term stays near 3% document frequency, so no term sits near
    the max_doc_frequency boundary and small updates change significance only
    for rare terms crossing min_count. A fifth of the documents also belong
    to one of 100 small topics (terms Zipf-weighted inside the topic), which
    gives topic terms cohorts of a few dozen members while background
    terms' cohorts hold little but the term.
    """
    rng = np.random.default_rng([seed, 3])
    names = [f"stop{j:02d}" for j in range(WIDE_STOPWORDS)]
    names += [f"c{j:05d}" for j in range(WIDE_CONTENT)]
    topic_base = len(names)
    names += [f"k{t:03d}w{j:02d}" for t in range(WIDE_TOPICS) for j in range(WIDE_TOPIC_TERMS)]
    weights = np.concatenate([
        np.full(WIDE_STOPWORDS, WIDE_STOP_MASS / WIDE_STOPWORDS),
        (1.0 - WIDE_STOP_MASS) * _zipf_weights(WIDE_CONTENT, 10.0, 0.5),
    ])
    topic_weights = _zipf_weights(WIDE_TOPIC_TERMS, 1.0)
    stages, tokens, counts = [], [], []
    for cycle in range(WIDE_CYCLES + 1):
        writer = _LineWriter(workdir / f"wide-{cycle}.txt")
        n_docs = WIDE_BASE_DOCS if cycle == 0 else WIDE_CYCLE_DOCS
        try:
            for start in range(0, n_docs, _BLOCK_DOCS):
                block = min(_BLOCK_DOCS, n_docs - start)
                ids = rng.choice(len(weights), size=(block, WIDE_DOC_LEN), p=weights)
                topical = rng.random(block) < WIDE_TOPIC_SHARE
                topics = rng.integers(0, WIDE_TOPICS, size=block)
                from_topic = rng.random((block, WIDE_DOC_LEN)) < WIDE_TOPIC_MASS
                picks = rng.choice(WIDE_TOPIC_TERMS, size=(block, WIDE_DOC_LEN), p=topic_weights)
                topic_ids = topic_base + topics[:, None] * WIDE_TOPIC_TERMS + picks
                ids = np.where(topical[:, None] & from_topic, topic_ids, ids)
                for row in ids.tolist():
                    writer.add([names[i] for i in row])
        finally:
            writer.close()
        stages.append(writer.path)
        tokens.append(writer.tokens)
        counts.append(writer.docs)
    # The 500 most frequent content terms expect at least 27 occurrences in
    # the base corpus, so every query and disambiguation term has a vector.
    content = names[WIDE_STOPWORDS:WIDE_STOPWORDS + 500]
    # The two most frequent terms of every topic, alternating with background
    # terms so that every timed chunk holds the same mix.
    topic_terms = [names[topic_base + t * WIDE_TOPIC_TERMS + j]
                   for t in range(WIDE_TOPICS) for j in range(2)]
    background = rng.choice(content, size=WIDE_DISAMBIG, replace=False).tolist()
    disambig_terms = [t for pair in zip(background, topic_terms) for t in pair]
    return Workload(
        name="wide",
        ingest={"min_count": 5, "max_doc_frequency": 0.10},
        stages=stages,
        stage_tokens=tokens,
        stage_docs=counts,
        queries=rng.choice(content, size=120).tolist(),
        disambig_terms=disambig_terms,
        loads=2,
        chunks=8,
        oracle_terms=[t for t in disambig_terms if t.startswith("k")][:1],
    )


MAKERS = {"senses": make_senses, "stream": make_stream, "wide": make_wide}
