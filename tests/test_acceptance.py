"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line
even when all checks pass.
"""

import time

import numpy as np

from conftest import FIXTURES
from oracles import agglomerate
from planted import background_corpus, cluster_purity, planted_corpus
from risp import (
    IngestConfig,
    SemanticSpace,
    SpaceConfig,
    batch_disambiguate,
    build,
    load_index,
    save_index,
    update,
)
from risp.cohort import load_gram_fixture, gram_of_units
from risp.disambig import disambiguate, disambiguate_from_gram, init_clusters, merge_closest
from risp.errors import IndexChecksumError
from risp.seeds import SeedScheme, orthogonality_stats
from risp.space import distance

LYMPHOMA = frozenset({"mcl", "immunocytoma", "angioimmunoblastic",
                      "waldenstrom", "burkitt", "waldenstroms"})


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_seed_quasi_orthogonality():
    started = time.perf_counter()
    stats = orthogonality_stats(SeedScheme(dim=300), n_pairs=10_000)
    elapsed = time.perf_counter() - started
    ok = abs(stats.mean) < 0.005 and 0.052 <= stats.stddev <= 0.064 and elapsed < 5.0
    _report(1, "seed quasi-orthogonality", ok,
            f"mean={stats.mean:+.5f} (|.|<0.005), stddev={stats.stddev:.5f} "
            f"(in [0.052, 0.064]), {elapsed:.2f}s (<5s), 10000 pairs at dim 300")


def test_criterion_2_distance_similarity_identity():
    sweep = np.linspace(-1.0, 1.0, 100_000)
    d = distance(sweep)
    worst = float(np.abs(d * d + 2.0 * sweep - 2.0).max())
    spot = float(distance(0.58))
    ok = worst < 1e-9 and abs(spot - 0.91652) <= 1e-4
    _report(2, "distance identity", ok,
            f"max |D^2+2s-2|={worst:.2e} (<1e-9) over 100000 points, "
            f"D(0.58)={spot:.6f} (0.91652 +/- 1e-4)")


def test_criterion_3_cohort_fixture_two_way_split():
    labels, gram = load_gram_fixture(FIXTURES / "mantle_gram.txt")
    started = time.perf_counter()
    result = disambiguate_from_gram(labels, gram)
    elapsed = time.perf_counter() - started
    by_k = {lr.k: lr for lr in result.levels}
    partitions = {frozenset(s.members) for s in by_k[2].senses}
    split_ok = (
        by_k[2].valid
        and LYMPHOMA in partitions
        and by_k[2].max_intercluster_sim < 0.175
        and not by_k[3].valid
        and not by_k[4].valid
    )
    ok = split_ok and elapsed < 1.0
    _report(3, "18-term fixture split", ok,
            f"K=2 valid with disease/glassware partition "
            f"(max sim {by_k[2].max_intercluster_sim:.4f} < 0.175), "
            f"K=3 max {by_k[3].max_intercluster_sim:.4f} and "
            f"K=4 max {by_k[4].max_intercluster_sim:.4f} invalid, {elapsed * 1000:.1f}ms (<1s)")


def test_criterion_4_planted_polysemy_recovery():
    ingest = IngestConfig(min_count=5, max_doc_frequency=0.5)
    space_cfg = SpaceConfig.create()
    started = time.perf_counter()
    outcomes = {}
    for n_senses in (2, 3, 4):
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(1000 * n_senses + trial)
            docs, pseudo, vocabs = planted_corpus(rng, n_senses)
            space = build(docs, ingest, space_cfg)
            result = disambiguate(space, pseudo)
            level = next((lr for lr in result.levels if lr.k == n_senses), None)
            wins += (
                level is not None
                and level.evaluated
                and level.valid
                and all(cluster_purity(s.members, vocabs) >= 0.90 for s in level.senses)
            )
        outcomes[n_senses] = wins
    elapsed = time.perf_counter() - started
    ok = (
        outcomes[2] >= 19  # 95% of 20 trials
        and outcomes[3] >= 16  # 80%
        and outcomes[4] >= 16
        and elapsed < 120.0
    )
    _report(4, "planted polysemy", ok,
            f"valid K=G with >=90% purity in {outcomes[2]}/20 (G=2, need 19), "
            f"{outcomes[3]}/20 (G=3, need 16), {outcomes[4]}/20 (G=4, need 16), "
            f"{elapsed:.1f}s (<120s)")


def test_criterion_5_incremental_equals_batch():
    rng = np.random.default_rng(404)
    docs = background_corpus(rng, n_tokens=50_000, vocab=800, doc_len=50)
    assert len(docs) == 1000
    cfg = IngestConfig(min_count=1, max_doc_frequency=1.0)
    space_cfg = SpaceConfig.create()
    whole = build(docs, cfg, space_cfg)
    staged = build(docs[:500], cfg, space_cfg)
    update(staged, docs[500:])
    shared = set(whole.terms()) & set(staged.terms())
    worst = min(
        float(np.dot(whole.unit_vector(t), staged.unit_vector(t))) for t in shared
    )
    ok = bool(shared) and worst >= 1.0 - 1e-5
    _report(5, "incremental equals batch", ok,
            f"1000 documents, one pass vs two halves: worst cosine over "
            f"{len(shared)} shared terms = {worst:.12f} (>= 1 - 1e-5)")


def test_criterion_6_clustering_oracle_equivalence():
    rng = np.random.default_rng(606)
    mismatches = 0
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        vecs = rng.standard_normal((n, 16))
        units = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        pairs, grams = agglomerate(units)
        state = init_clusters([f"m{i}" for i in range(n)], gram_of_units(units))
        worst_gap = max(worst_gap, float(np.abs(state.gram() - grams[n]).max()))
        for expected in pairs:
            state = merge_closest(state)
            if state.merged_pair != expected:
                mismatches += 1
                break
            worst_gap = max(
                worst_gap, float(np.abs(state.gram() - grams[state.K]).max())
            )
    ok = mismatches == 0 and worst_gap < 1e-6
    _report(6, "clustering oracle equivalence", ok,
            f"100 random instances (N <= 20): {mismatches} merge sequence "
            f"mismatches, max gram deviation {worst_gap:.2e} (<1e-6)")


def test_criterion_7_non_monotone_merges_tolerated():
    a20, a50 = np.radians(20.0), np.radians(50.0)
    units = np.array([
        [np.cos(a20), np.sin(a20), 0.0, 0.0, 0.0],
        [np.cos(a20), -np.sin(a20), 0.0, 0.0, 0.0],
        [np.cos(a50), 0.0, np.sin(a50), 0.0, 0.0],
        [0.64, 0.0, 0.245, np.sqrt(1.0 - 0.64**2 - 0.245**2), 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    result = disambiguate_from_gram(list("abcde"), gram_of_units(units))
    by_k = {lr.k: lr for lr in result.levels}
    ok = (
        all(lr.evaluated for lr in result.levels)
        and by_k[3].max_intercluster_sim > by_k[4].max_intercluster_sim
        and by_k[2].valid
    )
    _report(7, "non-monotone merges", ok,
            f"max intercluster sims K=4: {by_k[4].max_intercluster_sim:.4f}, "
            f"K=3: {by_k[3].max_intercluster_sim:.4f} (rises), "
            f"K=2: {by_k[2].max_intercluster_sim:.4f}; all levels evaluated")


def test_criterion_8_batch_throughput(tmp_path):
    rng = np.random.default_rng(808)
    docs = background_corpus(rng, n_tokens=1_000_000, vocab=3500, doc_len=50)
    space = build(docs, IngestConfig(), SpaceConfig.create())
    path = tmp_path / "throughput.risp"
    save_index(space, path)
    space = load_index(path)
    in_band = [
        t for t in space.terms() if 5 <= space.freq.total_count(t) <= 5000
    ]
    sample = in_band[:: max(1, len(in_band) // 50)][:50]
    started = time.perf_counter()
    results = list(batch_disambiguate(space, terms=sample))
    elapsed = time.perf_counter() - started
    rate = len(results) / elapsed
    ok = len(results) >= 50 and rate >= 2.0
    _report(8, "batch throughput", ok,
            f"{len(results)} terms in {elapsed:.1f}s = {rate:.1f} terms/s "
            f"(>= 2/s single-threaded; 10^6-token index, "
            f"{space.vocabulary_size} vocabulary terms)")


def test_criterion_9_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(909)
    space = SemanticSpace(SpaceConfig.create())
    terms = [f"t{i:05d}" for i in range(10_000)]
    space._terms = terms
    space._index = {t: i for i, t in enumerate(terms)}
    space._sums = rng.standard_normal((10_000, 300))
    space._events = rng.integers(1, 10_000, size=10_000)
    frequency = rng.integers(1, 5_000, size=10_000)
    space.freq.total_docs = 5_000
    space.freq.total_tokens = 1_234_567
    space.docs_ingested = 5_000
    for i, term in enumerate(terms):
        space.freq.total[term] = int(frequency[i])
        space.freq.docs[term] = int(min(frequency[i], 4_999))

    first = tmp_path / "big.risp"
    save_index(space, first)
    loaded = load_index(first)
    second = tmp_path / "big2.risp"
    save_index(loaded, second)

    sums_ok = np.array_equal(
        loaded._sums, space._sums.astype("<f4").astype(np.float64)
    )
    counts_ok = (
        np.array_equal(loaded._events, space._events)
        and loaded.freq == space.freq
        and loaded.docs_ingested == space.docs_ingested
    )
    configs_ok = (
        loaded.config == space.config and loaded.ingest_config == space.ingest_config
    )
    bytes_ok = first.read_bytes() == second.read_bytes()

    corrupt = bytearray(first.read_bytes())
    corrupt[-17] ^= 0x01  # inside the final stored vector
    first.write_bytes(bytes(corrupt))
    try:
        load_index(first)
        corruption_ok = False
    except IndexChecksumError:
        corruption_ok = True

    ok = sums_ok and counts_ok and configs_ok and bytes_ok and corruption_ok
    _report(9, "persistence round trip", ok,
            f"10000-term space: sums bit-identical={sums_ok}, counts={counts_ok}, "
            f"configs={configs_ok}, resave byte-identical={bytes_ok}, "
            f"single-byte corruption detected={corruption_ok}")
