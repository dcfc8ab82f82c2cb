"""End-to-end benchmark of risp: build, update, load, neighbors and disambig.

Usage (from the repository root):

    python3 bench/run.py --workload senses|stream|wide --seed N --seconds S --trace 0|1

One process runs one workload. It generates the workload's corpus files
from the seed (timed as set-up), then runs whole rounds of the calls the
CLI makes until the rounds' timed work reaches ``--seconds``:

    risp build      build(open_corpus(base)) + save_index
    risp update     load_index + update(open_corpus(delta)) + save_index, per delta
    queries         load_index of the final index, several times
    risp neighbors  neighbors(term, k=10) over a seeded query list, warm
    risp disambig   batch_disambiguate over the workload's term list

(neighbor queries and disambiguation terms alternate in equal chunks).

Correctness checks run between the timed sections and never inside them.
With ``--trace 1`` one more round runs with the tracer installed, and the
per-layer figures plus the tracing overhead are reported. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 2.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
NEIGHBOR_K = 10


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _keep_freed_memory() -> str:
    """Make glibc keep freed memory in the heap instead of unmapping it.

    The library allocates and frees arrays of tens of MB per call (the unit
    matrix copy in every cohort, the buffers of every save and load). By
    default each is a fresh mmap, and first-touch page faults in this kind of
    virtual machine cost a varying 2-5x the copy itself, which made
    run-to-run spread exceed the metric bounds. With the mmap and trim
    thresholds raised, freed blocks are reused and only the work is timed.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default allocator (no glibc)"
    m_trim_threshold, m_mmap_threshold = -1, -3
    ok = libc.mallopt(m_mmap_threshold, 1 << 30) and libc.mallopt(m_trim_threshold, 1 << 30)
    return "glibc keeps freed memory" if ok else "default allocator (mallopt refused)"


class Round:
    """Timings, operation tallies and check verdicts of one round."""

    def __init__(self):
        self.build_s = 0.0
        self.update_s = 0.0
        self.load_s: list[float] = []
        self.neighbors_s: list[float] = []  # per chunk of queries
        self.disambig_s: list[float] = []  # per chunk of terms
        self.disambig_done: list[int] = []  # records produced, per chunk of terms
        self.index_bytes = 0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, list[str]]] = []

    @property
    def work_s(self) -> float:
        return (self.build_s + self.update_s + sum(self.load_s) + sum(self.neighbors_s)
                + sum(self.disambig_s))

    def check(self, name, errors) -> None:
        self.checks.append((name, list(errors)))


def run_round(w, counts, workdir: Path, tracer=None) -> Round:
    # Imported here, not at the top: main() pins the environment numpy and
    # BLAS read at import, and puts src/ and tests/ on sys.path, first.
    import numpy as np
    from risp import (DisambigConfig, IngestConfig, SpaceConfig, batch_disambiguate,
                      build, load_index, save_index, update)
    from risp.cohort import build_cohort, cohort_units, gram_of_units
    from risp.disambig import cluster_trajectory, init_clusters
    from risp.ingest import open_corpus
    from risp.seeds import seed_vector
    from oracles import agglomerate

    import checks

    def untimed():
        if tracer is not None:
            tracer.paused = True

    def timed():
        if tracer is not None:
            tracer.paused = False

    r = Round()
    ingest = IngestConfig(**w.ingest)
    space_cfg = SpaceConfig.create()
    index = workdir / "index.risp"
    index.unlink(missing_ok=True)
    stage_names = ["build"] + [f"update {c}" for c in range(1, len(w.stages))]

    def stage_check(space, stage):
        """Stored counts after ``stage``; a mismatch fails that stage's operation."""
        untimed()
        errors = checks.count_errors(space.freq, counts[stage])
        r.check(f"stored counts after {stage_names[stage]}", errors)
        r.failed += bool(errors)
        timed()

    timed()
    start = time.perf_counter()
    space = build(open_corpus(w.stages[0]), ingest, space_cfg)
    save_index(space, index)
    r.build_s = time.perf_counter() - start
    r.attempted += 1
    space = None
    for cycle in range(1, len(w.stages)):
        start = time.perf_counter()
        space = load_index(index)
        r.update_s += time.perf_counter() - start
        stage_check(space, cycle - 1)
        start = time.perf_counter()
        update(space, open_corpus(w.stages[cycle]))
        save_index(space, index)
        r.update_s += time.perf_counter() - start
        r.attempted += 1
        space = None

    digests = []
    for _ in range(w.loads):
        space = None
        start = time.perf_counter()
        space = load_index(index)
        r.load_s.append(time.perf_counter() - start)
        r.attempted += 1
        untimed()
        digests.append(checks.state_digest(space))
        timed()
    stage_check(space, len(w.stages) - 1)
    r.index_bytes = index.stat().st_size

    # Neighbor queries and disambiguation alternate in equal chunks, so a
    # burst of load from elsewhere on the machine hits a few chunks of each
    # rather than one whole phase, and the medians over chunks skip it.
    space.neighbors(w.queries[0], NEIGHBOR_K)  # warm the unit-vector cache, untimed
    cfg = DisambigConfig()
    answers, records = [], []
    n_queries = len(w.queries) // w.chunks
    n_terms = len(w.disambig_terms) // w.chunks
    for c in range(w.chunks):
        queries = w.queries[c * n_queries:(c + 1) * n_queries]
        start = time.perf_counter()
        answers.extend(space.neighbors(q, NEIGHBOR_K) for q in queries)
        r.neighbors_s.append(time.perf_counter() - start)
        terms = w.disambig_terms[c * n_terms:(c + 1) * n_terms]
        start = time.perf_counter()
        done = list(batch_disambiguate(space, cfg, terms=terms))
        r.disambig_s.append(time.perf_counter() - start)
        r.disambig_done.append(len(done))
        records.extend(done)
        r.attempted += len(queries) + len(terms)
    r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks on the final index, outside every timed section --------------
    untimed()
    r.check("every load gives the same space", checks.digest_errors(digests))
    bf = checks.BruteForce(space)
    r.check("neighbors equal a brute-force scan",
            [e for q, a in zip(w.queries, answers) for e in checks.neighbor_errors(a, q, NEIGHBOR_K, bf)])
    missing = checks.missing_records(records, w.disambig_terms)
    r.failed += len(missing)
    r.check("every listed term is disambiguated", missing)
    r.check("disambiguation records are sound",
            [e for rec in records for e in checks.record_errors(rec, bf, cfg)])
    oracle_errors = []
    for term in w.oracle_terms:
        cohort = build_cohort(space, term, cfg.cohort_min_sim, cfg.cohort_cap)
        units = cohort_units(space, cohort)
        state = init_clusters(cohort, gram_of_units(units), units=units)
        pairs = [s.merged_pair for s in cluster_trajectory(state)]
        oracle_pairs, _ = agglomerate(np.stack([bf.unit(m) for m in cohort.members]))
        oracle_errors += [f"{term}: {e}" for e in checks.merge_sequence_errors(pairs, oracle_pairs)]
    r.check(f"merge sequences equal the oracle on {len(w.oracle_terms)} cohorts", oracle_errors)
    if w.planted:
        r.check("planted senses recovered at criterion-4 rates", checks.planted_errors(records, w.planted))
        r.check("sampled context terms not split", checks.split_errors(records, w.unsplit_terms))
    if w.replay_terms:
        context = checks.replay_context(w.stages, counts, w.replay_terms, ingest.min_count,
                                        ingest.max_doc_frequency, space_cfg.radius)
        scheme = space_cfg.seed_scheme
        r.check(f"sums and events of {len(w.replay_terms)} terms equal a plain replay",
                checks.replay_errors(space, context, lambda t: seed_vector(t, scheme)))
    timed()
    return r


def layer_metrics(tracer, docs_ingested: int, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer figures from the traced round; metrics of absent spans are None."""
    spans, counts = tracer.spans, tracer.counts

    def total(*names):
        return sum(spans[n].total for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n].self_time for n in names if n in spans)

    def calls(name):
        return spans[name].calls if name in spans else 0

    def ratio(a, b):
        return a / b if b else 0.0

    table = [
        ("ingest.scan_s", "s", ["ingest.scan_frequencies"], lambda: self_s("ingest.scan_frequencies")),
        ("ingest.tokenize_s", "s", ["ingest.token_segments"], lambda: total("ingest.token_segments")),
        ("ingest.tokenize_per_doc", "calls/doc", ["ingest.token_segments"],
         lambda: ratio(calls("ingest.token_segments"), docs_ingested)),
        ("seeds.generated", "count", ["seeds.seed_vector"], lambda: calls("seeds.seed_vector")),
        ("seeds.generate_s", "s", ["seeds.seed_vector"], lambda: total("seeds.seed_vector")),
        ("space.refresh_active_s", "s", ["space.SemanticSpace.refresh_active"],
         lambda: self_s("space.SemanticSpace.refresh_active")),
        ("space.accumulate_s", "s", ["space.build", "space.update"],
         lambda: self_s("space.build", "space.update")),
        ("space.neighbors_ms", "ms", ["space.SemanticSpace.neighbors"],
         lambda: 1000 * ratio(total("space.SemanticSpace.neighbors"), calls("space.SemanticSpace.neighbors"))),
        ("space.unit_rows_calls", "count", ["space.SemanticSpace.nonzero_unit_rows"],
         lambda: calls("space.SemanticSpace.nonzero_unit_rows")),
        ("space.unit_rows_bytes", "bytes", ["space.SemanticSpace.nonzero_unit_rows"],
         lambda: counts["space.unit_rows_bytes"]),
        ("space.unit_rows_s", "s", ["space.SemanticSpace.nonzero_unit_rows"],
         lambda: total("space.SemanticSpace.nonzero_unit_rows")),
        ("cohort.build_s", "s", ["cohort.build_cohort"], lambda: self_s("cohort.build_cohort")),
        ("cohort.members_mean", "count", ["cohort.build_cohort"],
         lambda: ratio(counts["cohort.members"], calls("cohort.build_cohort"))),
        ("cohort.capped", "count", ["cohort.build_cohort"], lambda: counts["cohort.capped"]),
        ("cohort.gram_s", "s", ["cohort.cohort_units", "cohort.gram_of_units"],
         lambda: total("cohort.cohort_units", "cohort.gram_of_units")),
        ("disambig.merges", "count", ["disambig.merge_closest"], lambda: calls("disambig.merge_closest")),
        ("disambig.merges_per_term", "count", ["disambig.merge_closest", "disambig.disambiguate"],
         lambda: ratio(calls("disambig.merge_closest"), calls("disambig.disambiguate"))),
        ("disambig.merge_s", "s", ["disambig.merge_closest"], lambda: total("disambig.merge_closest")),
        ("disambig.evaluate_s", "s", ["disambig.evaluate_level"], lambda: total("disambig.evaluate_level")),
        ("disambig.senses_s", "s", ["disambig.disambiguate"], lambda: self_s("disambig.disambiguate")),
        ("storage.save_s", "s", ["storage.save_index"], lambda: total("storage.save_index")),
        ("storage.load_s", "s", ["storage.load_index"], lambda: total("storage.load_index")),
        ("storage.checksum_s", "s", ["storage.crc64"], lambda: total("storage.crc64")),
        ("storage.checksum_bytes", "bytes", ["storage.crc64"], lambda: counts["storage.checksum_bytes"]),
        ("storage.serialize_s", "s", ["storage.save_index"], lambda: self_s("storage.save_index")),
        ("storage.parse_s", "s", ["storage.load_index"], lambda: self_s("storage.load_index")),
        ("storage.bytes_written", "bytes", ["storage.save_index"], lambda: counts["storage.bytes_written"]),
        ("storage.bytes_read", "bytes", ["storage.load_index"], lambda: counts["storage.bytes_read"]),
    ]
    out = {}
    for name, unit, needs, value in table:
        if any(n in tracer.absent for n in needs):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value(), "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    out["trace.overhead_pct"] = {"value": 100.0 * ratio(overhead_s, untraced_s), "unit": "%"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("senses", "stream", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds repeat until their timed work reaches this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "risp" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: no risp sources under {SRC} (or no {TESTS / 'oracles.py'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    # One process, no worker pool, one BLAS thread: the library's BLAS calls
    # are small matrix-vector and cohort-sized products, where a second
    # thread measurably widened the run-to-run spread on a 2-core machine.
    # numpy's transparent-huge-page hint is off: whether the kernel can
    # grant huge pages depends on the machine's memory fragmentation, and it
    # changed the time of a 50 MB array copy by 2.5x from run to run.
    for var, value in PINNED_ENV.items():
        os.environ[var] = value
    allocator = _keep_freed_memory()
    sys.path[:0] = [str(SRC), str(TESTS), str(Path(__file__).resolve().parent)]
    import numpy as np

    import checks
    import corpora
    import risp
    from spans import Tracer

    if Path(risp.__file__).resolve().parent != (SRC / "risp").resolve():
        print(f"error: imported risp from {risp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            w = corpora.MAKERS[args.workload](workdir, args.seed)
            setup_s.append(time.perf_counter() - start)
        counts = checks.independent_counts(w.stages)

        rounds = []
        while not rounds or sum(r.work_s for r in rounds) < args.seconds:
            rounds.append(run_round(w, counts, workdir))
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(w, counts, workdir, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    delta_tokens = sum(w.stage_tokens[1:])
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "build_tokens_per_s": (statistics.median([w.stage_tokens[0] / r.build_s for r in rounds]), "tokens/s"),
        "update_tokens_per_s": (statistics.median([delta_tokens / r.update_s for r in rounds]), "tokens/s"),
        "index_load_s": (statistics.median([t for r in rounds for t in r.load_s]), "s"),
        "neighbors_per_s": (len(w.queries) // w.chunks
                            / statistics.median([t for r in rounds for t in r.neighbors_s]), "queries/s"),
        "disambig_terms_per_s": (statistics.median([n / t for r in rounds
                                                    for n, t in zip(r.disambig_done, r.disambig_s)]), "terms/s"),
        "index_bytes": (rounds[0].index_bytes, "bytes"),
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
    }

    all_rounds = rounds + ([traced] if traced else [])
    verdicts: dict[str, list[str]] = {}
    for r in all_rounds:
        for name, errors in r.checks:
            verdicts.setdefault(name, []).extend(errors)
    count_checks = [n for n in verdicts if n.startswith("stored counts")]
    correct = all(not errors for name, errors in verdicts.items() if name not in count_checks)
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)

    print(f"workload {w.name}, seed {args.seed}: {len(rounds)} round(s), "
          f"{sum(r.work_s for r in rounds):.2f} s timed work; corpus tokens "
          f"{w.stage_tokens[0]} base + {delta_tokens} in {len(w.stages) - 1} update(s)")
    print(f"environment: nproc {_nproc()}, python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, numpy huge pages off, {allocator}, "
          f"{len(setup_s)} set-ups")
    for name, errors in verdicts.items():
        print(f"check {'PASS' if not errors else 'FAIL'}: {name}"
              + (f" ({len(errors)} errors; first: {errors[0]})" if errors else ""))
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed")

    if traced is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    else:
        untraced = statistics.median([r.work_s for r in rounds])
        docs = sum(w.stage_docs)
        metrics = layer_metrics(tracer, docs, traced.work_s - untraced, untraced)
        print(f"traced round {traced.work_s:.3f} s vs untraced {untraced:.3f} s; absent spans: "
              f"{', '.join(tracer.absent) or 'none'}")
        print(f"{'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for row in tracer.table():
            print(f"{row['span']:44s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for name, m in metrics.items():
            print(f"layer {name} = {m['value'] if m['value'] is None else format(m['value'], '.6g')} {m['unit']}")
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{w.name}-seed{args.seed}.json").write_text(
            json.dumps({"spans": tracer.table(), "counts": dict(tracer.counts),
                        "absent": tracer.absent, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
