"""Self-test of the benchmark's checks: none of them may pass vacuously.

Usage (from the repository root): ``python3 bench/selftest.py``

Each check first sees a sound input taken from a small real space and must
accept it, then sees the same input with one deliberate fault and must
reject it. Prints one line per case and exits 1 if any case misbehaves.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from oracles import agglomerate  # noqa: E402
from planted import planted_corpus  # noqa: E402
from risp import (DisambigConfig, IngestConfig, SpaceConfig, build, disambiguate,  # noqa: E402
                  load_index, save_index, update)
from risp.cohort import build_cohort, cohort_units, gram_of_units  # noqa: E402
from risp.disambig import cluster_trajectory, init_clusters  # noqa: E402
from risp.seeds import seed_vector  # noqa: E402

FAILURES: list[str] = []


def case(name: str, sound: list[str], broken: list[str]) -> None:
    ok = not sound and bool(broken)
    print(f"selftest {'PASS' if ok else 'FAIL'}: {name}"
          + (f" ({broken[0]})" if ok else f" (sound input gave {sound[:2]}, broken input gave {broken[:2]})"))
    if not ok:
        FAILURES.append(name)


def replace_level(record, k, **changes):
    levels = tuple(dataclasses.replace(lv, **changes) if lv.k == k else lv for lv in record.levels)
    return dataclasses.replace(record, levels=levels)


def main() -> int:
    rng = np.random.default_rng(7)
    docs, pseudo, vocabs = planted_corpus(rng, 2, n_context=20, occurrences=120,
                                          background_tokens=20_000)
    half = len(docs) // 2
    ingest = IngestConfig(min_count=5, max_doc_frequency=0.5)
    space_cfg = SpaceConfig.create()
    cfg = DisambigConfig()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "base.txt", Path(tmp) / "delta.txt"]
        paths[0].write_text("\n".join(docs[:half]) + "\n", encoding="utf-8")
        paths[1].write_text("\n".join(docs[half:]) + "\n", encoding="utf-8")
        counts = checks.independent_counts(paths)
        index = Path(tmp) / "index.risp"
        save_index(build(paths[0], ingest, space_cfg), index)
        space = load_index(index)
        update(space, paths[1])
        save_index(space, index)
        space = load_index(index)

        # Stored counts: one term's count off by one.
        bad = dataclasses.replace(counts[1], total=Counter(counts[1].total))
        bad.total[pseudo] += 1
        case("count check rejects a perturbed count",
             checks.count_errors(space.freq, counts[1]), checks.count_errors(space.freq, bad))

        # Repeated loads: a state that differs by one folded-in document.
        same = [checks.state_digest(load_index(index)) for _ in range(2)]
        changed = update(load_index(index), [docs[0]])
        case("load check rejects a changed state", checks.digest_errors(same),
             checks.digest_errors(same + [checks.state_digest(changed)]))

        # Sums and events: replay with one context occurrence moved to another term.
        context = checks.replay_context(paths, counts, [pseudo], ingest.min_count,
                                        ingest.max_doc_frequency, space_cfg.radius)
        seed_of = lambda t: seed_vector(t, space_cfg.seed_scheme)  # noqa: E731
        moved = {pseudo: Counter(context[pseudo])}
        first, second = sorted(moved[pseudo])[:2]
        moved[pseudo][first] -= 1
        moved[pseudo][second] += 1
        extra = {pseudo: context[pseudo] + Counter({first: 1})}
        case("replay check rejects a moved context occurrence",
             checks.replay_errors(space, context, seed_of), checks.replay_errors(space, moved, seed_of))
        case("replay check rejects an extra context event",
             checks.replay_errors(space, context, seed_of), checks.replay_errors(space, extra, seed_of))

    bf = checks.BruteForce(space)

    # Neighbors: two adjacent answers swapped, and one similarity off.
    answer = space.neighbors(pseudo, 10)
    swapped = [answer[0], answer[2], answer[1]] + answer[3:]
    case("neighbors check rejects a swapped neighbor",
         checks.neighbor_errors(answer, pseudo, 10, bf), checks.neighbor_errors(swapped, pseudo, 10, bf))
    shifted = answer[:-1] + [(answer[-1][0], answer[-1][1] + 1e-6)]
    case("neighbors check rejects a wrong similarity",
         checks.neighbor_errors(answer, pseudo, 10, bf), checks.neighbor_errors(shifted, pseudo, 10, bf))

    # Disambiguation records.
    record = disambiguate(space, pseudo, cfg)
    level2 = next(lv for lv in record.levels if lv.k == 2)
    a, b = level2.senses
    traded = (dataclasses.replace(a, members=a.members[:-1]),
              dataclasses.replace(b, members=b.members + a.members[-1:]))
    sound = checks.record_errors(record, bf, cfg)
    case("record check rejects a member moved between senses",
         sound, checks.record_errors(replace_level(record, 2, senses=traded), bf, cfg))
    case("record check rejects a dropped member",
         sound, checks.record_errors(replace_level(record, 2, senses=(a, dataclasses.replace(b, members=b.members[1:]))), bf, cfg))
    case("record check rejects a flipped validity",
         sound, checks.record_errors(replace_level(record, 2, valid=not level2.valid), bf, cfg))
    case("record check rejects a wrong default level",
         sound, checks.record_errors(dataclasses.replace(record, default_level=None), bf, cfg))

    # Planted recovery: the two senses' vocabularies mixed half and half.
    planted = {pseudo: vocabs}
    half_a, half_b = len(a.members) // 2, len(b.members) // 2
    mixed = (dataclasses.replace(a, members=a.members[:half_a] + b.members[:half_b]),
             dataclasses.replace(b, members=b.members[half_b:] + a.members[half_a:]))
    case("planted check rejects a sense mixing two vocabularies",
         checks.planted_errors([record], planted),
         checks.planted_errors([replace_level(record, 2, senses=mixed)], planted))

    # Unsplit terms: a context term reported with two senses.
    context_term = sorted(vocabs[0])[0]
    mono = disambiguate(space, context_term, cfg)
    case("split check rejects a split context term",
         checks.split_errors([mono], [context_term]),
         checks.split_errors([dataclasses.replace(mono, default_level=2)], [context_term]))
    case("missing-record check rejects a skipped term",
         checks.missing_records([record, mono], [pseudo, context_term]),
         checks.missing_records([record], [pseudo, context_term]))

    # Merge sequence: the program's sequence with two merges swapped.
    cohort = build_cohort(space, pseudo, cfg.cohort_min_sim, cfg.cohort_cap)
    units = cohort_units(space, cohort)
    pairs = [s.merged_pair for s in cluster_trajectory(init_clusters(cohort, gram_of_units(units), units=units))]
    oracle_pairs, _ = agglomerate(np.stack([bf.unit(m) for m in cohort.members]))
    step = next(i for i in range(len(pairs) - 1) if pairs[i] != pairs[i + 1])
    swapped_pairs = pairs[:step] + [pairs[step + 1], pairs[step]] + pairs[step + 2:]
    case("merge check rejects a sequence with one pair swapped",
         checks.merge_sequence_errors(pairs, oracle_pairs),
         checks.merge_sequence_errors(swapped_pairs, oracle_pairs))

    print(f"selftest: {len(FAILURES)} failing case(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
