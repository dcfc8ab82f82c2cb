"""Correctness checks of the benchmark, each computed apart from the program.

Every check takes the program's output plus an independent reference and
returns a list of error strings (empty = pass). References are recomputed
here from the corpus files or from the stored vectors: ``str.split`` plus
``Counter`` for corpus counts, a brute-force scan for neighbors and cohorts,
a plain Python replay for context sums, and the recompute-everything
clustering oracle in tests/oracles.py for merge sequences. Nothing is
compared with a stored copy of an earlier run's output.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Similarities computed by two summation orders agree to about 1e-15; these
# tolerances only absorb that rounding, never a real difference.
SIM_TOL = 1e-9
SUM_COS_TOL = 1e-9
SUM_NORM_RTOL = 1e-5  # stored sums round-trip through float32
PURITY = 0.90
# Planted-recovery rates demanded by acceptance criterion 4, per sense count.
PLANTED_RATES = {2: 0.95, 3: 0.80, 4: 0.80}


@dataclass
class StageCounts:
    """Cumulative corpus counts after one stage, counted with str.split."""

    total: Counter
    docs: Counter
    n_docs: int
    n_tokens: int


def independent_counts(paths) -> list[StageCounts]:
    """Cumulative term and document counts after each corpus file in turn."""
    total: Counter = Counter()
    docs: Counter = Counter()
    n_docs = n_tokens = 0
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                total.update(tokens)
                docs.update(set(tokens))
                n_docs += 1
                n_tokens += len(tokens)
        out.append(StageCounts(Counter(total), Counter(docs), n_docs, n_tokens))
    return out


def count_errors(freq, expected: StageCounts) -> list[str]:
    """Per-term corpus and document counts of a space's table versus the reference.

    ``freq`` is the program's FrequencyTable. Returns one entry per term
    whose counts differ, plus one for each differing corpus total.
    """
    errors = []
    if freq.total_docs != expected.n_docs:
        errors.append(f"total_docs {freq.total_docs} != {expected.n_docs}")
    if freq.total_tokens != expected.n_tokens:
        errors.append(f"total_tokens {freq.total_tokens} != {expected.n_tokens}")
    for term in set(freq.total) | set(expected.total):
        got = (freq.total.get(term, 0), freq.docs.get(term, 0))
        want = (expected.total.get(term, 0), expected.docs.get(term, 0))
        if got != want:
            errors.append(f"{term}: count/docs {got} != {want}")
    return sorted(errors)


def state_digest(space) -> str:
    """A hash of everything a load restores: terms, counters, sums, table."""
    h = hashlib.blake2b(digest_size=16)
    for term in space.terms():
        record = space.term_vector(term)
        h.update(term.encode())
        h.update(record.sum.tobytes())
        h.update(f"{record.frequency},{record.doc_count},{record.context_events}".encode())
    h.update(repr(sorted(space.freq.total.items())).encode())
    h.update(repr(sorted(space.freq.docs.items())).encode())
    return h.hexdigest()


def digest_errors(digests) -> list[str]:
    """Repeated loads of one file must restore one state."""
    distinct = len(set(digests))
    return [] if distinct == 1 else [f"{distinct} distinct states over {len(digests)} loads"]


class BruteForce:
    """Unit vectors of every vocabulary term, rebuilt from the stored sums."""

    def __init__(self, space):
        self.names = space.terms()
        self.row = {t: i for i, t in enumerate(self.names)}
        sums = np.stack([space.term_vector(t).sum for t in self.names]) if self.names else np.zeros((0, 1))
        norms = np.linalg.norm(sums, axis=1)
        self.nonzero = norms > 0
        self.units = np.divide(sums, norms[:, None], out=np.zeros_like(sums),
                               where=self.nonzero[:, None])

    def sims(self, term: str) -> np.ndarray:
        sims = self.units @ self.units[self.row[term]]
        sims[self.row[term]] = 1.0
        return sims

    def ranked(self, term: str, floor: float = -np.inf):
        """(name, sim) of every nonzero term with sim >= floor, by descending sim then name."""
        sims = self.sims(term)
        keep = np.nonzero(self.nonzero & (sims >= floor))[0]
        return sorted(((self.names[i], float(sims[i])) for i in keep),
                      key=lambda pair: (-pair[1], pair[0]))

    def unit(self, term: str) -> np.ndarray:
        return self.units[self.row[term]]


def neighbor_errors(answer, query: str, k: int, bf: BruteForce) -> list[str]:
    """An answer of neighbors(query, k) against the brute-force ranking."""
    sims = bf.sims(query)
    candidates = sims[bf.nonzero]
    kth = np.partition(candidates, len(candidates) - k)[len(candidates) - k] if len(candidates) > k else -np.inf
    want = bf.ranked(query, kth - SIM_TOL)[:k]
    if len(answer) != len(want):
        return [f"{query}: {len(answer)} neighbors, expected {len(want)}"]
    errors = []
    for pos, ((name, sim), (want_name, want_sim)) in enumerate(zip(answer, want)):
        exact = float(sims[bf.row[name]]) if name in bf.row and bf.nonzero[bf.row[name]] else None
        if exact is None or abs(exact - sim) > SIM_TOL:
            errors.append(f"{query}: neighbor {pos} {name} has sim {sim}, scan says {exact}")
        elif name != want_name and abs(sim - want_sim) > SIM_TOL:
            errors.append(f"{query}: neighbor {pos} is {name}, scan ranks {want_name} there")
    return errors


def brute_cohort(bf: BruteForce, term: str, min_sim: float, cap: int):
    """The cohort a brute-force scan admits: (certain members, boundary ties)."""
    ranked = bf.ranked(term, min_sim - SIM_TOL)
    if len(ranked) > cap:
        floor = ranked[cap - 1][1]
    else:
        floor = min_sim
    certain = {n for n, s in ranked if s > floor + SIM_TOL and s >= min_sim + SIM_TOL}
    certain.add(term)
    ties = {n for n, s in ranked if n not in certain and abs(s - floor) <= SIM_TOL}
    if len(ranked) <= cap:
        ties |= {n for n, s in ranked if n not in certain}
    return certain, ties


def _centroid_max_sim(senses, bf: BruteForce) -> float:
    vecs = []
    for sense in senses:
        total = sum(bf.unit(m) for m in sense.members)
        vecs.append(total / np.linalg.norm(total))
    vecs = np.array(vecs)
    gram = vecs @ vecs.T
    return float(gram[np.triu_indices(len(vecs), 1)].max())


def record_errors(record, bf: BruteForce, cfg) -> list[str]:
    """Structural soundness of one disambiguation record.

    At every evaluated level the senses partition the brute-force cohort;
    a level is valid exactly when its recomputed largest intercluster
    similarity is below the threshold; the default level is the largest
    valid one; every reachable level is evaluated.
    """
    term = record.term
    errors = []
    certain, ties = brute_cohort(bf, term, cfg.cohort_min_sim, cfg.cohort_cap)
    valid_levels = []
    for level in record.levels:
        if not level.evaluated:
            if level.k <= len(certain):
                errors.append(f"{term}: level {level.k} reachable but not evaluated")
            continue
        members = [m for s in level.senses for m in s.members]
        if len(level.senses) != level.k:
            errors.append(f"{term}: level {level.k} has {len(level.senses)} senses")
        if len(set(members)) != len(members):
            errors.append(f"{term}: level {level.k} senses overlap")
        got = set(members)
        if not certain <= got or not got <= certain | ties or len(got) > cfg.cohort_cap:
            errors.append(f"{term}: level {level.k} senses do not partition the cohort "
                          f"(missing {sorted(certain - got)[:3]}, extra {sorted(got - certain - ties)[:3]})")
            continue
        max_sim = _centroid_max_sim(level.senses, bf)
        if abs(max_sim - level.max_intercluster_sim) > 1e-7:
            errors.append(f"{term}: level {level.k} max intercluster sim "
                          f"{level.max_intercluster_sim} != recomputed {max_sim}")
        near = abs(max_sim - cfg.separation_threshold) <= SIM_TOL
        if not near and level.valid != (max_sim < cfg.separation_threshold):
            errors.append(f"{term}: level {level.k} valid={level.valid} but max sim {max_sim}")
        if level.valid:
            valid_levels.append(level.k)
    want_default = max(valid_levels) if valid_levels else None
    if record.default_level != want_default:
        errors.append(f"{term}: default level {record.default_level}, largest valid is {want_default}")
    return errors


def merge_sequence_errors(program_pairs, oracle_pairs) -> list[str]:
    """The program's merge sequence against the clustering oracle's."""
    if len(program_pairs) != len(oracle_pairs):
        return [f"{len(program_pairs)} merges, oracle made {len(oracle_pairs)}"]
    for step, (got, want) in enumerate(zip(program_pairs, oracle_pairs)):
        if tuple(got) != tuple(want):
            return [f"merge {step}: program merged {tuple(got)}, oracle {tuple(want)}"]
    return []


def purity(members, vocabs) -> float:
    """Largest share of ``members`` drawn from any one planted vocabulary."""
    return max(sum(1 for m in members if m in vocab) for vocab in vocabs) / len(members)


def planted_wins(records, planted) -> dict[int, tuple[int, int]]:
    """Per sense count G: (pseudowords recovered, pseudowords planted).

    Recovered means level K=G was evaluated and valid and every sense there
    is at least 90% pure.
    """
    by_term = {r.term: r for r in records}
    tally: dict[int, list[int]] = {}
    for pseudo, vocabs in planted.items():
        g = len(vocabs)
        wins_total = tally.setdefault(g, [0, 0])
        wins_total[1] += 1
        record = by_term.get(pseudo)
        level = None if record is None else next((lv for lv in record.levels if lv.k == g), None)
        if (level is not None and level.evaluated and level.valid
                and all(purity(s.members, vocabs) >= PURITY for s in level.senses)):
            wins_total[0] += 1
    return {g: (w, n) for g, (w, n) in sorted(tally.items())}


def planted_errors(records, planted) -> list[str]:
    errors = []
    for g, (wins, total) in planted_wins(records, planted).items():
        if wins < PLANTED_RATES[g] * total:
            errors.append(f"G={g}: recovered {wins}/{total}, need {PLANTED_RATES[g]:.0%}")
    return errors


def missing_records(records, terms) -> list[str]:
    """Listed terms that batch disambiguation skipped."""
    done = {r.term for r in records}
    return [f"{t}: no record" for t in terms if t not in done]


def split_errors(records, terms) -> list[str]:
    """Terms planted with a single sense must come out monosemous."""
    by_term = {r.term: r for r in records}
    return [f"{t}: split at level {by_term[t].default_level}"
            for t in terms if t in by_term and by_term[t].default_level is not None]


def replay_context(paths, stage_counts, terms, min_count, max_doc_frequency, radius):
    """Plain-loop replay of window accumulation for ``terms``.

    Stage by stage, a term is active when its cumulative count reaches
    ``min_count`` and its cumulative document frequency is at most
    ``max_doc_frequency``; an active target collects every active token
    within ``radius`` of it. Returns {term: Counter of context terms}.
    """
    targets = set(terms)
    context = {t: Counter() for t in terms}
    for path, counts in zip(paths, stage_counts):

        def active(term, counts=counts):
            return (counts.total[term] >= min_count
                    and counts.docs[term] / counts.n_docs <= max_doc_frequency)

        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                for pos, term in enumerate(tokens):
                    if term not in targets or not active(term):
                        continue
                    for other_pos in range(max(0, pos - radius), min(len(tokens), pos + radius + 1)):
                        if other_pos != pos and active(tokens[other_pos]):
                            context[term][tokens[other_pos]] += 1
    return context


def replay_errors(space, context, seed_of) -> list[str]:
    """Stored sums and context events against the replayed contexts."""
    errors = []
    for term, ctx in context.items():
        events = sum(ctx.values())
        if term not in space:
            if events:
                errors.append(f"{term}: missing, replay has {events} events")
            continue
        record = space.term_vector(term)
        if record.context_events != events:
            errors.append(f"{term}: {record.context_events} events, replay has {events}")
            continue
        want = np.zeros_like(record.sum)
        for other, n in ctx.items():
            want += n * seed_of(other)
        got_norm, want_norm = float(np.linalg.norm(record.sum)), float(np.linalg.norm(want))
        if want_norm == 0.0 or got_norm == 0.0:
            if got_norm != want_norm:
                errors.append(f"{term}: norm {got_norm}, replay {want_norm}")
            continue
        cos = float(record.sum @ want) / (got_norm * want_norm)
        if cos < 1.0 - SUM_COS_TOL or abs(got_norm / want_norm - 1.0) > SUM_NORM_RTOL:
            errors.append(f"{term}: cosine {cos:.15f}, norm ratio {got_norm / want_norm:.9f}")
    return errors
