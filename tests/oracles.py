"""Slow reference implementations used to cross-check the fast paths.

Everything here recomputes from scratch at every step, the opposite of the
closed-form updates in the library, so agreement between the two is real
evidence rather than the same code running twice.
"""

import numpy as np


def centroid_gram(clusters, units):
    """Normalized centroid similarity matrix, recomputed from raw vectors."""
    sums = np.stack([units[list(c)].sum(axis=0) for c in clusters])
    norms = np.linalg.norm(sums, axis=1)
    gram = (sums @ sums.T) / np.outer(norms, norms)
    np.fill_diagonal(gram, 1.0)
    return gram


def best_pair(gram):
    """Most similar off-diagonal pair; ties go to the lowest (row, col)."""
    n = gram.shape[0]
    best, best_sim = None, -np.inf
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i, j] > best_sim:
                best, best_sim = (i, j), gram[i, j]
    return best, best_sim


def agglomerate(units):
    """Centroid agglomeration with full recomputation at every step.

    Returns (pairs, grams): the merge chosen at each step in pre-merge
    cluster indices, and a {cluster_count: gram} map covering every level
    reached on the way down to a single cluster.
    """
    units = np.asarray(units, dtype=np.float64)
    clusters = [[i] for i in range(len(units))]
    pairs = []
    grams = {len(clusters): centroid_gram(clusters, units)}
    while len(clusters) > 1:
        (i, j), _ = best_pair(grams[len(clusters)])
        pairs.append((i, j))
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
        grams[len(clusters)] = centroid_gram(clusters, units)
    return pairs, grams


def accumulate_naive(tokens, active, seed_of, dim, radius):
    """Per-token window accumulation with plain Python loops.

    ``active`` is the set of terms that may accumulate or contribute;
    ``seed_of`` maps a term to its seed vector. Returns ({term: sum},
    {term: event count}) over the active terms that occur in ``tokens``.
    """
    sums = {}
    events = {}
    for pos, term in enumerate(tokens):
        if term not in active:
            continue
        lo = max(0, pos - radius)
        hi = min(len(tokens), pos + radius + 1)
        for other_pos in range(lo, hi):
            if other_pos == pos:
                continue
            other = tokens[other_pos]
            if other not in active:
                continue
            if term not in sums:
                sums[term] = np.zeros(dim)
                events[term] = 0
            sums[term] += seed_of(other)
            events[term] += 1
    return sums, events


def scores(space, query):
    """(term, similarity to ``query``) of every term with context, in vocabulary order.

    ``query`` is a term, scored 1.0 against itself, or a vector. Sums are read
    back through ``term_vector`` and normalized with the space's own
    arithmetic, so the scores equal the space's bit for bit; the ranking
    built on them by the caller is a plain full sort.
    """
    names = space.terms()
    sums = np.zeros((0, space.config.dim))
    if names:
        sums = np.stack([space.term_vector(t).sum for t in names])
    norms = np.linalg.norm(sums, axis=1)
    keep = norms > 0
    units = sums[keep] * (1.0 / norms[keep])[:, None]
    names = [name for name, kept in zip(names, keep) if kept]
    is_term = isinstance(query, str)
    vec = units[names.index(query)] if is_term else query / float(np.linalg.norm(query))
    return [(name, 1.0 if is_term and name == query else float(sim))
            for name, sim in zip(names, units @ vec)]


def by_rank(pairs):
    """(term, similarity) pairs sorted by descending similarity, then by term."""
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
