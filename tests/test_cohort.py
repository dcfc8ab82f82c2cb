"""Cohort membership, gram matrices, and the fixture file format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_units
from oracles import by_rank, scores
from risp import IngestConfig, SemanticSpace, SpaceConfig, build
from risp.cohort import (
    Cohort,
    build_cohort,
    cohort_units,
    gram_of_units,
    load_gram_fixture,
    save_gram_fixture,
)
from risp.errors import ZeroVectorError


class TestBuildCohort:
    def test_target_comes_first_at_exactly_one(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=0.2)
        assert cohort.target == "mantle"
        assert cohort.members[0] == "mantle"
        assert cohort.sims_to_target[0] == 1.0

    def test_membership_respects_the_threshold(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=0.3)
        members = set(cohort.members) - {"mantle"}
        for term in members:
            assert tiny_space.similarity("mantle", term) >= 0.3
        names, _ = tiny_space.nonzero_unit_rows()
        for term in set(names) - set(cohort.members):
            assert tiny_space.similarity("mantle", term) < 0.3

    def test_sorted_by_descending_similarity(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=-1.0)
        sims = list(cohort.sims_to_target)
        assert sims == sorted(sims, reverse=True)

    def test_cap_keeps_the_most_similar(self, tiny_space):
        full = build_cohort(tiny_space, "mantle", min_sim=-1.0)
        capped = build_cohort(tiny_space, "mantle", min_sim=-1.0, cap=4)
        assert len(capped) == 4
        assert capped.members == full.members[:4]

    def test_tight_threshold_still_includes_the_target(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=1.0)
        assert "mantle" in cohort.members

    def test_rejects_bad_parameters(self, tiny_space):
        with pytest.raises(ValueError):
            build_cohort(tiny_space, "mantle", cap=0)
        with pytest.raises(ValueError):
            build_cohort(tiny_space, "mantle", min_sim=1.5)


@st.composite
def tied_spaces(draw):
    """A small space with sums written directly: small-integer rows, exact twins, zero rows.

    Twin rows make exactly equal scores, so the lexicographic tie break and
    the cut through a run of ties are both exercised.
    """
    dim = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    rows += [[0] * dim] * draw(st.integers(0, 2))
    names = draw(st.permutations([f"t{i:02d}" for i in range(len(rows))]))
    space = SemanticSpace(SpaceConfig.create(dim=dim))
    space._add_terms(names)
    space._sums[:] = np.array(rows, dtype=np.float64)
    return space


class TestRankingAgainstAFullSort:
    @given(space=tied_spaces(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_neighbors_and_cohorts_equal_a_full_sort(self, space, data):
        names, _ = space.nonzero_unit_rows()
        for term in set(space.terms()) - set(names):
            with pytest.raises(ZeroVectorError):
                space.neighbors(term, 1)
        k = data.draw(st.integers(1, len(names) + 2), label="k")
        dim = space.config.dim
        vec = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
                                 .filter(any), label="vector"), dtype=np.float64)
        assert space.neighbors(vec, k) == by_rank(scores(space, vec))[:k]
        if not names:
            return
        term = data.draw(st.sampled_from(names), label="term")
        pairs = scores(space, term)
        assert space.neighbors(term, k) == by_rank(pairs)[:k]
        bounded = [sim for _, sim in pairs if -1.0 <= sim <= 1.0]
        min_sim = data.draw(st.sampled_from(bounded) | st.floats(-1.0, 1.0), label="min_sim")
        cohort = build_cohort(space, term, min_sim, cap=k)
        want = by_rank([(name, sim) for name, sim in pairs if sim >= min_sim])[:k]
        assert list(zip(cohort.members, cohort.sims_to_target)) == want


def test_cohorts_allocate_far_less_than_the_unit_matrix():
    """Cost contract: a warm cohort scan copies no (V, dim) matrix."""
    rng = np.random.default_rng(14)
    words = [f"w{i:04d}" for i in range(1000)]
    docs = [" ".join(rng.choice(words, 60)) for _ in range(300)]
    permissive = IngestConfig(min_count=1, max_doc_frequency=1.0)
    space = build(docs, permissive, SpaceConfig.create(dim=64))
    terms = space.terms()
    build_cohort(space, terms[0])  # builds the unit cache, outside the trace
    tracemalloc.start()
    try:
        for term in terms[1:21]:
            build_cohort(space, term)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(terms) * space.config.dim * 8 / 4


class TestGram:
    def test_exactly_symmetric_with_unit_diagonal(self, rng):
        units = random_units(rng, 12, 40)
        gram = gram_of_units(units)
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(np.diag(gram), np.ones(12))

    def test_matches_pairwise_similarities(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=-1.0, cap=6)
        gram = gram_of_units(cohort_units(tiny_space, cohort))
        for i, a in enumerate(cohort.members):
            for j, b in enumerate(cohort.members):
                if i != j:
                    expected = tiny_space.similarity(a, b)
                    assert gram[i, j] == pytest.approx(expected, abs=1e-9)

    def test_units_stack_in_cohort_order(self, tiny_space):
        cohort = build_cohort(tiny_space, "mantle", min_sim=-1.0, cap=5)
        units = cohort_units(tiny_space, cohort)
        assert units.shape == (5, tiny_space.config.dim)
        assert np.allclose(units[0], tiny_space.unit_vector("mantle"))


class TestFixtureFormat:
    def test_round_trip(self, tmp_path, rng):
        labels = ["alpha", "beta", "gamma"]
        gram = gram_of_units(random_units(rng, 3, 10))
        path = tmp_path / "gram.txt"
        save_gram_fixture(path, labels, gram, decimals=9)
        got_labels, got = load_gram_fixture(path)
        assert got_labels == labels
        assert np.allclose(got, gram, atol=1e-9)

    def test_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_gram_fixture(path)
        path.write_text("not-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_gram_fixture(path)
        path.write_text("2\na\nb\n1.0 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_gram_fixture(path)
        path.write_text("2\na\nb\n1.0 0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_gram_fixture(path)


class TestMantleFixture:
    def test_shape_and_wellformedness(self, mantle_fixture):
        labels, gram = mantle_fixture
        assert len(labels) == 18
        assert labels[0] == "mantle"
        assert gram.shape == (18, 18)
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(np.diag(gram), np.ones(18))

    def test_spot_similarities(self, mantle_fixture):
        labels, gram = mantle_fixture
        at = {name: i for i, name in enumerate(labels)}
        assert gram[at["mantle"], at["stirrer"]] == pytest.approx(0.58, abs=1e-9)
        assert gram[at["stirrer"], at["thermometer"]] == pytest.approx(0.88, abs=1e-9)
        assert gram[at["mantle"], at["mcl"]] == pytest.approx(0.53, abs=1e-9)
        assert gram[at["waldenstrom"], at["waldenstroms"]] == pytest.approx(0.67, abs=1e-9)

    def test_cohort_object_wraps_the_fixture(self, mantle_fixture):
        labels, gram = mantle_fixture
        cohort = Cohort(target=labels[0], members=tuple(labels),
                        sims_to_target=tuple(gram[0]))
        assert len(cohort) == 18
        assert cohort.sims_to_target[0] == 1.0
