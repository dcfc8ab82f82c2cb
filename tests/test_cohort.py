"""Cohort membership, gram matrices, and the fixture file format."""

import numpy as np
import pytest

from conftest import random_units
from risp.cohort import (
    Cohort,
    build_cohort,
    cohort_units,
    gram_of_units,
    load_gram_fixture,
    save_gram_fixture,
)


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
