"""Agglomerative sense induction: merge mechanics, levels, and reports."""

import numpy as np
import pytest

from conftest import random_units
from oracles import agglomerate
from planted import cluster_purity, planted_corpus
from risp import IngestConfig, SpaceConfig, build
from risp.cohort import build_cohort, cohort_units, gram_of_units
from risp.disambig import (
    DisambigConfig,
    batch_disambiguate,
    cluster_trajectory,
    disambiguate,
    disambiguate_from_gram,
    evaluate_level,
    init_clusters,
    merge_closest,
    summarize,
)
from risp.errors import FrequencyBandError, UnknownTermError, ZeroVectorError

LYMPHOMA = {"mcl", "immunocytoma", "angioimmunoblastic",
            "waldenstrom", "burkitt", "waldenstroms"}


def planted_space(n_senses=2, seed=0, occurrences=80, background=30_000):
    rng = np.random.default_rng(seed)
    docs, pseudo, vocabs = planted_corpus(
        rng, n_senses, occurrences=occurrences, background_tokens=background
    )
    cfg = IngestConfig(min_count=5, max_doc_frequency=0.5)
    return build(docs, cfg, SpaceConfig.create()), pseudo, vocabs


@pytest.fixture(scope="module")
def planted():
    return planted_space(n_senses=2, seed=11)


@pytest.fixture(scope="module")
def planted_batch():
    return planted_space(n_senses=2, seed=23)


class TestMergeMechanics:
    def test_merged_similarity_follows_the_closed_form(self):
        # Two mutually orthogonal members, each at -0.3 to the third: the
        # orthogonal pair merges first and the merged centroid sits at
        # -0.3 * sqrt(2) to the remaining member.
        gram = np.array([
            [1.0, 0.0, -0.3],
            [0.0, 1.0, -0.3],
            [-0.3, -0.3, 1.0],
        ])
        state = merge_closest(init_clusters(["u", "v", "w"], gram))
        assert state.merged_pair == (0, 1)
        assert state.members == [("u", "v"), ("w",)]
        assert state.gram()[0, 1] == pytest.approx(-0.3 * np.sqrt(2.0), abs=1e-12)

    def test_ties_break_toward_the_lowest_row_then_column(self):
        gram = np.array([
            [1.0, 0.1, 0.3],
            [0.1, 1.0, 0.3],
            [0.3, 0.3, 1.0],
        ])
        state = merge_closest(init_clusters(["a", "b", "c"], gram))
        assert state.merged_pair == (0, 2)

    def test_closed_form_agrees_with_explicit_vectors(self, rng):
        units = random_units(rng, 10, 24)
        gram = gram_of_units(units)
        by_gram = init_clusters([f"m{i}" for i in range(10)], gram)
        by_sums = init_clusters([f"m{i}" for i in range(10)], gram, units=units)
        while by_gram.K > 1:
            by_gram = merge_closest(by_gram)
            by_sums = merge_closest(by_sums)
            assert by_gram.merged_pair == by_sums.merged_pair
            assert np.allclose(by_gram.gram(), by_sums.gram(), atol=1e-12)
            sums = np.stack([units[list(rows)].sum(axis=0) for rows in by_sums.origin])
            sums_gram = gram_of_units(sums / np.linalg.norm(sums, axis=1, keepdims=True))
            assert np.allclose(by_gram.gram(), sums_gram, atol=1e-9)

    def test_merge_and_evaluation_need_two_clusters(self):
        state = init_clusters(["only"], np.array([[1.0]]))
        with pytest.raises(ValueError):
            merge_closest(state)
        with pytest.raises(ValueError):
            evaluate_level(state, 0.175)

    def test_trajectory_runs_down_to_one_cluster(self, rng):
        units = random_units(rng, 7, 16)
        state = init_clusters([f"m{i}" for i in range(7)], gram_of_units(units))
        ks = [st.K for st in cluster_trajectory(state)]
        assert ks == [6, 5, 4, 3, 2, 1]

    def test_matches_the_recompute_everything_oracle(self, rng):
        for n in (2, 5, 9, 14):
            units = random_units(rng, n, 20)
            pairs, grams = agglomerate(units)
            state = init_clusters([f"m{i}" for i in range(n)], gram_of_units(units))
            assert np.allclose(state.gram(), grams[n], atol=1e-9)
            for expected in pairs:
                state = merge_closest(state)
                assert state.merged_pair == expected
                assert np.allclose(state.gram(), grams[state.K], atol=1e-6)


class TestEvaluateLevel:
    def flat_gram(self, off_diagonal):
        gram = np.full((3, 3), off_diagonal)
        np.fill_diagonal(gram, 1.0)
        return gram

    def test_threshold_is_strict(self):
        at = init_clusters(list("abc"), self.flat_gram(0.175))
        valid, max_sim = evaluate_level(at, 0.175)
        assert not valid
        assert max_sim == pytest.approx(0.175, abs=1e-12)
        below = init_clusters(list("abc"), self.flat_gram(0.17499))
        assert evaluate_level(below, 0.175) == (True, pytest.approx(0.17499))


class TestConfigValidation:
    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            DisambigConfig(levels=())
        with pytest.raises(ValueError):
            DisambigConfig(levels=(4, 1))

    def test_rejects_inverted_frequency_band(self):
        with pytest.raises(ValueError):
            DisambigConfig(min_freq=10, max_freq=5)

    def test_rejects_bad_labels_and_threshold(self):
        with pytest.raises(ValueError):
            DisambigConfig(label_len=0)
        with pytest.raises(ValueError):
            DisambigConfig(label_mode="emoji")
        with pytest.raises(ValueError):
            DisambigConfig(separation_threshold=0.0)


class TestMantleFixtureClustering:
    """Frozen behavior on the canned 18-term cohort."""

    @pytest.fixture()
    def result(self, mantle_fixture):
        labels, gram = mantle_fixture
        return disambiguate_from_gram(labels, gram)

    def test_only_the_two_way_split_is_valid(self, result):
        by_k = {lr.k: lr for lr in result.levels}
        assert set(by_k) == {4, 3, 2}
        assert all(lr.evaluated for lr in result.levels)
        assert not by_k[4].valid
        assert not by_k[3].valid
        assert by_k[2].valid
        assert result.default_level == 2

    def test_two_senses_split_disease_from_glassware(self, result):
        senses = result.senses
        assert len(senses) == 2
        partitions = {frozenset(s.members) for s in senses}
        assert frozenset(LYMPHOMA) in partitions
        glassware = next(p for p in partitions if p != frozenset(LYMPHOMA))
        assert "mantle" in glassware
        assert "stirrer" in glassware
        assert len(glassware) == 12

    def test_intercluster_similarities_at_each_level(self, result):
        by_k = {lr.k: lr for lr in result.levels}
        assert by_k[2].max_intercluster_sim == pytest.approx(0.138966269, abs=1e-9)
        assert by_k[3].max_intercluster_sim == pytest.approx(0.497815418, abs=1e-9)
        assert by_k[4].max_intercluster_sim == pytest.approx(0.524765831, abs=1e-9)

    def test_first_merge_is_the_most_similar_pair(self, mantle_fixture):
        labels, gram = mantle_fixture
        state = merge_closest(init_clusters(labels, gram))
        merged = next(m for m in state.members if len(m) == 2)
        assert set(merged) == {"stirrer", "thermometer"}

    def test_senses_are_ordered_by_parent_similarity(self, result):
        senses = result.senses
        assert senses[0].sim_to_parent > senses[1].sim_to_parent
        assert "mantle" in senses[0].members

    def test_labels_rank_members_by_centroid_similarity(self, result):
        for sense in result.senses:
            assert len(sense.label) <= 7
            assert set(sense.label) <= set(sense.members)

    def test_report_dictionary_shape(self, result):
        report = result.to_dict()
        assert report["term"] == "mantle"
        assert report["frequency"] is None
        assert report["default_level"] == 2
        ks = [entry["k"] for entry in report["levels"]]
        assert ks == [4, 3, 2]
        for entry in report["levels"]:
            assert "skipped" not in entry
            for sense in entry["senses"]:
                assert sense["sim_to_parent"] == round(sense["sim_to_parent"], 6)


class TestLevelBookkeeping:
    def test_unreachable_levels_are_reported_skipped(self, mantle_fixture):
        labels, gram = mantle_fixture
        cfg = DisambigConfig(levels=(30, 2))
        result = disambiguate_from_gram(labels, gram, cfg=cfg)
        by_k = {lr.k: lr for lr in result.levels}
        assert not by_k[30].evaluated
        assert by_k[30].max_intercluster_sim is None
        assert by_k[2].evaluated
        report = result.to_dict()
        assert report["levels"][0]["skipped"] is True

    def test_tight_cohort_means_monosemous(self):
        gram = np.full((6, 6), 0.9)
        np.fill_diagonal(gram, 1.0)
        result = disambiguate_from_gram([f"m{i}" for i in range(6)], gram)
        assert result.default_level is None
        assert result.senses == ()
        assert all(lr.evaluated and not lr.valid for lr in result.levels)

    def test_separation_can_get_worse_before_it_gets_better(self):
        # Five unit vectors built so the four-cluster level separates
        # better than the three-cluster one, while the two-cluster level
        # is perfectly clean: maxima run 0.643, 0.684, 0.0.
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
        assert all(lr.evaluated for lr in result.levels)
        assert by_k[3].max_intercluster_sim > by_k[4].max_intercluster_sim
        assert by_k[4].max_intercluster_sim == pytest.approx(np.cos(a50), abs=1e-12)
        assert by_k[2].max_intercluster_sim == pytest.approx(0.0, abs=1e-12)
        assert not by_k[4].valid and not by_k[3].valid and by_k[2].valid
        assert result.default_level == 2
        state = init_clusters(list("abcde"), gram_of_units(units))
        order = [st.merged_pair for st in cluster_trajectory(state)]
        assert order[:3] == [(0, 1), (0, 1), (0, 1)]


class TestGramInputValidation:
    def test_rejects_malformed_matrices(self):
        with pytest.raises(ValueError):
            disambiguate_from_gram(["a", "b"], np.ones((2, 3)))
        with pytest.raises(ValueError):
            disambiguate_from_gram([], np.zeros((0, 0)))
        asym = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            disambiguate_from_gram(["a", "b"], asym)
        bad_diag = np.array([[0.5, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            disambiguate_from_gram(["a", "b"], bad_diag)
        too_big = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError):
            disambiguate_from_gram(["a", "b"], too_big)

    def test_global_labels_need_a_space(self, mantle_fixture):
        labels, gram = mantle_fixture
        with pytest.raises(ValueError):
            disambiguate_from_gram(labels, gram, cfg=DisambigConfig(label_mode="global"))

    def test_parent_defaults_to_the_first_row(self, mantle_fixture):
        labels, gram = mantle_fixture
        result = disambiguate_from_gram(labels, gram)
        assert result.term == "mantle"
        explicit = disambiguate_from_gram(labels, gram, gram[0], term="mantle")
        assert result.to_dict() == explicit.to_dict()


class TestSpaceBackedRuns:
    def test_recovers_the_planted_senses(self, planted):
        space, pseudo, vocabs = planted
        result = disambiguate(space, pseudo)
        assert result.default_level == 2
        for sense in result.senses:
            assert cluster_purity(sense.members, vocabs) >= 0.9
        assert result.frequency == space.freq.total_count(pseudo)

    def test_gram_only_rerun_reproduces_the_space_run(self, planted):
        space, pseudo, _ = planted
        cfg = DisambigConfig()
        cohort = build_cohort(space, pseudo, cfg.cohort_min_sim, cfg.cohort_cap)
        gram = gram_of_units(cohort_units(space, cohort))
        via_space = disambiguate(space, pseudo, cfg)
        via_gram = disambiguate_from_gram(
            cohort.members, gram, cohort.sims_to_target, cfg, term=pseudo
        )
        assert via_gram.default_level == via_space.default_level
        for lr_g, lr_s in zip(via_gram.levels, via_space.levels):
            assert (lr_g.k, lr_g.evaluated, lr_g.valid) == (lr_s.k, lr_s.evaluated, lr_s.valid)
            if lr_g.evaluated:
                assert lr_g.max_intercluster_sim == pytest.approx(
                    lr_s.max_intercluster_sim, abs=1e-9
                )
                assert [set(s.members) for s in lr_g.senses] == [
                    set(s.members) for s in lr_s.senses
                ]
                for sg, ss in zip(lr_g.senses, lr_s.senses):
                    assert sg.sim_to_parent == pytest.approx(ss.sim_to_parent, abs=1e-9)

    def test_sense_vectors_live_in_the_space(self, planted):
        space, pseudo, _ = planted
        result = disambiguate(space, pseudo)
        for sense in result.senses:
            assert sense.vector is not None
            assert np.linalg.norm(sense.vector) == pytest.approx(1.0, abs=1e-9)

    def test_global_labels_query_the_whole_vocabulary(self, planted):
        space, pseudo, _ = planted
        cfg = DisambigConfig(label_mode="global", label_len=5)
        result = disambiguate(space, pseudo, cfg)
        for sense in result.senses:
            assert len(sense.label) == 5
            for name in sense.label:
                assert name in space

    def test_frequency_band_is_enforced_unless_forced(self, planted):
        space, pseudo, _ = planted
        tight = DisambigConfig(min_freq=1, max_freq=2)
        with pytest.raises(FrequencyBandError):
            disambiguate(space, pseudo, tight)
        forced = disambiguate(space, pseudo, tight, force=True)
        assert forced.default_level == 2

    def test_unusable_terms_raise_their_specific_errors(self, planted):
        space, _, _ = planted
        with pytest.raises(UnknownTermError):
            disambiguate(space, "unobtainium")
        lonely = build(
            ["q"] * 6, IngestConfig(min_count=1, max_doc_frequency=1.0),
            SpaceConfig.create(dim=16),
        )
        with pytest.raises(ZeroVectorError):
            disambiguate(lonely, "q", DisambigConfig(min_freq=1))


class TestBatch:
    def test_batch_covers_requested_in_band_terms(self, planted_batch):
        space, pseudo, _ = planted_batch
        wanted = [pseudo, "s0w000", "not-a-term"]
        results = list(batch_disambiguate(space, terms=wanted))
        names = [r.term for r in results]
        assert pseudo in names
        assert "s0w000" in names
        assert "not-a-term" not in names

    def test_summary_tallies_sense_counts(self, planted_batch):
        space, pseudo, _ = planted_batch
        results = list(batch_disambiguate(space, terms=[pseudo, "s0w000"]))
        summary = summarize(results)
        assert summary.terms_processed == len(results)
        assert sum(summary.by_sense_count.values()) == summary.terms_processed
        pseudo_senses = len(next(r for r in results if r.term == pseudo).senses)
        assert summary.by_sense_count[pseudo_senses] >= 1
