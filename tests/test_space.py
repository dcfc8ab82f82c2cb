"""Vector accumulation, similarity queries, and incremental updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import accumulate_naive
from risp import IngestConfig, SemanticSpace, SpaceConfig, build, update
from risp.errors import UnknownTermError, ZeroVectorError
from risp.ingest import scan_frequencies, significant_terms
from risp.space import distance

PERMISSIVE = IngestConfig(min_count=1, max_doc_frequency=1.0)


def small_space(docs, dim=32, window=11, **ingest_kwargs):
    cfg = IngestConfig(min_count=1, max_doc_frequency=1.0, **ingest_kwargs)
    return build(docs, cfg, SpaceConfig.create(dim=dim, window=window))


class TestSpaceConfig:
    def test_window_must_be_odd_and_wide_enough(self):
        with pytest.raises(ValueError):
            SpaceConfig.create(window=10)
        with pytest.raises(ValueError):
            SpaceConfig.create(window=1)

    def test_radius_is_half_the_window(self):
        assert SpaceConfig.create(window=11).radius == 5
        assert SpaceConfig.create(window=3).radius == 1


class TestDistance:
    def test_spot_values(self):
        assert distance(1.0) == pytest.approx(0.0, abs=1e-12)
        assert distance(-1.0) == pytest.approx(2.0, abs=1e-12)
        assert distance(0.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert distance(0.58) == pytest.approx(0.9165151389911681, abs=1e-12)

    def test_identity_with_similarity(self):
        sweep = np.linspace(-1.0, 1.0, 10_001)
        d = distance(sweep)
        assert np.abs(d * d + 2.0 * sweep - 2.0).max() < 1e-9

    def test_monotone_decreasing_in_similarity(self):
        sweep = np.linspace(-1.0, 1.0, 1001)
        assert (np.diff(distance(sweep)) < 0).all()

    def test_tolerates_rounding_just_past_the_ends(self):
        assert distance(1.0 + 1e-12) == 0.0
        assert distance(-1.0 - 1e-12) == 2.0

    def test_rejects_values_clearly_outside_range(self):
        with pytest.raises(ValueError):
            distance(1.01)
        with pytest.raises(ValueError):
            distance(np.array([0.0, -1.5]))


class TestAccumulation:
    def test_single_document_micro_example(self):
        space = small_space(["x a y"])
        record = space.term_vector("a")
        seeds = space._seeds
        expected = seeds.vector("x") + seeds.vector("y")
        assert np.allclose(record.sum, expected, atol=1e-12)
        assert record.context_events == 2
        assert record.frequency == 1
        assert record.doc_count == 1

    def test_center_token_never_counts_itself(self):
        space = small_space(["a a a"])
        record = space.term_vector("a")
        # Three occurrences, each seeing the other two.
        assert record.context_events == 6
        assert np.allclose(record.sum, 6 * space._seeds.vector("a"), atol=1e-12)
        assert record.frequency == 3

    def test_matches_naive_window_accumulation(self):
        docs = [
            "the quick brown fox jumps over the lazy dog again and again",
            "a quick brown dog naps while the fox circles the yard",
            "over the yard the lazy fox and the quick dog doze",
        ]
        space = small_space(docs, dim=16, window=5)
        active = set(space.terms())
        totals = {t: np.zeros(16) for t in active}
        events = {t: 0 for t in active}
        for doc in docs:
            naive_sums, naive_events = accumulate_naive(
                doc.split(), active, space._seeds.vector, 16, radius=2
            )
            for term, vec in naive_sums.items():
                totals[term] += vec
                events[term] += naive_events[term]
        for term in active:
            record = space.term_vector(term)
            assert np.allclose(record.sum, totals[term], atol=1e-9), term
            assert record.context_events == events[term]

    def test_window_clips_at_document_edges(self):
        tokens = [f"t{i}" for i in range(13)]
        space = small_space([" ".join(tokens)], window=11)
        # Position 0 sees positions 1..5 only.
        first = space.term_vector("t0")
        expected = sum(space._seeds.vector(f"t{i}") for i in range(1, 6))
        assert np.allclose(first.sum, expected, atol=1e-12)
        assert first.context_events == 5
        # An interior position sees the full two-sided window.
        assert space.term_vector("t6").context_events == 10

    def test_document_reversal_gives_mirrored_contexts(self):
        doc = "alpha beta gamma delta epsilon zeta eta theta"
        fwd = small_space([doc])
        rev = small_space([" ".join(reversed(doc.split()))])
        for term in doc.split():
            a, b = fwd.term_vector(term), rev.term_vector(term)
            assert a.context_events == b.context_events
            assert np.allclose(a.sum, b.sum, atol=1e-12)

    def test_insignificant_terms_neither_accumulate_nor_contribute(self):
        docs = ["rare mantle flask", "mantle flask again", "flask mantle more"]
        cfg = IngestConfig(min_count=2, max_doc_frequency=1.0)
        space = build(docs, cfg, SpaceConfig.create(dim=16))
        assert "rare" not in space
        mantle = space.term_vector("mantle")
        naive = {}
        for doc in docs:
            sums, _ = accumulate_naive(
                doc.split(), set(space.terms()), space._seeds.vector, 16, radius=5
            )
            for t, v in sums.items():
                naive[t] = naive.get(t, np.zeros(16)) + v
        assert np.allclose(mantle.sum, naive["mantle"], atol=1e-12)

    def test_sentence_splitting_blocks_cross_sentence_windows(self):
        text = "alpha beta. gamma delta"
        joined = small_space([text])
        split = small_space([text], split_sentences=True)
        assert joined.term_vector("beta").context_events == 3
        assert split.term_vector("beta").context_events == 1
        expected = split._seeds.vector("alpha")
        assert np.allclose(split.term_vector("beta").sum, expected, atol=1e-12)

    def test_identical_context_multisets_are_perfectly_similar(self):
        space = small_space(["anchor x tail", "anchor y tail"])
        assert space.similarity("x", "y") == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_rebuilds_are_bit_identical(self, salt):
        docs = [f"a{salt % 7} b c d", "b c e", "e d a0"]
        one = small_space(docs, dim=16)
        two = small_space(docs, dim=16)
        assert one.terms() == two.terms()
        assert np.array_equal(one._sums, two._sums)


class TestQueries:
    def test_self_similarity_is_exactly_one(self, tiny_space):
        assert tiny_space.similarity("mantle", "mantle") == 1.0

    def test_similarity_is_symmetric_and_bounded(self, tiny_space):
        terms = tiny_space.terms()[:8]
        for a in terms:
            for b in terms:
                s = tiny_space.similarity(a, b)
                assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
                assert s == pytest.approx(tiny_space.similarity(b, a), abs=1e-12)

    def test_topical_terms_sit_closer_than_cross_topic_ones(self, tiny_space):
        same = tiny_space.similarity("apples", "oranges")
        cross = tiny_space.similarity("apples", "stirrer")
        assert same > cross

    def test_neighbors_start_with_self_at_one(self, tiny_space):
        top = tiny_space.neighbors("mantle", 5)
        assert top[0] == ("mantle", 1.0)
        assert len(top) == 5
        sims = [s for _, s in top]
        assert sims == sorted(sims, reverse=True)

    def test_neighbors_accepts_raw_vectors(self, tiny_space):
        vec = tiny_space.unit_vector("mantle")
        top = tiny_space.neighbors(vec, 3)
        assert top[0][0] == "mantle"
        assert top[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_neighbors_rejects_bad_queries(self, tiny_space):
        with pytest.raises(ValueError):
            tiny_space.neighbors("mantle", 0)
        with pytest.raises(ValueError):
            tiny_space.neighbors(np.ones(7))
        with pytest.raises(ZeroVectorError):
            tiny_space.neighbors(np.zeros(tiny_space.config.dim))

    def test_unknown_terms_raise(self, tiny_space):
        with pytest.raises(UnknownTermError):
            tiny_space.similarity("mantle", "unobtainium")
        with pytest.raises(UnknownTermError):
            tiny_space.term_vector("unobtainium")

    def test_terms_without_context_are_unusable_but_counted(self):
        space = small_space(["q", "q", "q", "q", "q"])
        assert space.term_vector("q").frequency == 5
        with pytest.raises(ZeroVectorError):
            space.unit_vector("q")
        with pytest.raises(ZeroVectorError):
            space.similarity("q", "q")

    def test_unit_vectors_are_read_only(self, tiny_space):
        before = tiny_space.similarity("mantle", "flask")
        with pytest.raises(ValueError):
            tiny_space.unit_vector("flask")[:] = 0.0
        assert tiny_space.similarity("mantle", "flask") == before != 0.0

    def test_zero_vector_terms_never_appear_as_neighbors(self):
        space = small_space(["q", "a b", "b a"])
        names = [t for t, _ in space.neighbors("a", 10)]
        assert "q" not in names
        assert set(names) == {"a", "b"}

    def test_distance_obeys_the_triangle_inequality(self, tiny_space):
        names, _ = tiny_space.nonzero_unit_rows()
        probe = names[:6]
        for a in probe:
            for b in probe:
                for c in probe:
                    dab = distance(tiny_space.similarity(a, b))
                    dbc = distance(tiny_space.similarity(b, c))
                    dac = distance(tiny_space.similarity(a, c))
                    assert dac <= dab + dbc + 1e-9


class TestUpdate:
    def test_two_stage_build_matches_one_pass_bitwise(self):
        pool = [f"w{i}" for i in range(12)]
        rng = np.random.default_rng(7)
        docs = [" ".join(rng.choice(pool, size=9)) for _ in range(60)]
        half = len(docs) // 2
        whole = small_space(docs, dim=24)
        staged = small_space(docs[:half], dim=24)
        update(staged, docs[half:])
        assert staged.terms() == whole.terms()
        assert np.array_equal(staged._sums, whole._sums)
        assert np.array_equal(staged._events, whole._events)
        assert staged.freq == whole.freq

    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10).map(" ".join),
            min_size=2, max_size=10,
        ),
        data=st.data(),
        min_count=st.integers(min_value=1, max_value=3),
        max_doc_frequency=st.sampled_from([0.5, 0.75, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_staged_equals_one_pass_when_the_first_stage_fixes_significance(
        self, docs, data, min_count, max_doc_frequency
    ):
        # The incremental contract as the README states it: a staged build
        # equals one pass bit for bit whenever the significant set after the
        # first stage equals the one computed from the whole corpus.
        split = data.draw(st.integers(min_value=1, max_value=len(docs) - 1), label="split")
        cfg = IngestConfig(min_count=min_count, max_doc_frequency=max_doc_frequency)
        first = significant_terms(scan_frequencies(docs[:split], cfg), cfg)
        if first != significant_terms(scan_frequencies(docs, cfg), cfg):
            return  # the contract promises nothing here
        space_cfg = SpaceConfig.create(dim=8, window=5)
        whole = build(docs, cfg, space_cfg)
        staged = update(build(docs[:split], cfg, space_cfg), docs[split:])
        assert staged.terms() == whole.terms()
        assert np.array_equal(staged._sums, whole._sums)
        assert np.array_equal(staged._events, whole._events)
        assert staged.freq == whole.freq
        assert staged.docs_ingested == whole.docs_ingested

    def test_update_promotes_terms_that_cross_min_count(self):
        cfg = IngestConfig(min_count=3, max_doc_frequency=1.0)
        space = build(["nickel iron", "nickel iron"], cfg, SpaceConfig.create(dim=16))
        assert "nickel" not in space
        update(space, ["nickel iron cobalt", "iron nickel cobalt"])
        assert "nickel" in space
        record = space.term_vector("nickel")
        # All four occurrences are counted even though only the last two
        # documents contributed context (the first two predate promotion),
        # and cobalt stays inactive at two occurrences.
        assert record.frequency == 4
        assert record.context_events == 2
        assert np.allclose(record.sum, 2 * space._seeds.vector("iron"), atol=1e-12)

    def test_update_returns_the_same_object(self):
        space = small_space(["a b"])
        assert update(space, ["b a"]) is space

    def test_empty_update_changes_nothing(self):
        space = small_space(["a b c"])
        before = space._sums.copy()
        update(space, [])
        assert np.array_equal(space._sums, before)
        assert space.freq.total_docs == 1
