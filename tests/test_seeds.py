"""Seed vector determinism, shape, and quasi-orthogonality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risp.seeds import (
    TERNARY,
    SeedBank,
    SeedScheme,
    orthogonality_stats,
    seed_vector,
)

SCHEME = SeedScheme(dim=300)


class TestSeedVector:
    def test_same_term_same_vector_across_processes_in_spirit(self):
        # Two independent computations, no shared state.
        a = seed_vector("mantle", SeedScheme(dim=300))
        b = seed_vector("mantle", SeedScheme(dim=300))
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for term in ("mantle", "stirrer", "x", "née", "Ω"):
            assert np.linalg.norm(seed_vector(term, SCHEME)) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_terms_get_distinct_directions(self):
        a = seed_vector("mantle", SCHEME)
        b = seed_vector("mantel", SCHEME)
        assert abs(float(a @ b)) < 0.5

    def test_global_seed_changes_everything(self):
        a = seed_vector("mantle", SeedScheme(dim=300, global_seed=0))
        b = seed_vector("mantle", SeedScheme(dim=300, global_seed=1))
        assert not np.array_equal(a, b)

    def test_vocabulary_order_cannot_matter(self):
        # Seeds depend on the string alone, so interleaving other lookups
        # in any order leaves a term's vector untouched.
        bank_a, bank_b = SeedBank(SCHEME), SeedBank(SCHEME)
        for term in ("one", "two", "three"):
            bank_a.vector(term)
        for term in ("three", "one", "two"):
            bank_b.vector(term)
        assert np.array_equal(bank_a.vector("two"), bank_b.vector("two"))

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            seed_vector("", SCHEME)

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_any_nonempty_term_yields_a_unit_vector(self, term):
        vec = seed_vector(term, SeedScheme(dim=64))
        assert vec.shape == (64,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


class TestTernary:
    def test_exact_sparsity_and_balance(self):
        scheme = SeedScheme(dim=300, distribution=TERNARY, ternary_nonzeros=8)
        vec = seed_vector("mantle", scheme)
        nonzero = vec[vec != 0]
        assert nonzero.size == 8
        assert np.sum(nonzero > 0) == 4
        assert np.allclose(np.abs(nonzero), 1.0 / np.sqrt(8))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_ternary_is_deterministic_too(self):
        scheme = SeedScheme(dim=64, distribution=TERNARY, ternary_nonzeros=6)
        assert np.array_equal(seed_vector("x", scheme), seed_vector("x", scheme))


class TestSchemeValidation:
    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            SeedScheme(dim=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_global_seed(self, seed):
        with pytest.raises(ValueError):
            SeedScheme(global_seed=seed)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            SeedScheme(distribution="cauchy")

    @pytest.mark.parametrize("k", [0, 7, 302])
    def test_rejects_bad_ternary_counts(self, k):
        with pytest.raises(ValueError):
            SeedScheme(dim=300, distribution=TERNARY, ternary_nonzeros=k)


class TestSeedBank:
    def test_matrix_rows_match_individual_lookups(self):
        bank = SeedBank(SCHEME)
        terms = ["alpha", "beta", "gamma"]
        mat = bank.matrix(terms)
        assert mat.shape == (3, 300)
        for row, term in zip(mat, terms):
            assert np.array_equal(row, bank.vector(term))


class TestOrthogonality:
    def test_dot_products_center_on_zero_with_expected_spread(self):
        stats = orthogonality_stats(SCHEME, n_pairs=2000)
        assert abs(stats.mean) < 0.01
        assert stats.stddev == pytest.approx(np.sqrt(1 / 300), rel=0.15)
        assert stats.n_pairs == 2000

    def test_ternary_seeds_are_quasi_orthogonal_as_well(self):
        scheme = SeedScheme(dim=300, distribution=TERNARY, ternary_nonzeros=8)
        stats = orthogonality_stats(scheme, n_pairs=2000)
        assert abs(stats.mean) < 0.01
        assert stats.max_abs <= 1.0

    def test_rejects_degenerate_sample_sizes(self):
        with pytest.raises(ValueError):
            orthogonality_stats(SCHEME, n_pairs=1)
