"""Tests for statistics helpers (variance, dispersion, deviation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    binomial_variance,
    dispersion_index,
    pairwise_deviation,
)


class TestDispersionIndex:
    def test_zero_mean_is_converged(self):
        assert dispersion_index(0.0, 0.0) == 0.0

    def test_ratio(self):
        assert dispersion_index(0.002, 0.4) == pytest.approx(0.005)


class TestBinomialVariance:
    def test_formula(self):
        assert binomial_variance(0.3, 100) == pytest.approx(0.3 * 0.7 / 100)

    def test_extremes_have_zero_variance(self):
        assert binomial_variance(0.0, 10) == 0.0
        assert binomial_variance(1.0, 10) == 0.0

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            binomial_variance(0.5, 0)

    def test_scales_as_one_over_samples(self):
        assert binomial_variance(0.4, 1000) == pytest.approx(
            binomial_variance(0.4, 10) / 100
        )

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_largest_at_one_half(self, reliability):
        assert binomial_variance(reliability, 7) <= binomial_variance(0.5, 7)

    def test_dispersion_of_mc_is_one_minus_r_over_k(self):
        # rho_K of the MC estimator: R(1-R)/K divided by R.
        variance = binomial_variance(0.2, 50)
        assert dispersion_index(variance, 0.2) == pytest.approx(0.8 / 50)


class TestPairwiseDeviation:
    def test_fewer_than_two_is_zero(self):
        assert pairwise_deviation([]) == 0.0
        assert pairwise_deviation([0.3]) == 0.0

    def test_identical_errors_give_zero(self):
        assert pairwise_deviation([0.2, 0.2, 0.2]) == 0.0

    def test_two_values(self):
        # Sum over ordered pairs |a-b| = 2 * 0.1; normalised by k(k-1) = 2.
        assert pairwise_deviation([0.1, 0.2]) == pytest.approx(0.1)

    def test_order_of_estimators_does_not_matter(self):
        errors = [0.05, 0.3, 0.01, 0.12]
        assert pairwise_deviation(errors[::-1]) == pytest.approx(
            pairwise_deviation(errors)
        )

    def test_matches_paper_normalisation(self):
        # Six estimators: denominator 5 * 6 = 30 ordered pairs.
        errors = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        expected = sum(
            abs(a - b) for a in errors for b in errors
        ) / 30.0
        assert pairwise_deviation(errors) == pytest.approx(expected)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_shift_invariant(self, values):
        base = pairwise_deviation(values)
        shifted = pairwise_deviation([v + 0.37 for v in values])
        assert base >= 0.0
        assert shifted == pytest.approx(base, abs=1e-9)
