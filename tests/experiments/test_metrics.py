"""Tests for relative error and pairwise-deviation metrics (Eqs. 14-15)."""

import numpy as np
import pytest

from repro.experiments.metrics import deviation_of, relative_error


class TestRelativeError:
    def test_perfect_match_is_zero(self):
        reference = np.array([0.2, 0.5])
        assert relative_error(reference, reference) == 0.0

    def test_known_value(self):
        estimates = np.array([0.22, 0.45])
        reference = np.array([0.2, 0.5])
        expected = (0.02 / 0.2 + 0.05 / 0.5) / 2
        assert relative_error(estimates, reference) == pytest.approx(expected)

    def test_zero_reference_pairs_skipped(self):
        estimates = np.array([0.3, 0.123])
        reference = np.array([0.3, 0.0])
        assert relative_error(estimates, reference) == 0.0

    def test_all_zero_reference_and_estimates(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_all_zero_reference_nonzero_estimates(self):
        assert relative_error(np.array([0.1]), np.zeros(1)) == float("inf")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros(2), np.zeros(3))


class TestRelativeErrorTable:
    def test_deviation_of_table(self):
        table = {"a": 0.01, "b": 0.03}
        assert deviation_of(table) == pytest.approx(0.02)
