"""Tests for selection and estimation metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import (
    coefficient_bias,
    estimation_report,
    mean_squared_error,
    selection_report,
)

masks = hnp.arrays(np.bool_, st.integers(1, 40))


class TestSelectionReport:
    def test_confusion_counts(self):
        true = np.array([True, True, False, False])
        est = np.array([True, False, True, False])
        r = selection_report(true, est)
        assert (r.tp, r.fn, r.fp, r.tn) == (1, 1, 1, 1)
        assert r.precision == 0.5
        assert r.recall == 0.5
        assert not r.exact

    def test_exact_recovery(self):
        m = np.array([True, False, True])
        r = selection_report(m, m)
        assert r.exact and r.precision == 1.0 and r.recall == 1.0 and r.f1 == 1.0

    def test_coefficients_accepted(self):
        true = np.array([1.5, 0.0, -2.0])
        est = np.array([0.1, 0.0, -1.0])
        r = selection_report(true, est)
        assert r.exact

    def test_empty_estimate_conventions(self):
        true = np.array([True, False])
        est = np.array([False, False])
        r = selection_report(true, est)
        assert r.precision == 1.0  # no selections -> no false claims
        assert r.recall == 0.0

    @given(m=masks)
    def test_counts_partition_features(self, m):
        rng = np.random.default_rng(0)
        est = rng.random(m.shape) < 0.5
        r = selection_report(m, est)
        assert r.tp + r.fp + r.tn + r.fn == m.size

    @given(m=masks)
    def test_rates_complementary(self, m):
        rng = np.random.default_rng(1)
        est = rng.random(m.shape) < 0.5
        r = selection_report(m, est)
        assert 0.0 <= r.precision <= 1.0
        assert 0.0 <= r.recall <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            selection_report(np.ones(3, dtype=bool), np.ones(4, dtype=bool))


class TestEstimationMetrics:
    def test_mse(self):
        assert mean_squared_error(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == 2.0

    def test_bias_measures_shrinkage(self):
        true = np.array([2.0, -3.0, 0.0])
        shrunk = np.array([1.5, -2.5, 0.0])
        assert coefficient_bias(true, shrunk) == pytest.approx(0.5)
        assert coefficient_bias(true, true) == 0.0

    def test_bias_ignores_true_zeros(self):
        true = np.array([0.0, 0.0])
        est = np.array([5.0, -5.0])
        assert coefficient_bias(true, est) == 0.0

    def test_report_bundle(self):
        true = np.array([1.0, 0.0, -2.0])
        est = np.array([0.8, 0.1, -2.1])
        rep = estimation_report(true, est)
        assert rep.max_abs_error == pytest.approx(0.2)
        assert rep.mse == pytest.approx((0.04 + 0.01 + 0.01) / 3)

    @given(
        arr=hnp.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_perfect_estimate_is_zero_everywhere(self, arr):
        rep = estimation_report(arr, arr.copy())
        assert rep.mse == 0.0
        assert rep.bias == 0.0
        assert rep.max_abs_error == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error(np.ones(2), np.ones(3))
