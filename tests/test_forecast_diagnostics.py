"""Tests for VAR forecasting and residual diagnostics."""

import numpy as np
import pytest

from repro.var import (
    VARProcess,
    diagnose,
    forecast,
    forecast_intervals,
    ljung_box,
    residuals,
)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    A = np.array([[0.6, 0.2], [0.0, 0.5]])
    proc = VARProcess([A])
    series = proc.simulate(800, rng)
    return A, series


class TestForecast:
    def test_one_step_matches_recursion(self, fitted):
        A, series = fitted
        f = forecast([A], series, 1)
        np.testing.assert_allclose(f[0], A @ series[-1])

    def test_multi_step_chains(self, fitted):
        A, series = fitted
        f = forecast([A], series, 3)
        np.testing.assert_allclose(f[1], A @ f[0])
        np.testing.assert_allclose(f[2], A @ f[1])

    def test_var2_uses_both_lags(self):
        A1 = np.eye(2) * 0.4
        A2 = np.eye(2) * 0.3
        hist = np.array([[1.0, 2.0], [3.0, 4.0]])  # t-2, t-1
        f = forecast([A1, A2], hist, 1)
        np.testing.assert_allclose(f[0], A1 @ hist[1] + A2 @ hist[0])

    def test_intercept_included(self, fitted):
        A, series = fitted
        mu = np.array([1.0, -1.0])
        f = forecast([A], series, 1, intercept=mu)
        np.testing.assert_allclose(f[0], mu + A @ series[-1])

    def test_stable_forecast_decays_to_drift(self, fitted):
        A, series = fitted
        f = forecast([A], series, 200)
        np.testing.assert_allclose(f[-1], np.zeros(2), atol=1e-6)

    def test_validation(self, fitted):
        A, series = fitted
        with pytest.raises(ValueError, match="steps"):
            forecast([A], series, 0)
        with pytest.raises(ValueError, match="history"):
            forecast([A, A], series[:1], 1)
        with pytest.raises(ValueError, match="intercept"):
            forecast([A], series, 1, intercept=np.ones(3))


class TestForecastIntervals:
    def test_band_contains_mean(self, fitted):
        A, series = fitted
        fi = forecast_intervals(
            [A], series, 4, n_paths=300, rng=np.random.default_rng(1)
        )
        assert np.all(fi.lower <= fi.mean + 1e-9)
        assert np.all(fi.mean <= fi.upper + 1e-9)

    def test_wider_level_wider_band(self, fitted):
        A, series = fitted
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
        narrow = forecast_intervals([A], series, 3, level=0.5, rng=rng1)
        wide = forecast_intervals([A], series, 3, level=0.95, rng=rng2)
        assert np.all(wide.upper - wide.lower >= narrow.upper - narrow.lower)

    def test_empirical_coverage_near_nominal(self, fitted):
        """One-step band at level 0.9 covers ~90% of simulated futures."""
        A, series = fitted
        proc = VARProcess([A])
        fi = forecast_intervals(
            [A], series, 1, level=0.9, n_paths=2000,
            rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(4)
        hits = 0
        trials = 400
        for _ in range(trials):
            nxt = A @ series[-1] + rng.standard_normal(2)
            if np.all(fi.lower[0] <= nxt) and np.all(nxt <= fi.upper[0]):
                hits += 1
        # Joint coverage of two independent 90% bands ~ 0.81.
        assert 0.68 <= hits / trials <= 0.93

    def test_validation(self, fitted):
        A, series = fitted
        with pytest.raises(ValueError, match="level"):
            forecast_intervals([A], series, 1, level=1.5)
        with pytest.raises(ValueError, match="n_paths"):
            forecast_intervals([A], series, 1, n_paths=1)


class TestDiagnostics:
    def test_residuals_of_true_model_are_noise(self, fitted):
        A, series = fitted
        res = residuals(series, [A])
        assert res.shape == (799, 2)
        assert res.std(axis=0) == pytest.approx(np.ones(2), rel=0.15)

    def test_ljung_box_passes_white_noise(self):
        rng = np.random.default_rng(5)
        res = rng.standard_normal((500, 3))
        lb = ljung_box(res)
        assert lb.passed()
        assert lb.p_value.shape == (3,)

    def test_ljung_box_rejects_autocorrelated(self):
        rng = np.random.default_rng(6)
        x = np.zeros((500, 1))
        for t in range(1, 500):
            x[t] = 0.7 * x[t - 1] + rng.standard_normal(1)
        assert not ljung_box(x).passed()

    def test_diagnose_true_model_ok(self, fitted):
        A, series = fitted
        assert diagnose(series, [A]).ok()

    def test_diagnose_flags_misspecification(self, fitted):
        _, series = fitted
        d = diagnose(series, [np.zeros((2, 2))])
        assert d.stable  # zero dynamics are stable...
        assert not d.whiteness.passed()  # ...but residuals keep structure
        assert not d.ok()

    def test_diagnose_flags_unstable_fit(self, fitted):
        _, series = fitted
        d = diagnose(series, [np.eye(2) * 1.2])
        assert not d.stable
        assert d.spectral_radius == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            ljung_box(np.ones(5))
        with pytest.raises(ValueError, match="lags"):
            ljung_box(np.ones((10, 2)), lags=10)
