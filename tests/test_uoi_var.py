"""Tests for the serial UoIVar estimator (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import UoIVar, UoIVarConfig, UoILassoConfig
from repro.datasets import make_sparse_var
from repro.metrics import selection_report
from repro.var import VARProcess

FAST = dict(
    n_lambdas=8,
    n_selection_bootstraps=8,
    n_estimation_bootstraps=4,
    solver="cd",
    random_state=0,
)


@pytest.fixture(scope="module")
def fitted_var1():
    rng = np.random.default_rng(10)
    p = 5
    A = np.zeros((p, p))
    np.fill_diagonal(A, 0.5)
    A[0, 3] = 0.4
    A[2, 4] = -0.35
    proc = VARProcess([A])
    series = proc.simulate(800, rng)
    model = UoIVar(order=1, **FAST).fit(series)
    return A, model


class TestFitVar1:
    def test_recovers_network(self, fitted_var1):
        A, model = fitted_var1
        rep = selection_report(A != 0, model.coefs_[0])
        assert rep.recall >= 0.8
        assert rep.fp <= 4

    def test_coefficients_close(self, fitted_var1):
        A, model = fitted_var1
        on = A != 0
        assert np.max(np.abs(model.coefs_[0][on] - A[on])) < 0.2

    def test_attributes(self, fitted_var1):
        _, model = fitted_var1
        assert len(model.coefs_) == 1
        assert model.coefs_[0].shape == (5, 5)
        assert model.intercept_.shape == (5,)
        assert model.vec_coef_.shape == (25,)
        assert model.supports_.shape == (8, 25)
        assert model.losses_.shape == (4, 8)

    def test_network_summary_and_graph(self, fitted_var1):
        _, model = fitted_var1
        s = model.network_summary()
        assert s["nodes"] == 5
        g = model.granger_graph(labels=list("abcde"))
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == s["edges"]

    def test_predict_next(self, fitted_var1):
        A, model = fitted_var1
        hist = np.ones((3, 5))
        pred = model.predict_next(hist)
        expected = model.intercept_ + model.coefs_[0] @ hist[-1]
        np.testing.assert_allclose(pred, expected)

    def test_deterministic(self):
        sv = make_sparse_var(4, 200, rng=np.random.default_rng(3))
        a = UoIVar(order=1, **FAST).fit(sv.series)
        b = UoIVar(order=1, **FAST).fit(sv.series)
        np.testing.assert_array_equal(a.vec_coef_, b.vec_coef_)


class TestVar2:
    def test_order_two_recovery(self):
        rng = np.random.default_rng(20)
        p = 4
        A1 = np.diag([0.4, 0.4, 0.4, 0.4]).astype(float)
        A1[1, 3] = 0.35
        A2 = np.zeros((p, p))
        A2[0, 2] = -0.3
        series = VARProcess([A1, A2]).simulate(1200, rng)
        model = UoIVar(order=2, **FAST).fit(series)
        assert len(model.coefs_) == 2
        # The strong lag-2 edge is found.
        assert model.coefs_[1][0, 2] != 0
        assert abs(model.coefs_[1][0, 2] - (-0.3)) < 0.15

    def test_intercept_estimation(self):
        rng = np.random.default_rng(21)
        p = 3
        A = np.eye(p) * 0.4
        mu = np.array([1.0, -2.0, 0.5])
        series = VARProcess([A], intercept=mu).simulate(1500, rng)
        model = UoIVar(order=1, fit_intercept=True, **FAST).fit(series)
        np.testing.assert_allclose(model.intercept_, mu, atol=0.35)


class TestManySeries:
    def test_ols_family_columns_past_255_series(self):
        """The estimation stage's support cache is keyed per response
        column; 256 or more series must neither crash it nor share an
        entry between two columns with the same support mask."""
        from repro.engine.plans import ols_family_columns
        from repro.linalg import ols_on_support

        rng = np.random.default_rng(0)
        p, kdim, n = 260, 3, 12
        X = rng.standard_normal((n, kdim))
        Y = rng.standard_normal((n, p))
        family = np.zeros((2, kdim * p), dtype=bool)
        family[0, np.arange(p) * kdim] = True
        family[1, np.arange(p) * kdim + 1] = True
        out = ols_family_columns(X, Y, family)
        for c in (0, 255, 256, 259):
            cols = slice(c * kdim, (c + 1) * kdim)
            for j in range(2):
                np.testing.assert_array_equal(
                    out[j, cols], ols_on_support(X, Y[:, c], family[j, cols])
                )


class TestConfig:
    def test_inner_overrides_forwarded(self):
        m = UoIVar(order=2, n_lambdas=5, random_state=7)
        assert m.config.order == 2
        assert m.config.lasso.n_lambdas == 5
        assert m.config.lasso.random_state == 7

    def test_explicit_config(self):
        cfg = UoIVarConfig(order=3, lasso=UoILassoConfig(n_lambdas=6))
        m = UoIVar(cfg)
        assert m.config.order == 3
        assert m.config.lasso.n_lambdas == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            UoIVarConfig(order=0)
        with pytest.raises(ValueError):
            UoIVarConfig(block_length=0)

    def test_methods_require_fit(self):
        m = UoIVar()
        with pytest.raises(RuntimeError, match="fit"):
            m.predict_next(np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="fit"):
            m.granger_graph()
        with pytest.raises(RuntimeError, match="fit"):
            m.network_summary()

    def test_predict_next_needs_enough_history(self):
        sv = make_sparse_var(3, 100, rng=np.random.default_rng(4))
        m = UoIVar(order=2, **{**FAST, "n_selection_bootstraps": 2,
                               "n_estimation_bootstraps": 2, "n_lambdas": 3}).fit(sv.series)
        with pytest.raises(ValueError, match="rows"):
            m.predict_next(np.ones((1, 3)))


class TestFittedModelUtilities:
    def test_forecast_and_diagnose(self, fitted_var1):
        A, model = fitted_var1
        hist = np.ones((2, 5))
        f = model.forecast(hist, 3)
        assert f.shape == (3, 5)
        np.testing.assert_allclose(
            f[0], model.intercept_ + model.coefs_[0] @ hist[-1]
        )
        fi = model.forecast_intervals(
            hist, 2, n_paths=50, rng=np.random.default_rng(0)
        )
        assert np.all(fi.lower <= fi.upper)

    def test_diagnose_fitted_model(self):
        rng = np.random.default_rng(30)
        A = np.eye(4) * 0.5
        from repro.var import VARProcess

        series = VARProcess([A]).simulate(600, rng)
        model = UoIVar(order=1, **FAST).fit(series)
        d = model.diagnose(series)
        assert d.stable
        assert d.spectral_radius < 1.0

    def test_methods_require_fit(self):
        m = UoIVar()
        with pytest.raises(RuntimeError, match="fit"):
            m.forecast(np.ones((2, 2)), 1)
        with pytest.raises(RuntimeError, match="fit"):
            m.diagnose(np.ones((10, 2)))
