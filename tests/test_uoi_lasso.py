"""Tests for the serial UoILasso estimator (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig
from repro.datasets import make_sparse_regression
from repro.metrics import selection_report

FAST = dict(
    n_lambdas=10,
    n_selection_bootstraps=10,
    n_estimation_bootstraps=6,
    solver="cd",
    random_state=0,
)


@pytest.fixture(scope="module")
def fitted():
    ds = make_sparse_regression(
        200, 25, n_informative=4, snr=10.0, rng=np.random.default_rng(42)
    )
    model = UoILasso(**FAST).fit(ds.X, ds.y)
    return ds, model


class TestFit:
    def test_recovers_true_support_features(self, fitted):
        ds, model = fitted
        rep = selection_report(ds.support, model.coef_)
        assert rep.recall == 1.0  # no false negatives on strong signal
        # Union averaging may admit spurious features, but only with
        # tiny weights: thresholding at a tenth of the smallest true
        # coefficient recovers the support exactly.
        thresh = 0.1 * np.abs(ds.beta[ds.support]).min()
        rep_t = selection_report(ds.support, np.abs(model.coef_) > thresh)
        assert rep_t.exact

    def test_coefficients_close_to_truth(self, fitted):
        ds, model = fitted
        on = ds.support
        np.testing.assert_allclose(model.coef_[on], ds.beta[on], atol=0.25)

    def test_attributes_populated(self, fitted):
        _, model = fitted
        assert model.lambdas_.shape == (10,)
        assert model.supports_.shape == (10, 25)
        assert model.losses_.shape == (6, 10)
        assert model.winners_.shape == (6,)
        assert model.selected_mask_.dtype == bool

    def test_supports_nested_by_lambda(self, fitted):
        """Down the λ path, intersected supports (weakly) grow."""
        _, model = fitted
        sizes = model.supports_.sum(axis=1)
        assert sizes[0] <= sizes[-1]

    def test_score_high_on_training_data(self, fitted):
        ds, model = fitted
        assert model.score(ds.X, ds.y) > 0.9

    def test_predict_shape(self, fitted):
        ds, model = fitted
        assert model.predict(ds.X[:7]).shape == (7,)

    def test_deterministic_given_seed(self):
        ds = make_sparse_regression(
            80, 10, n_informative=3, rng=np.random.default_rng(1)
        )
        a = UoILasso(**FAST).fit(ds.X, ds.y)
        b = UoILasso(**FAST).fit(ds.X, ds.y)
        np.testing.assert_array_equal(a.coef_, b.coef_)

    def test_different_seed_changes_bootstraps(self):
        ds = make_sparse_regression(
            80, 10, n_informative=3, rng=np.random.default_rng(1)
        )
        a = UoILasso(**FAST).fit(ds.X, ds.y)
        b = UoILasso(**{**FAST, "random_state": 99}).fit(ds.X, ds.y)
        assert not np.array_equal(a.losses_, b.losses_)

    def test_admm_and_cd_solvers_agree_on_support(self):
        ds = make_sparse_regression(
            120, 12, n_informative=3, snr=20.0, rng=np.random.default_rng(2)
        )
        a = UoILasso(**{**FAST, "solver": "admm"}).fit(ds.X, ds.y)
        c = UoILasso(**FAST).fit(ds.X, ds.y)
        np.testing.assert_array_equal(a.coef_ != 0, c.coef_ != 0)
        np.testing.assert_allclose(a.coef_, c.coef_, atol=0.05)

    def test_fit_intercept(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((150, 8))
        beta = np.zeros(8)
        beta[[1, 5]] = [2.0, -1.5]
        y = 7.0 + X @ beta + 0.1 * rng.standard_normal(150)
        model = UoILasso(**{**FAST, "fit_intercept": True}).fit(X, y)
        assert model.intercept_ == pytest.approx(7.0, abs=0.2)
        preds = model.predict(X)
        assert np.corrcoef(preds, y)[0, 1] > 0.98

    def test_null_signal_gives_weak_model(self):
        """Pure noise: anything UoI keeps must carry near-zero weight."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 15))
        y = rng.standard_normal(100)
        model = UoILasso(**FAST).fit(X, y)
        assert np.max(np.abs(model.coef_)) < 0.3
        assert (np.abs(model.coef_) > 0.1).sum() <= 3


class TestValidationAndConfig:
    def test_bad_shapes(self):
        m = UoILasso(**FAST)
        with pytest.raises(ValueError, match="2-D"):
            m.fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="incompatible"):
            m.fit(np.ones((5, 2)), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((30, 4)), rng.standard_normal(30)
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ValueError, match="^y contains NaN or inf"):
            UoILasso(**FAST).fit(X, y_bad)
        X_bad = X.copy()
        X_bad[5, 1] = bad
        with pytest.raises(ValueError, match="^X contains NaN or inf"):
            UoILasso(**FAST).fit(X_bad, y)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            UoILasso().predict(np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="fit"):
            _ = UoILasso().selected_mask_

    def test_config_overrides(self):
        m = UoILasso(UoILassoConfig(n_lambdas=5), random_state=9)
        assert m.config.n_lambdas == 5
        assert m.config.random_state == 9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UoILassoConfig(n_lambdas=0)
        with pytest.raises(ValueError):
            UoILassoConfig(lambda_min_ratio=2.0)
        with pytest.raises(ValueError):
            UoILassoConfig(n_selection_bootstraps=0)
        with pytest.raises(ValueError):
            UoILassoConfig(train_frac=1.5)
        with pytest.raises(ValueError):
            UoILassoConfig(solver="magic")
        with pytest.raises(ValueError):
            UoILassoConfig(rho=-1.0)

    def test_default_rho_is_spectral(self):
        assert UoILassoConfig().rho is None
        assert UoILassoConfig(rho=2.0).solver_meta()["rho"] == 2.0
        assert set(UoILassoConfig().solver_meta()) == {
            "solver", "rho", "max_iter", "abstol", "reltol", "cd_tol",
        }

    def test_config_with_(self):
        cfg = UoILassoConfig()
        cfg2 = cfg.with_(n_lambdas=7)
        assert cfg2.n_lambdas == 7
        assert cfg.n_lambdas == 48  # frozen original


class TestSelectionConverges:
    """At library defaults the ADMM selection solves stop on tolerance,
    so UoI intersects LASSO supports rather than a max_iter transient."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_admm_family_equals_converged_cd_family(self, seed):
        from repro.telemetry.recorder import Recorder, use_recorder

        ds = make_sparse_regression(
            400, 90, n_informative=8, rng=np.random.default_rng(seed)
        )
        kw = dict(n_lambdas=8, n_selection_bootstraps=2,
                  n_estimation_bootstraps=2, random_state=seed)
        rec = Recorder()
        with use_recorder(rec):
            admm = UoILasso(solver="admm", **kw).fit(ds.X, ds.y)
        counters = rec.counter_values()
        assert counters["admm.solves"] == 16  # q x B1 selection solves
        assert counters["admm.converged"] == 16
        assert "admm.nonconverged" not in counters
        assert counters["admm.factorizations"] == 2  # one per bootstrap
        assert counters["admm.iterations"] < 16 * 100

        cd = UoILasso(solver="cd", max_iter=20000, **kw).fit(ds.X, ds.y)
        np.testing.assert_array_equal(admm.supports_, cd.supports_)
        # The old fixed penalty stopped on max_iter with another family.
        unit = UoILasso(solver="admm", rho=1.0, **kw).fit(ds.X, ds.y)
        assert (unit.supports_ != cd.supports_).sum() > 0
