"""Exact homotopy LASSO path: the ``n < p`` selection solver."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig
from repro.datasets import make_sparse_regression
from repro.engine import (
    SELECTION,
    LassoPlan,
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
)
from repro.engine.plans import lasso_path
from repro.linalg.admm import LassoADMM
from repro.linalg.homotopy import kkt_certified, lasso_homotopy
from repro.linalg.lambda_grid import lambda_grid
from repro.resilience import CheckpointPlan, CheckpointStore
from repro.telemetry.recorder import Recorder, use_recorder

WIDE = UoILassoConfig(
    n_lambdas=6, n_selection_bootstraps=2, n_estimation_bootstraps=2, random_state=4
)


def _wide(n=30, p=80, seed=0):
    ds = make_sparse_regression(n, p, n_informative=5, rng=np.random.default_rng(seed))
    return ds.X, ds.y


def _path(X, y, lambdas):
    """``lasso_path`` under the default config, with its counters."""
    rec = Recorder()
    with use_recorder(rec):
        out = lasso_path(UoILassoConfig(), X, y, np.asarray(lambdas, dtype=float))
    return out, rec.counter_values()


def _assert_certified(X, y, lambdas):
    """The path, with no fallback, is a KKT-certified minimiser at every λ."""
    out, counters = _path(X, y, lambdas)
    assert counters["homotopy.paths"] == 1
    assert "homotopy.fallbacks" not in counters and "admm.solves" not in counters
    for beta, lam in zip(out, lambdas):
        assert kkt_certified(X.T @ (y - X @ beta), beta, float(lam))
    return out, counters


class TestPath:
    def test_matches_tight_cd_at_every_lambda(self):
        from repro.linalg.cd import lasso_cd

        X, y = _wide(40, 120, seed=1)
        lambdas = lambda_grid(X, y, num=10)
        rec = Recorder()
        with use_recorder(rec):
            out = lasso_homotopy(X, y, lambdas)
        assert out is not None
        counters = rec.counter_values()
        assert counters["homotopy.paths"] == 1
        assert counters["homotopy.steps"] >= np.count_nonzero(out[-1])
        assert "homotopy.drops" in counters
        beta = None
        for row, lam in zip(out, lambdas):
            beta = lasso_cd(X, y, float(lam), beta0=beta, max_iter=100000, tol=1e-12)
            np.testing.assert_array_equal(row != 0, beta != 0)
            np.testing.assert_allclose(row, beta, atol=1e-8)

    def test_uncertified_path_falls_back_to_admm_and_is_counted(self, monkeypatch):
        from repro.linalg import homotopy

        X, y = _wide()
        lambdas = lambda_grid(X, y, num=8)
        monkeypatch.setattr(homotopy, "STEPS_PER_RANK", 0)  # bound: q steps
        assert lasso_homotopy(X, y, lambdas) is None
        out, counters = _path(X, y, lambdas)
        assert counters["homotopy.fallbacks"] == 1
        assert counters["admm.solves"] == len(lambdas)
        solver, beta = LassoADMM(X, y), None
        for row, lam in zip(out, lambdas):
            beta = solver.solve(float(lam), beta0=beta).beta
            assert row.tobytes() == beta.tobytes()

    def test_rejects_increasing_grid(self):
        X, y = _wide()
        with pytest.raises(ValueError, match="non-increasing"):
            lasso_homotopy(X, y, np.array([1.0, 2.0]))

    def test_kkt_certificate_rejects_a_non_minimiser(self):
        X, y = _wide()
        lam = float(lambda_grid(X, y, num=4)[2])
        beta = lasso_homotopy(X, y, np.array([lam]))[0]
        assert kkt_certified(X.T @ (y - X @ beta), beta, lam)
        off = beta * 1.01
        assert not kkt_certified(X.T @ (y - X @ off), off, lam)


class TestDegenerateInputs:
    def test_duplicate_column(self):
        X, y = _wide(seed=2)
        lambdas = lambda_grid(X, y, num=8)
        first = lasso_homotopy(X, y, lambdas)
        lead = int(np.argmax(np.abs(first[-1])))  # a column on the path
        X = np.insert(X, 7, X[:, lead], axis=1)
        out, _ = _assert_certified(X, y, lambdas)
        # The copy never joins beside its twin: the 0/0 join is "never".
        lead += lead >= 7
        assert not np.any((out[:, lead] != 0) & (out[:, 7] != 0))

    def test_zero_column(self):
        X, y = _wide(seed=3)
        X[:, 11] = 0.0
        out, _ = _assert_certified(X, y, lambda_grid(X, y, num=8))
        assert not out[:, 11].any()

    def test_constant_column_after_centering(self):
        X, y = _wide(seed=4)
        X[:, 5] = 3.0
        rec = Recorder()
        with use_recorder(rec):
            model = UoILasso(WIDE.with_(fit_intercept=True)).fit(X, y)
        counters = rec.counter_values()
        assert counters["homotopy.paths"] == 2
        assert "homotopy.fallbacks" not in counters
        assert not model.supports_[:, 5].any()

    def test_zero_response(self):
        X, _ = _wide(seed=5)
        lambdas = np.array([2.0, 1.0, 0.5])
        out, _ = _assert_certified(X, np.zeros(X.shape[0]), lambdas)
        assert not out.any()

    def test_every_lambda_at_or_above_lambda_max(self):
        X, y = _wide(seed=6)
        lmax = 2.0 * float(np.max(np.abs(X.T @ y)))
        lambdas = lmax * np.array([4.0, 2.0, 1.0])
        out, counters = _assert_certified(X, y, lambdas)
        assert not out.any()
        assert counters["homotopy.steps"] == 0

    def test_single_lambda_grid(self):
        X, y = _wide(seed=7)
        lam = lambda_grid(X, y, num=10)[-1:]
        out, _ = _assert_certified(X, y, lam)
        assert out.shape == (1, X.shape[1]) and out.any()

    def test_bootstrap_duplicated_rows_saturate_the_rank(self):
        """Rows drawn from 12 distinct ones: rank(X) = 12 < n = 30, and the
        active set grows to exactly that rank without breaking the factor."""
        X, y = _wide(seed=8)
        rows = np.random.default_rng(8).choice(12, size=X.shape[0])
        Xb, yb = X[rows], y[rows]
        rank = np.linalg.matrix_rank(Xb)
        assert rank == 12 < Xb.shape[0]
        lambdas = lambda_grid(Xb, yb, num=12, eps=1e-6)
        out, _ = _assert_certified(Xb, yb, lambdas)
        assert np.count_nonzero(out[-1]) == rank


class TestSelectionIsExact:
    """The wide twin of ``TestSelectionConverges``: the default selection
    on ``n < p`` is the exact path, so UoI intersects true minimisers."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_family_equals_converged_cd_family(self, seed):
        ds = make_sparse_regression(
            40, 120, n_informative=6, rng=np.random.default_rng(seed)
        )
        kw = dict(n_lambdas=8, n_selection_bootstraps=2,
                  n_estimation_bootstraps=2, random_state=seed)
        rec = Recorder()
        with use_recorder(rec):
            exact = UoILasso(**kw).fit(ds.X, ds.y)
        counters = rec.counter_values()
        assert counters["homotopy.paths"] == 2  # one per selection bootstrap
        assert "admm.solves" not in counters
        assert "homotopy.fallbacks" not in counters

        cd = UoILasso(solver="cd", max_iter=20000, cd_tol=1e-12, **kw).fit(ds.X, ds.y)
        np.testing.assert_array_equal(exact.supports_, cd.supports_)


class TestIdentity:
    @pytest.fixture(scope="class")
    def wide_data(self):
        return _wide(30, 70, seed=9)

    @pytest.mark.parametrize(
        "executor",
        [MultiprocessExecutor(max_workers=2), SimMpiExecutor(nranks=2)],
        ids=["multiprocess", "simmpi"],
    )
    def test_wide_fit_bitwise_across_backends(self, wide_data, executor):
        X, y = wide_data
        ref = UoILasso(WIDE).fit(X, y, executor=SerialExecutor())
        got = UoILasso(WIDE).fit(X, y, executor=executor)
        assert got.coef_.tobytes() == ref.coef_.tobytes()
        assert got.losses_.tobytes() == ref.losses_.tobytes()
        np.testing.assert_array_equal(got.supports_, ref.supports_)
        np.testing.assert_array_equal(got.winners_, ref.winners_)

    def test_wide_meta_names_the_selection(self, wide_data):
        X, y = wide_data
        assert LassoPlan(WIDE, X, y).meta()["selection"] == "homotopy"
        assert "selection" not in LassoPlan(WIDE.with_(solver="cd"), X, y).meta()

    def test_wide_store_with_the_old_meta_is_refused(self, wide_data, tmp_path):
        X, y = wide_data
        old = LassoPlan(WIDE, X, y).meta()
        del old["selection"]  # what a store of ADMM selection payloads holds
        store = CheckpointStore(tmp_path / "s")
        store.ensure_meta(old)
        with pytest.raises(ValueError, match="different run"):
            UoILasso(WIDE).fit(X, y, checkpoint=CheckpointPlan(store))

    def test_tall_fit_meta_and_outputs_unchanged(self):
        ds = make_sparse_regression(60, 8, n_informative=3, rng=np.random.default_rng(3))
        plan = LassoPlan(WIDE, ds.X, ds.y)
        assert plan.meta() == {
            "kind": "serial_uoi_lasso", "n": 60, "p": 8, "q": 6, "B1": 2, "B2": 2,
            "random_state": 4, "intersection_frac": 1.0, **WIDE.solver_meta(),
        }
        # Selection is still the warm-started ADMM chain, bit for bit.
        idx = plan.selection_idx[0]
        X, y = plan.Xc[idx], plan.yc[idx]
        solver, beta, ref = LassoADMM(X, y), None, []
        for lam in plan.lambdas:
            beta = solver.solve(float(lam), beta0=beta).beta
            ref.append(beta)
        rec = Recorder()
        with use_recorder(rec):
            got = lasso_path(WIDE, X, y, plan.lambdas)
        assert got.tobytes() == np.array(ref).tobytes()
        assert "homotopy.paths" not in rec.counter_values()

    def test_tall_fit_resumes_bitwise(self, tmp_path):
        ds = make_sparse_regression(60, 8, n_informative=3, rng=np.random.default_rng(3))
        plain = UoILasso(WIDE).fit(ds.X, ds.y)
        plan = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        UoILasso(WIDE).fit(ds.X, ds.y, checkpoint=plan)
        resumed = UoILasso(WIDE).fit(ds.X, ds.y, checkpoint=plan)
        assert resumed.recovered_subproblems_ == 4
        assert resumed.completed_subproblems_ == 0
        assert resumed.coef_.tobytes() == plain.coef_.tobytes()
        assert resumed.losses_.tobytes() == plain.losses_.tobytes()


def test_flops_estimate_charges_the_path_on_wide_fits():
    X, y = _wide(30, 80)
    n, p = X.shape
    wide = LassoPlan(WIDE, X, y).estimate_flops()[SELECTION]
    assert wide == pytest.approx(WIDE.n_selection_bootstraps * n * (4 * n * p + n * n))
    admm_model = LassoPlan(WIDE.with_(solver="cd"), X, y).estimate_flops()[SELECTION]
    assert wide < admm_model
