"""Exact homotopy LASSO path: the ``n < p`` selection solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dtpttr

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
from repro.linalg import homotopy
from repro.linalg.admm import LassoADMM
from repro.linalg.homotopy import _Path, kkt_certified, lasso_homotopy
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

    def test_path_with_drops_is_certified_and_matches_tight_cd(self):
        from repro.linalg.cd import lasso_cd

        X, y = _wide(40, 120, seed=2)
        lambdas = lambda_grid(X, y, num=10)
        out, counters = _assert_certified(X, y, lambdas)
        assert counters["homotopy.drops"] >= 5
        beta = None
        for row, lam in zip(out, lambdas):
            beta = lasso_cd(X, y, float(lam), beta0=beta, max_iter=100000, tol=1e-12)
            np.testing.assert_array_equal(row != 0, beta != 0)

    def test_uncertified_path_falls_back_to_admm_and_is_counted(self, monkeypatch):
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


def _assert_factor(path):
    """``R'R`` equals ``XA'XA`` of the active columns, with positive pivots."""
    k = path.k
    XA = path.XA[:, :k]
    np.testing.assert_array_equal(XA, path.X[:, path.idx[:k]])
    if not k:
        return
    R = np.triu(dtpttr(k, path.R[:k * (k + 1) // 2])[0])
    assert (np.diag(R) > 0).all()
    G = XA.T @ XA
    np.testing.assert_allclose(R.T @ R, G, rtol=0, atol=1e-10 * np.abs(G).max())


class TestFactor:
    """The packed factor through arbitrary join/drop sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 24),
        extra=st.integers(1, 30),
        bootstrap=st.booleans(),
        events=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=60
        ),
    )
    def test_invariant_after_every_join_and_drop(self, seed, n, extra, bootstrap, events):
        rng = np.random.default_rng(seed)
        p = n + extra
        X = rng.standard_normal((n, p))
        X[:, 1] = X[:, 0]  # a duplicated column: never active beside its twin
        if bootstrap:  # rows drawn from fewer distinct ones: rank(X) < n
            X = X[rng.choice(max(2, n // 2), size=n)]
        rank = np.linalg.matrix_rank(X)
        path = _Path(np.ascontiguousarray(X), rng.standard_normal(n))
        for join, pick in events:
            k = path.k
            active = set(path.idx[:k].tolist())
            if k and (not join or k == rank):
                assert path.drop(pick % k)
            else:
                twins = {0, 1} if active & {0, 1} else set()
                free = [j for j in range(p) if j not in active | twins]
                assert path.join(free[pick % len(free)], 1.0 if pick % 2 else -1.0)
            _assert_factor(path)


def _parent_next_event(c, a, gamma, idx, barred, s, b, d):
    """The event search as two per-side join-time passes and a drop search
    by boolean compression: the reference ``_Path.next_event`` must match."""

    def join_times(side):
        num = np.maximum(c * -side + gamma, 0.0)
        den = a * -side + 1.0
        out = np.full(len(c), np.inf)
        np.divide(num, den, out=out, where=den > homotopy.RATE_MIN)
        return out

    tp, tm = join_times(1.0), join_times(-1.0)
    first = np.minimum(tp, tm)
    first[idx] = np.inf
    if barred >= 0:
        first[barred] = np.inf
    j = int(np.argmin(first))
    t = float(first[j])
    sign = 1.0 if tp[j] <= tm[j] else -1.0
    if len(idx):
        rate = -s * d
        shrink = rate > 0.0
        if shrink.any():
            times = np.maximum(s[shrink] * b[shrink], 0.0) / rate[shrink]
            pos = int(np.argmin(times))
            if times[pos] < t:
                return float(times[pos]), -1 - int(np.flatnonzero(shrink)[pos]), 0.0
    return t, j, sign


#: ``1 ∓ a`` cannot land on ``1e-9`` itself; the event tests move
#: ``RATE_MIN`` to the nearest rate it can land on.
_RATE_EDGE = 1.0 - (1.0 - homotopy.RATE_MIN)
_EDGE_A = 1.0 - homotopy.RATE_MIN
_SPECIAL_A = [0.0, -0.0, 1.0, -1.0, 0.5, _EDGE_A, -_EDGE_A,
              math.nextafter(_EDGE_A, 2.0), math.nextafter(_EDGE_A, 0.0)]
_SPECIAL_C = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]


def _event_state(c, a, gamma, active, barred, s, b, d):
    """A ``_Path`` whose buffers hold the given correlations and segment."""
    p, k = len(c), len(active)
    path = _Path(np.zeros((p, p)), np.zeros(p))
    path.CA[:, 0], path.CA[:, 1] = c, a
    path.k = k
    path.idx[:k], path.sgn[:k] = active, s
    path.bd[:k], path.bd[k:2 * k] = b, d
    return path


def _bits(event):
    t, j, sign = event
    return np.float64(t).tobytes(), j, np.float64(sign).tobytes()


@st.composite
def _events(draw):
    p = draw(st.integers(1, 12))
    floats = st.floats(-4.0, 4.0, allow_nan=False)
    c = np.array(draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_C), floats),
                               min_size=p, max_size=p)))
    a = np.array(draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_A), floats),
                               min_size=p, max_size=p)))
    gamma = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0)))
    order = draw(st.permutations(range(p)))
    k = draw(st.integers(0, p))
    active = np.array(order[:k], dtype=np.intp)
    barred = draw(st.sampled_from([-1, *order[k:]]))
    s = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=k, max_size=k)))
    segment = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), floats)
    b = np.array(draw(st.lists(segment, min_size=k, max_size=k)))
    d = np.array(draw(st.lists(segment, min_size=k, max_size=k)))
    return c, a, gamma, active, barred, s, b, d


class TestEventSearch:
    """``next_event`` returns the per-side formula's ``(t, j, sign)`` bits."""

    @settings(max_examples=300, deadline=None)
    @given(state=_events())
    def test_matches_the_per_side_formula(self, state):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homotopy, "RATE_MIN", _RATE_EDGE)
            got = _event_state(*state).next_event(state[2], state[4])
            assert _bits(got) == _bits(_parent_next_event(*state))

    def test_rate_at_the_threshold_is_never(self, monkeypatch):
        monkeypatch.setattr(homotopy, "RATE_MIN", _RATE_EDGE)
        c = np.array([0.5, 0.5, -0.5, -0.5, 0.5])
        a = np.array([_EDGE_A, math.nextafter(_EDGE_A, 0.0), -_EDGE_A, 0.0, 0.0])
        assert 1.0 - a[0] == _RATE_EDGE  # exactly at the threshold
        state = (c, a, 1.0, np.empty(0, np.intp), -1, *[np.empty(0)] * 3)
        path = _event_state(*state)
        assert _bits(path.next_event(1.0, -1)) == _bits(_parent_next_event(*state))
        times = path.times
        assert times[0, 0] == np.inf and times[1, 2] == np.inf  # at: never
        assert np.isfinite(times[0, 1])  # one ulp above: reached

    def test_ties_go_to_the_lower_index_then_to_plus(self):
        # c = a = 0: both sides of every index join after gamma steps.
        c, a = np.zeros(4), np.zeros(4)
        state = (c, a, 1.0, np.array([0], np.intp), 2, *[np.zeros(1)] * 3)
        got = _event_state(*state).next_event(1.0, 2)
        assert got == (1.0, 1, 1.0)
        assert _bits(got) == _bits(_parent_next_event(*state))

    @pytest.mark.parametrize("barred", [-1, 3])
    def test_all_masked_is_inf(self, barred):
        # Every index active (or barred); index 0's unmasked times favour
        # "-", which the sign still reports, as the per-side formula did.
        c = np.array([-0.5, 0.1, 0.2, 0.3])
        a = np.zeros(4)
        active = np.array([0, 1, 2] if barred >= 0 else [0, 1, 2, 3], np.intp)
        k = len(active)
        s, b, d = np.ones(k), np.ones(k), np.ones(k)  # every |b_i| grows
        state = (c, a, 1.0, active, barred, s, b, d)
        got = _event_state(*state).next_event(1.0, barred)
        assert got == (math.inf, 0, -1.0)
        assert _bits(got) == _bits(_parent_next_event(*state))


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
