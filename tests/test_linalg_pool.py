"""Workspace/pool semantics and the bitwise-identity contract of the
pooled ADMM path (ROADMAP item 2: reuse may change which memory holds
intermediates, never the float stream)."""

import functools
import math

import numpy as np
import pytest

from repro.linalg.admm import ALPHA, ADMMResult, LassoADMM
from repro.linalg.soft_threshold import soft_threshold, soft_threshold_into
from repro.perf import pool
from repro.perf.pool import MAX_RETAINED_PER_KEY, Workspace, clear_cache, give, take


def _retained():
    """Buffers the module cache currently holds."""
    return sum(len(free) for free in pool._CACHE.values())


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestModuleCache:
    def test_take_miss_then_hit(self):
        first = take(32)
        give(first)
        assert take(32) is first

    def test_geometry_keys_are_distinct(self):
        a = take(16, float)
        give(a)
        assert take(16, np.float32) is not a
        assert take((16, 1)) is not a
        assert take(16) is a

    def test_give_rejects_views(self):
        base = take(64)
        give(base[:32])  # non-owning view: must be dropped
        assert _retained() == 0
        give(np.empty((4, 4)).T)  # not C-contiguous: dropped too
        assert _retained() == 0

    def test_retention_bound(self):
        for _ in range(MAX_RETAINED_PER_KEY + 3):
            give(np.empty(8))
        assert _retained() == MAX_RETAINED_PER_KEY

    def test_clear_cache_resets(self):
        give(take(8))
        clear_cache()
        assert _retained() == 0


class TestWorkspace:
    def test_named_slot_is_stable(self):
        ws = Workspace()
        z = ws.array("z", 100)
        assert ws.array("z", 100) is z
        assert len(ws) == 1 and list(ws) == ["z"]

    def test_geometry_change_swaps_buffer(self):
        ws = Workspace()
        old = ws.array("z", 10)
        new = ws.array("z", 20)
        assert new is not old and new.shape == (20,)
        # The displaced buffer went back to the cache.
        assert take(10) is old

    def test_swap_rotates_slots(self):
        ws = Workspace()
        a, b = ws.array("z", 4), ws.array("z_old", 4)
        ws.swap("z", "z_old")
        assert ws.array("z", 4) is b and ws.array("z_old", 4) is a

    def test_release_returns_all_slots(self):
        ws = Workspace()
        z = ws.array("z", 12)
        u = ws.array("u", 12)
        ws.release()
        assert len(ws) == 0
        assert {id(take(12)), id(take(12))} == {id(z), id(u)}

    def test_context_manager_releases(self):
        with Workspace() as ws:
            ws.array("t", 6)
        assert _retained() == 1


class TestSoftThresholdInto:
    def test_bitwise_equal_to_allocating_form(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257)
        for kappa in (0.0, 1e-12, 0.37, 5.0):
            out = np.empty_like(x)
            scratch = np.empty_like(x)
            result = soft_threshold_into(x, kappa, out=out, scratch=scratch)
            assert result is out
            assert result.tobytes() == soft_threshold(x, kappa).tobytes()


def _problem(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: max(1, p // 5)] = rng.standard_normal(max(1, p // 5))
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return X, y


def reference_admm(solver, lam, y=None, beta0=None, u0=None,
                   record_history=False):
    """The allocating ADMM iteration: the bitwise ground truth of
    ``LassoADMM.solve`` and ``solve_columns``.

    It runs on ``solver``'s design, penalty, tolerances and cached
    factor, for response ``y`` (default ``solver.y``), with a fresh
    array for every intermediate.  The library's iteration performs the
    same float operations in the same order in ``out=`` forms on its
    workspace.  IEEE ``+``/``*`` are commutative bitwise, so
    ``np.add(q, Xty2, out=q)`` equals ``Xty2 + q``, and the split
    ``u += x_hat; u -= z`` evaluates ``(u + x_hat) - z`` exactly as
    below.
    """
    X, p, rho = solver.X, solver.p, solver.rho
    y = solver.y if y is None else np.ascontiguousarray(y, dtype=float)
    Xty2 = 2.0 * (X.T @ y)

    def solve_normal(q):
        if not solver._woodbury:
            return solver._potrs(q, overwrite=False)
        # Woodbury: (rho I + 2X'X)^{-1} q
        #   = q/rho - (2/rho^2) X' (I + (2/rho) X X')^{-1} X q
        inner = solver._potrs(X @ q, overwrite=True)
        return q / rho - (2.0 / rho**2) * (X.T @ inner)

    z = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    u = np.zeros(p) if u0 is None else np.asarray(u0, dtype=float).copy()
    history = []
    sqrtp = np.sqrt(p)

    converged = False
    r_norm = s_norm = np.inf
    it = 0
    for it in range(1, solver.max_iter + 1):
        x = solve_normal(Xty2 + rho * (z - u))
        x_hat = ALPHA * x + (1.0 - ALPHA) * z
        z_old = z
        z = soft_threshold(x_hat + u, lam / rho)
        u = u + x_hat - z

        diff = x - z
        r_norm = math.sqrt(float(diff @ diff))
        dz = z - z_old
        s_norm = rho * math.sqrt(float(dz @ dz))
        if record_history:
            history.append((r_norm, s_norm, solver._objective(y, z, lam)))

        eps_pri = sqrtp * solver.abstol + solver.reltol * max(
            math.sqrt(float(x @ x)), math.sqrt(float(z @ z))
        )
        eps_dual = sqrtp * solver.abstol + solver.reltol * rho * math.sqrt(
            float(u @ u)
        )
        if r_norm < eps_pri and s_norm < eps_dual:
            converged = True
            break

    return ADMMResult(
        beta=z,
        iterations=it,
        converged=converged,
        primal_residual=r_norm,
        dual_residual=s_norm,
        history=history,
        dual=u,
        _objective=functools.partial(solver._objective, y, lam=lam),
    )


def _state(result):
    return {
        "beta": result.beta.tobytes(),
        "dual": result.dual.tobytes(),
        "iterations": result.iterations,
        "converged": result.converged,
        "primal": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "history": list(result.history),
    }


def _solve_state(solver, lam, **kwargs):
    return _state(solver.solve(lam, **kwargs))


def _reference_state(solver, lam, **kwargs):
    return _state(reference_admm(solver, lam, **kwargs))


class TestPooledBitwiseIdentity:
    # Both factorization branches: n > p (direct Cholesky of
    # X'X + rho*I) and n < p (Woodbury).
    SHAPES = [(60, 20), (15, 40)]
    LAMBDAS = [0.0, 0.3, 2.5]

    # Default config, an explicit off-spectrum rho, and a budget that
    # runs out before the tolerances are met.
    @pytest.mark.parametrize("n,p", SHAPES)
    @pytest.mark.parametrize(
        "kwargs", [{}, {"rho": 1.0}, {"max_iter": 7}]
    )
    def test_single_solves_identical(self, n, p, kwargs):
        X, y = _problem(n, p, seed=11)
        solver = LassoADMM(X, y, **kwargs)
        for lam in self.LAMBDAS:
            assert _reference_state(
                solver, lam, record_history=True
            ) == _solve_state(solver, lam, record_history=True), (n, p, lam)

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_warm_started_path_identical(self, n, p):
        X, y = _problem(n, p, seed=23)
        lams = [3.0, 1.0, 0.3]
        solver = LassoADMM(X, y)
        plain, beta = [], None
        for lam in lams:
            beta = reference_admm(solver, lam, beta0=beta).beta
            plain.append(beta.tobytes())
        pooled = [r.beta.tobytes() for r in solver.solve_path(lams)]
        assert plain == pooled

    def test_warm_dual_restart_identical(self):
        X, y = _problem(40, 12, seed=5)
        solver = LassoADMM(X, y)
        states = []
        for run in (functools.partial(reference_admm, solver), solver.solve):
            first = run(0.8)
            second = run(0.4, beta0=first.beta, u0=first.dual)
            states.append(
                (first.beta.tobytes(), second.beta.tobytes(),
                 second.dual.tobytes(), second.iterations)
            )
        assert states[0] == states[1]

    def test_pooled_result_does_not_alias_workspace(self):
        X, y = _problem(30, 8, seed=1)
        solver = LassoADMM(X, y)
        first = solver.solve(0.5)
        snapshot = first.beta.copy()
        solver.solve(0.1)  # reuses the workspace buffers
        np.testing.assert_array_equal(first.beta, snapshot)
        assert first.beta.base is None


class TestLockstepColumns:
    """``solve_columns`` on the pooled workspace: the lock-step matrix
    iterate against the allocating reference, and its buffer reuse."""

    @staticmethod
    def _columns(n, p, m, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        Y = X @ (rng.standard_normal((p, m)) * (rng.random((p, m)) < 0.3))
        Y += 0.1 * rng.standard_normal((n, m))
        Y[:, m // 2] = 0.0  # retires early: the active block shrinks
        return X, Y

    @staticmethod
    def _reference_columns(solver, Y, lam, beta0=None, u0=None):
        return [
            reference_admm(
                solver, lam, y=Y[:, c],
                beta0=None if beta0 is None else beta0[:, c],
                u0=None if u0 is None else u0[:, c],
            )
            for c in range(Y.shape[1])
        ]

    def test_lockstep_equals_unpooled_column_solves(self):
        """Cholesky branch: bitwise equal to the reference per column."""
        X, Y = self._columns(60, 10, 6, seed=3)
        solver = LassoADMM(X, Y[:, 0], max_iter=2000)
        states = []
        for run in (
            functools.partial(self._reference_columns, solver),
            solver.solve_columns,
        ):
            first = run(Y, 4.0)
            second = run(
                Y, 1.0,
                beta0=np.column_stack([r.beta for r in first]),
                u0=np.column_stack([r.dual for r in first]),
            )
            states.append([_state(r) for r in first + second])
        assert states[0] == states[1]

    def test_lockstep_woodbury_within_rounding_of_reference(self):
        """Woodbury branch: GEMM rounds differently from the reference's
        GEMV, so supports and iteration counts agree and coefficients
        to rounding."""
        X, Y = self._columns(14, 30, 4, seed=2)
        solver = LassoADMM(X, Y[:, 0], max_iter=4000)
        for lam in (8.0, 1.0):
            got = solver.solve_columns(Y, lam)
            want = self._reference_columns(solver, Y, lam)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.beta != 0, w.beta != 0)
                np.testing.assert_allclose(g.beta, w.beta, rtol=0, atol=1e-10)
                assert (g.iterations, g.converged) == (w.iterations, w.converged)

    def test_repeat_calls_take_no_new_buffers(self, monkeypatch):
        X, Y = self._columns(60, 10, 6, seed=3)
        solver = LassoADMM(X, Y[:, 0], max_iter=2000)
        first = solver.solve_columns(Y, 4.0)
        assert len({r.iterations for r in first}) > 1  # columns did retire
        slots = len(solver._ws)
        taken = []
        monkeypatch.setattr(pool, "take", lambda *args: taken.append(args))
        solver.solve_columns(Y, 1.0)
        assert taken == []
        assert len(solver._ws) == slots

    def test_results_do_not_alias_workspace(self):
        X, Y = self._columns(40, 8, 3, seed=5)
        solver = LassoADMM(X, Y[:, 0])
        first = solver.solve_columns(Y, 2.0)
        snapshot = [(r.beta.copy(), r.dual.copy()) for r in first]
        solver.solve_columns(Y, 0.5)
        for res, (beta, dual) in zip(first, snapshot):
            assert res.beta.base is None and res.dual.base is None
            np.testing.assert_array_equal(res.beta, beta)
            np.testing.assert_array_equal(res.dual, dual)
