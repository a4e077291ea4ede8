"""Workspace/pool semantics and the bitwise-identity contract of the
pooled ADMM path (ROADMAP item 2: reuse may change which memory holds
intermediates, never the float stream)."""

import numpy as np
import pytest

from repro.linalg.admm import LassoADMM
from repro.linalg.soft_threshold import soft_threshold, soft_threshold_into
from repro.perf.pool import (
    MAX_RETAINED_PER_KEY,
    Workspace,
    cache_stats,
    clear_cache,
    give,
    take,
)


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
        stats = cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_geometry_keys_are_distinct(self):
        a = take(16, float)
        give(a)
        assert take(16, np.float32) is not a
        assert take((16, 1)) is not a
        assert take(16) is a

    def test_give_rejects_views(self):
        base = take(64)
        give(base[:32])  # non-owning view: must be dropped
        assert cache_stats()["retained"] == 0
        give(np.empty((4, 4)).T)  # not C-contiguous: dropped too
        assert cache_stats()["retained"] == 0

    def test_retention_bound(self):
        for _ in range(MAX_RETAINED_PER_KEY + 3):
            give(np.empty(8))
        assert cache_stats()["retained"] == MAX_RETAINED_PER_KEY

    def test_clear_cache_resets(self):
        give(take(8))
        clear_cache()
        assert cache_stats() == {"hits": 0, "misses": 0, "retained": 0}


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
        assert cache_stats()["retained"] == 1


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


def _solve_state(solver, lam, **kwargs):
    result = solver.solve(lam, **kwargs)
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


class TestPooledBitwiseIdentity:
    # Both factorization branches: n > p (direct Cholesky of
    # X'X + rho*I) and n < p (Woodbury).
    SHAPES = [(60, 20), (15, 40)]
    LAMBDAS = [0.0, 0.3, 2.5]

    @pytest.mark.parametrize("n,p", SHAPES)
    @pytest.mark.parametrize(
        "kwargs", [{}, {"adapt_rho": True}, {"alpha": 1.0}]
    )
    def test_single_solves_identical(self, n, p, kwargs):
        X, y = _problem(n, p, seed=11)
        plain = LassoADMM(X, y, pool=False, **kwargs)
        pooled = LassoADMM(X, y, pool=True, **kwargs)
        for lam in self.LAMBDAS:
            assert _solve_state(
                plain, lam, record_history=True
            ) == _solve_state(pooled, lam, record_history=True), (n, p, lam)

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_warm_started_path_identical(self, n, p):
        X, y = _problem(n, p, seed=23)
        lams = [3.0, 1.0, 0.3]
        plain = [
            r.beta.tobytes()
            for r in LassoADMM(X, y, pool=False).solve_path(lams)
        ]
        pooled = [
            r.beta.tobytes()
            for r in LassoADMM(X, y, pool=True).solve_path(lams)
        ]
        assert plain == pooled

    def test_warm_dual_restart_identical(self):
        X, y = _problem(40, 12, seed=5)
        states = []
        for pool in (False, True):
            solver = LassoADMM(X, y, pool=pool)
            first = solver.solve(0.8)
            second = solver.solve(
                0.4, beta0=first.beta, u0=first.dual
            )
            states.append(
                (first.beta.tobytes(), second.beta.tobytes(),
                 second.dual.tobytes(), second.iterations)
            )
        assert states[0] == states[1]

    def test_pooled_result_does_not_alias_workspace(self):
        X, y = _problem(30, 8, seed=1)
        solver = LassoADMM(X, y, pool=True)
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

    def test_lockstep_equals_unpooled_column_solves(self):
        X, Y = self._columns(60, 10, 6, seed=3)
        states = []
        for pool in (False, True):
            solver = LassoADMM(X, Y[:, 0], pool=pool, max_iter=2000)
            first = solver.solve_columns(Y, 4.0)
            second = solver.solve_columns(
                Y, 1.0,
                beta0=np.column_stack([r.beta for r in first]),
                u0=np.column_stack([r.dual for r in first]),
            )
            states.append([
                (r.beta.tobytes(), r.dual.tobytes(), r.iterations,
                 r.converged, r.primal_residual, r.dual_residual, r.objective)
                for r in first + second
            ])
        assert states[0] == states[1]

    def test_repeat_calls_take_no_new_buffers(self):
        X, Y = self._columns(60, 10, 6, seed=3)
        solver = LassoADMM(X, Y[:, 0], max_iter=2000)
        first = solver.solve_columns(Y, 4.0)
        assert len({r.iterations for r in first}) > 1  # columns did retire
        misses, slots = cache_stats()["misses"], len(solver._ws)
        solver.solve_columns(Y, 1.0)
        assert cache_stats()["misses"] == misses
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
