"""Tests for coordinate descent, OLS, Ridge, MCP/SCAD and the λ grid."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import (
    lambda_grid,
    lambda_max,
    lasso_cd,
    lasso_cd_path,
    mcp_regression,
    ols,
    ols_family_columns,
    ols_from_gram,
    ols_on_support,
    ridge,
    scad_regression,
)
from repro.telemetry import Recorder, use_recorder


@pytest.fixture
def problem():
    rng = np.random.default_rng(1)
    n, p = 100, 10
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[0, 3, 7]] = [3.0, -2.0, 2.5]
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return X, y, beta


class TestLambdaGrid:
    def test_lambda_max_zeroes_lasso(self, problem):
        X, y, _ = problem
        lmax = lambda_max(X, y)
        beta = lasso_cd(X, y, lmax * 1.0001)
        np.testing.assert_array_equal(beta, np.zeros(X.shape[1]))

    def test_just_below_lambda_max_selects(self, problem):
        X, y, _ = problem
        beta = lasso_cd(X, y, lambda_max(X, y) * 0.95)
        assert (beta != 0).sum() >= 1

    def test_grid_is_decreasing(self, problem):
        X, y, _ = problem
        grid = lambda_grid(X, y, num=10)
        assert len(grid) == 10
        assert np.all(np.diff(grid) < 0)

    def test_grid_endpoints(self, problem):
        X, y, _ = problem
        grid = lambda_grid(X, y, num=5, eps=1e-2)
        assert grid[0] == pytest.approx(lambda_max(X, y))
        assert grid[-1] == pytest.approx(lambda_max(X, y) * 1e-2)

    def test_degenerate_data_falls_back(self):
        X = np.zeros((4, 2))
        grid = lambda_grid(X, np.zeros(4), num=3)
        assert len(grid) == 3 and np.all(grid > 0)

    def test_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError, match="num"):
            lambda_grid(X, y, num=0)
        with pytest.raises(ValueError, match="eps"):
            lambda_grid(X, y, eps=2.0)
        with pytest.raises(ValueError, match="y shape"):
            lambda_max(X, y[:-1])


class TestCoordinateDescent:
    def test_ols_limit(self, problem):
        X, y, _ = problem
        np.testing.assert_allclose(
            lasso_cd(X, y, 0.0, max_iter=5000),
            np.linalg.lstsq(X, y, rcond=None)[0],
            atol=1e-5,
        )

    def test_kkt_conditions(self, problem):
        """At the optimum: |2 x_j'(y - Xb)| <= lam, with equality on support."""
        X, y, _ = problem
        lam = 5.0
        beta = lasso_cd(X, y, lam, tol=1e-12)
        grad = 2.0 * X.T @ (y - X @ beta)
        on = beta != 0
        np.testing.assert_allclose(np.abs(grad[on]), lam, rtol=1e-5)
        assert np.all(np.abs(grad[~on]) <= lam * (1 + 1e-6))

    def test_zero_column_stays_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        X[:, 2] = 0.0
        y = rng.standard_normal(30)
        beta = lasso_cd(X, y, 0.5)
        assert beta[2] == 0.0

    def test_warm_start(self, problem):
        X, y, _ = problem
        cold = lasso_cd(X, y, 3.0)
        warm = lasso_cd(X, y, 3.0, beta0=cold)
        np.testing.assert_allclose(cold, warm, atol=1e-8)

    def test_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError, match="lam"):
            lasso_cd(X, y, -1.0)
        with pytest.raises(ValueError, match="beta0"):
            lasso_cd(X, y, 1.0, beta0=np.zeros(3))


class TestOls:
    def test_exact_on_square_system(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 6))
        beta = rng.standard_normal(6)
        np.testing.assert_allclose(ols(X, X @ beta), beta, atol=1e-8)

    def test_rank_deficient_does_not_blow_up(self):
        X = np.ones((10, 3))  # rank 1
        y = np.ones(10)
        beta = ols(X, y)
        np.testing.assert_allclose(X @ beta, y, atol=1e-8)

    def test_on_support_zeros_off_support(self, problem):
        X, y, _ = problem
        mask = np.zeros(10, dtype=bool)
        mask[[0, 3]] = True
        beta = ols_on_support(X, y, mask)
        assert np.all(beta[~mask] == 0.0)
        restricted = ols(X[:, [0, 3]], y)
        np.testing.assert_allclose(beta[[0, 3]], restricted)

    def test_integer_index_support(self, problem):
        X, y, _ = problem
        by_mask = ols_on_support(X, y, np.array([True] + [False] * 9))
        by_idx = ols_on_support(X, y, np.array([0]))
        np.testing.assert_allclose(by_mask, by_idx)

    def test_empty_support_gives_zero(self, problem):
        X, y, _ = problem
        np.testing.assert_array_equal(
            ols_on_support(X, y, np.zeros(10, dtype=bool)), np.zeros(10)
        )

    def test_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError, match="support"):
            ols_on_support(X, y, np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match="out of range"):
            ols_on_support(X, y, np.array([99]))

    def test_duplicate_indices_rejected(self, problem):
        # Duplicates used to split the coefficient between the copies
        # ([0, 0, 1, 4] gave half of beta[0]).
        X, y, _ = problem
        G, c = X.T @ X, X.T @ y
        with pytest.raises(ValueError, match="distinct"):
            ols_on_support(X, y, np.array([0, 0, 1, 4]))
        with pytest.raises(ValueError, match="distinct"):
            ols_from_gram(G, c, np.array([0, 0, 1, 4]), X, y)

    def test_float_indices_rejected(self, problem):
        # Float indices used to be truncated silently by astype(intp).
        X, y, _ = problem
        G, c = X.T @ X, X.T @ y
        with pytest.raises(ValueError, match="integers"):
            ols_on_support(X, y, np.array([0.0, 3.7]))
        with pytest.raises(ValueError, match="integers"):
            ols_from_gram(G, c, np.array([0.0, 3.7]), X, y)


def _ols_counts(fn, *args):
    rec = Recorder()
    with use_recorder(rec):
        out = fn(*args)
    counts = rec.counter_values()
    return out, counts.get("ols.solves", 0), counts.get("ols.gram_fallbacks", 0)


class TestGramOls:
    """The normal-equations path of the estimation stage and its SVD
    fallback."""

    @pytest.mark.parametrize(
        "eps",
        [0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2],
    )
    def test_collinearity_sweep(self, problem, eps):
        X0, y, _ = problem
        rng = np.random.default_rng(5)
        X = np.column_stack([X0, X0[:, 3] + eps * rng.standard_normal(len(y))])
        support = np.ones(X.shape[1], dtype=bool)
        svd = ols_on_support(X, y, support)
        gram, solves, fallbacks = _ols_counts(
            ols_from_gram, X.T @ X, X.T @ y, support, X, y
        )
        assert solves == 1
        if fallbacks:
            assert gram.tobytes() == svd.tobytes()
        else:
            np.testing.assert_allclose(gram, svd, rtol=1e-7, atol=0)
        # The floor is what decides: only the well-separated end of the
        # sweep is solved from the Gram.
        assert fallbacks == (eps < 1e-3)

    def test_matches_svd_on_well_conditioned_support(self, problem):
        X, y, _ = problem
        mask = np.zeros(10, dtype=bool)
        mask[[0, 3, 7]] = True
        gram, solves, fallbacks = _ols_counts(
            ols_from_gram, X.T @ X, X.T @ y, mask, X, y
        )
        assert (solves, fallbacks) == (1, 0)
        assert np.all(gram[~mask] == 0.0)
        np.testing.assert_allclose(gram, ols_on_support(X, y, mask), rtol=1e-12)

    def test_more_columns_than_rows_falls_back(self, problem):
        X, y, _ = problem
        X, y = X[:6], y[:6]
        support = np.arange(8)
        gram, solves, fallbacks = _ols_counts(
            ols_from_gram, X.T @ X, X.T @ y, support, X, y
        )
        assert (solves, fallbacks) == (1, 1)
        assert gram.tobytes() == ols_on_support(X, y, support).tobytes()

    def test_zero_column_falls_back(self, problem):
        # dpotrf fails on the zero pivot; lstsq gives the min-norm 0.
        X, y, _ = problem
        X = X.copy()
        X[:, 2] = 0.0
        mask = np.zeros(10, dtype=bool)
        mask[[0, 2, 3]] = True
        gram, solves, fallbacks = _ols_counts(
            ols_from_gram, X.T @ X, X.T @ y, mask, X, y
        )
        assert (solves, fallbacks) == (1, 1)
        assert gram.tobytes() == ols_on_support(X, y, mask).tobytes()

    def test_empty_support(self, problem):
        X, y, _ = problem
        gram, solves, fallbacks = _ols_counts(
            ols_from_gram, X.T @ X, X.T @ y, np.zeros(10, dtype=bool), X, y
        )
        assert (solves, fallbacks) == (0, 0)
        np.testing.assert_array_equal(gram, np.zeros(10))

    def test_family_counts_distinct_supports(self, problem):
        X, y, _ = problem
        family = np.zeros((5, 10), dtype=bool)
        family[1:, 0] = True
        family[2:, 3] = True
        family[3, 7] = True  # rows 2 and 4 share the support {0, 3}
        est, solves, fallbacks = _ols_counts(
            ols_family_columns, X, y[:, None], family
        )
        assert (solves, fallbacks) == (3, 0)
        for j in range(5):
            np.testing.assert_allclose(
                est[j], ols_on_support(X, y, family[j]), rtol=1e-12, atol=1e-15
            )

    def test_family_fallback_is_bitwise_svd(self, problem):
        X, y, _ = problem
        X = np.column_stack([X, X[:, 0]])  # exact duplicate of column 0
        family = np.zeros((2, 11), dtype=bool)
        family[0, [0, 3]] = True
        family[1, [0, 3, 10]] = True
        est, solves, fallbacks = _ols_counts(
            ols_family_columns, X, y[:, None], family
        )
        assert (solves, fallbacks) == (2, 1)
        assert est[1].tobytes() == ols_on_support(X, y, family[1]).tobytes()


OLS_COUNTERS = ("ols.solves", "ols.gram_fallbacks", "ols.empty_supports", "ols.rows")


def _per_cell_family(X, Y, family):
    """``ols_family_columns`` as one ``ols_from_gram`` per distinct
    (column, support): the ungrouped reference."""
    kdim, p = X.shape[1], Y.shape[1]
    masks = family.reshape(len(family), p, kdim)
    union = masks.any(axis=(0, 1))
    XU = X[:, union]
    G, C = XU.T @ XU, XU.T @ Y
    out = np.zeros(masks.shape)
    cache = {}
    for j, row in enumerate(masks):
        for c, mask in enumerate(row):
            key = (c, mask.tobytes())
            if key not in cache:
                cache[key] = ols_from_gram(G, C[:, c], mask[union], XU, Y[:, c])
            out[j, c, union] = cache[key]
    return out.reshape(family.shape)


def _ols_counters(fn, *args):
    rec = Recorder()
    with use_recorder(rec):
        out = fn(*args)
    counts = rec.counter_values()
    return out, {k: counts.get(k, 0.0) for k in OLS_COUNTERS}, counts


class TestGroupedOls:
    """One factor per distinct support, shared by every column holding
    it: bitwise the per-(column, support) solves, same counts."""

    @pytest.mark.parametrize("size", list(range(1, 65)))
    def test_multi_rhs_potrs_is_columnwise_single_rhs(self, size):
        from scipy.linalg.lapack import dpotrf, dpotrs

        rng = np.random.default_rng(size)
        A = rng.standard_normal((size + 3, size))
        L, info = dpotrf(A.T @ A, lower=1)
        assert info == 0
        for nrhs in range(1, 9):
            B = rng.standard_normal((size, nrhs))
            multi = dpotrs(L, B, lower=1)[0]
            for i in range(nrhs):
                single = dpotrs(L, B[:, i].copy(), lower=1)[0]
                assert multi[:, i].tobytes() == single.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_cell_solves(self, seed):
        rng = np.random.default_rng(seed)
        n, kdim, p, q = 60, 7, 5, 6
        X = rng.standard_normal((n, kdim))
        X[:, 1:] += 0.5 * X[:, :-1]
        Y = X @ rng.standard_normal((kdim, p)) + rng.standard_normal((n, p))
        family = rng.random((q, kdim * p)) < 0.4
        # a support several columns share, and an empty one
        family[0] = np.tile(rng.random(kdim) < 0.5, p)
        family[1, :kdim] = False
        grouped, counts, raw = _ols_counters(ols_family_columns, X, Y, family)
        ref, ref_counts, _ = _ols_counters(_per_cell_family, X, Y, family)
        assert grouped.tobytes() == ref.tobytes()
        assert counts == ref_counts
        assert 0 < raw["ols.factorizations"] < counts["ols.solves"]

    def test_shared_support_falls_back_for_every_column(self, problem):
        X, y, _ = problem
        X = np.column_stack([X, X[:, 0]])  # exact duplicate of column 0
        rng = np.random.default_rng(9)
        Y = np.column_stack([y, y + rng.standard_normal(len(y)), -y])
        kdim, p = X.shape[1], Y.shape[1]
        singular = np.zeros(kdim, dtype=bool)
        singular[[0, 3, 10]] = True
        fine = np.zeros(kdim, dtype=bool)
        fine[[0, 3]] = True
        family = np.stack([np.tile(singular, p), np.tile(fine, p)])
        grouped, counts, raw = _ols_counters(ols_family_columns, X, Y, family)
        ref, ref_counts, _ = _ols_counters(_per_cell_family, X, Y, family)
        assert grouped.tobytes() == ref.tobytes()
        assert counts == ref_counts
        assert counts["ols.solves"] == 2 * p
        assert counts["ols.gram_fallbacks"] == p
        assert raw["ols.factorizations"] == 1
        for c in range(p):
            svd = ols_on_support(X, Y[:, c], singular)
            assert grouped[0, c * kdim:(c + 1) * kdim].tobytes() == svd.tobytes()


def _fancy_gather_solve_support(G, C, idx, X, Y, cols):
    """``ols._solve_support`` as it gathered ``G[S, S]`` by 2-D fancy
    indexing: the reference for the two-take gather."""
    ols_mod = importlib.import_module("repro.linalg.ols")
    if idx.size <= X.shape[0]:
        G_S = G[idx[:, None], idx]
        L, info = ols_mod.dpotrf(G_S, lower=1)
        rcond = ols_mod.dpocon(L, np.linalg.norm(G_S, 1), "L")[0]
        if info == 0 and rcond >= ols_mod.GRAM_RCOND_MIN:
            if len(cols) == 1:
                return [ols_mod.dpotrs(L, C[idx, cols[0]], lower=1)[0]]
            return ols_mod.dpotrs(L, C[idx[:, None], cols], lower=1)[0].T
    return [ols_mod.ols(X[:, idx], Y[:, c]) for c in cols]


class TestSupportGather:
    """The principal-submatrix gather hands ``dpotrf`` the same bytes."""

    def _check(self, monkeypatch, X, Y, family):
        ols_mod = importlib.import_module("repro.linalg.ols")
        got = ols_family_columns(X, Y, family)
        with monkeypatch.context() as m:
            m.setattr(ols_mod, "_solve_support", _fancy_gather_solve_support)
            ref = ols_family_columns(X, Y, family)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_families(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, kdim, p, q = 40, 9, 3, 7
        X = rng.standard_normal((n, kdim))
        Y = X @ rng.standard_normal((kdim, p)) + rng.standard_normal((n, p))
        family = rng.random((q, kdim * p)) < 0.5
        G = X.T @ X
        idx = np.flatnonzero(rng.random(kdim) < 0.6)
        assert G.take(idx, 0).take(idx, 1).tobytes() == G[idx[:, None], idx].tobytes()
        self._check(monkeypatch, X, Y, family)

    def test_lasso_tall_shaped_family(self, monkeypatch):
        # 1000 x 224 with nested supports up to |S| = 206, as a
        # lasso_tall estimation bootstrap sees them.
        rng = np.random.default_rng(3)
        n, p = 1000, 224
        X = rng.standard_normal((n, p))
        y = X[:, :12] @ rng.standard_normal(12) + rng.standard_normal(n)
        order = rng.permutation(p)
        family = np.zeros((10, p), dtype=bool)
        for j, size in enumerate(np.linspace(206, 12, 10).astype(int)):
            family[j, order[:size]] = True
        self._check(monkeypatch, X, y[:, None], family)


class TestRidge:
    def test_shrinks_toward_zero(self, problem):
        X, y, _ = problem
        b_small = ridge(X, y, 0.01)
        b_big = ridge(X, y, 1e6)
        assert np.linalg.norm(b_big) < np.linalg.norm(b_small)

    def test_matches_normal_equations(self, problem):
        X, y, _ = problem
        lam = 3.0
        expected = np.linalg.solve(X.T @ X + lam * np.eye(10), X.T @ y)
        np.testing.assert_allclose(ridge(X, y, lam), expected, atol=1e-8)

    def test_never_exactly_sparse(self, problem):
        X, y, _ = problem
        assert np.all(ridge(X, y, 10.0) != 0.0)

    def test_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError, match="lam"):
            ridge(X, y, 0.0)


class TestNonconvex:
    def test_mcp_less_biased_than_lasso(self, problem):
        X, y, beta = problem
        lam = 8.0
        b_lasso = lasso_cd(X, y, lam)
        b_mcp = mcp_regression(X, y, lam)
        on = beta != 0
        lasso_bias = np.mean(np.abs(beta[on]) - np.abs(b_lasso[on]))
        mcp_bias = np.mean(np.abs(beta[on]) - np.abs(b_mcp[on]))
        assert mcp_bias < lasso_bias

    def test_scad_recovers_support(self, problem):
        X, y, beta = problem
        b = scad_regression(X, y, 8.0)
        assert set(np.flatnonzero(b)) == set(np.flatnonzero(beta))

    def test_mcp_recovers_support(self, problem):
        X, y, beta = problem
        b = mcp_regression(X, y, 8.0)
        assert set(np.flatnonzero(b)) == set(np.flatnonzero(beta))

    def test_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError, match="lam"):
            mcp_regression(X, y, -1.0)
        with pytest.raises(ValueError, match="lam"):
            scad_regression(X, y, -1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(0.1, 50.0))
def test_cd_never_beats_optimum_found_by_admm(seed, lam):
    """Both solvers minimize the same objective: their objective values
    must agree to tolerance on random problems."""
    from repro.linalg import LassoADMM

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    solver = LassoADMM(X, y)
    obj_admm = solver.objective(solver.solve(lam).beta, lam)
    obj_cd = solver.objective(lasso_cd(X, y, lam), lam)
    assert obj_admm == pytest.approx(obj_cd, rel=1e-2, abs=1e-4)


class TestCovarianceUpdates:
    """Gram-cached (glmnet 'covariance updates') coordinate descent."""

    def test_matches_naive_mode(self, problem):
        X, y, _ = problem
        gram, xty = X.T @ X, X.T @ y
        for lam in (0.0, 2.0, 10.0):
            naive = lasso_cd(X, y, lam, tol=1e-11)
            (cov,) = lasso_cd_path(gram, xty, [lam], tol=1e-11)
            np.testing.assert_allclose(naive, cov, atol=1e-8)

    def test_warm_start_supported(self, problem):
        X, y, _ = problem
        gram, xty = X.T @ X, X.T @ y
        (cold,) = lasso_cd_path(gram, xty, [3.0])
        (warm,) = lasso_cd_path(gram, xty, [3.0], seed=lambda j, prev: cold)
        np.testing.assert_allclose(cold, warm, atol=1e-8)

    def test_shape_validation(self, problem):
        X, y, _ = problem
        gram = X.T @ X
        with pytest.raises(ValueError, match="inconsistent"):
            lasso_cd_path(gram[:2], X.T @ y, [1.0])
        with pytest.raises(ValueError, match="inconsistent"):
            lasso_cd_path(gram, (X.T @ y)[:3], [1.0])

    def test_lambda_and_seed_validation(self, problem):
        X, y, _ = problem
        gram, xty = X.T @ X, X.T @ y
        with pytest.raises(ValueError, match=">= 0"):
            lasso_cd_path(gram, xty, [1.0, -1.0])
        with pytest.raises(ValueError, match="seed shape"):
            lasso_cd_path(gram, xty, [1.0], seed=lambda j, prev: np.zeros(3))
        assert lasso_cd_path(gram, xty, []).shape == (0, 10)
