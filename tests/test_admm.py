"""Tests for the serial LASSO-ADMM solver."""

import numpy as np
import pytest

from repro.linalg import LassoADMM, lasso_admm, lasso_cd


@pytest.fixture
def problem():
    rng = np.random.default_rng(0)
    n, p = 80, 12
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[1, 4, 8]] = [2.0, -3.0, 1.5]
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return X, y, beta


class TestLassoADMM:
    def test_matches_coordinate_descent(self, problem):
        X, y, _ = problem
        lam = 4.0
        a = LassoADMM(X, y).solve(lam).beta
        c = lasso_cd(X, y, lam)
        np.testing.assert_allclose(a, c, atol=1e-3)

    def test_lam_zero_gives_ols(self, problem):
        X, y, _ = problem
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        res = LassoADMM(X, y).solve(0.0)
        np.testing.assert_allclose(res.beta, ols, atol=1e-4)

    def test_recovers_planted_support(self, problem):
        X, y, beta = problem
        res = LassoADMM(X, y).solve(5.0)
        assert set(np.flatnonzero(res.beta)) == set(np.flatnonzero(beta))

    def test_result_is_exactly_sparse(self, problem):
        X, y, _ = problem
        res = LassoADMM(X, y).solve(20.0)
        # Soft-threshold output has exact zeros, not tiny values.
        small = res.beta[np.abs(res.beta) < 1e-10]
        assert np.all(small == 0.0)

    def test_huge_lambda_gives_zero(self, problem):
        X, y, _ = problem
        lam = 10.0 * 2.0 * np.max(np.abs(X.T @ y))
        res = LassoADMM(X, y).solve(lam)
        np.testing.assert_array_equal(res.beta, np.zeros(X.shape[1]))

    def test_converged_flag_and_residuals(self, problem):
        X, y, _ = problem
        res = LassoADMM(X, y, max_iter=5000).solve(4.0)
        assert res.converged
        assert res.primal_residual < 1e-2
        assert res.iterations >= 1

    def test_objective_reported(self, problem):
        X, y, _ = problem
        solver = LassoADMM(X, y)
        res = solver.solve(4.0)
        assert res.objective == pytest.approx(solver.objective(res.beta, 4.0))

    @pytest.mark.parametrize("woodbury", [True, False])
    def test_objective_read_after_later_solves_is_bitwise(self, problem, woodbury):
        """The objective is computed on first access; later solves, which
        reuse the workspace, must not move it (on both factor branches:
        the Woodbury one holds more workspace slots)."""
        X, y, _ = problem
        if woodbury:
            X, y = X[:10], y[:10]
            assert X.shape[0] < X.shape[1]
        Y = np.column_stack([y, -y, y + X[:, 0]])
        solver = LassoADMM(X, y, max_iter=2000)
        single = solver.solve(4.0)
        columns = solver.solve_columns(Y, 3.0)
        solver.solve(0.5)
        solver.solve_columns(Y[:, ::-1].copy(), 1.0)
        want = solver.objective(single.beta, 4.0)
        assert np.float64(single.objective).tobytes() == np.float64(want).tobytes()
        for c, res in enumerate(columns):
            want = LassoADMM(X, Y[:, c]).objective(res.beta, 3.0)
            assert np.float64(res.objective).tobytes() == np.float64(want).tobytes()

    def test_warm_start_converges_faster(self, problem):
        X, y, _ = problem
        solver = LassoADMM(X, y)
        cold = solver.solve(4.0)
        warm = solver.solve(4.0, beta0=cold.beta)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.beta, cold.beta, atol=1e-3)

    def test_solve_path_decreasing_sparsity(self, problem):
        X, y, _ = problem
        lmax = 2.0 * np.max(np.abs(X.T @ y))
        lams = lmax * np.logspace(0, -3, 8)
        results = LassoADMM(X, y).solve_path(lams)
        nnz = [int((r.beta != 0).sum()) for r in results]
        assert nnz[0] <= 1  # at lambda_max everything is (near) zero
        assert nnz[-1] >= nnz[0]

    def test_record_history(self, problem):
        X, y, _ = problem
        res = LassoADMM(X, y).solve(4.0, record_history=True)
        assert len(res.history) == res.iterations
        # Residuals should broadly decrease.
        assert res.history[-1][0] < res.history[0][0]

    def test_history_records_objective_triples(self, problem):
        """Regression: history carries (primal, dual, objective) triples."""
        X, y, _ = problem
        solver = LassoADMM(X, y)
        res = solver.solve(4.0, record_history=True)
        assert all(len(entry) == 3 for entry in res.history)
        # The recorded objective is the paper-eq.-(2) value, so the
        # final entry must match the result's own objective field.
        assert res.history[-1][2] == pytest.approx(res.objective)
        # ADMM is not monotone per-iteration, but the objective must
        # broadly decrease from the zero/warm start to the solution.
        assert res.history[-1][2] < res.history[0][2]
        # Every recorded value is a finite float.
        for r_norm, s_norm, obj in res.history:
            assert np.isfinite(r_norm) and np.isfinite(s_norm)
            assert np.isfinite(obj)

    def test_history_empty_list_when_recording_off(self, problem):
        """history is an empty list — never None — when recording is off."""
        X, y, _ = problem
        res = LassoADMM(X, y).solve(4.0)
        assert res.history == []
        assert res.history is not None
        # Callers can iterate unconditionally.
        assert [e for e in res.history] == []

    def test_woodbury_path_matches_cholesky(self):
        """p > n triggers the matrix-inversion-lemma factorization."""
        rng = np.random.default_rng(3)
        n, p = 20, 50
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        lam = 2.0
        wood = LassoADMM(X, y).solve(lam).beta
        cd = lasso_cd(X, y, lam, max_iter=5000)
        np.testing.assert_allclose(wood, cd, atol=2e-3)

    def test_functional_wrapper(self, problem):
        X, y, _ = problem
        np.testing.assert_allclose(
            lasso_admm(X, y, 4.0), LassoADMM(X, y).solve(4.0).beta
        )


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            LassoADMM(np.ones((5, 2)), np.ones(4))

    def test_one_dim_X(self):
        with pytest.raises(ValueError, match="2-D"):
            LassoADMM(np.ones(5), np.ones(5))

    def test_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            LassoADMM(np.ones((5, 2)), np.ones(5), rho=0.0)

    def test_bad_alpha(self):
        """Over-relaxation is the fixed ALPHA, not a keyword."""
        from repro.linalg.admm import ALPHA

        assert ALPHA == 1.5
        with pytest.raises(TypeError, match="alpha"):
            LassoADMM(np.ones((5, 2)), np.ones(5), alpha=1.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            LassoADMM(np.ones((5, 2)), np.ones(5)).solve(-1.0)

    def test_bad_warm_start_shape(self):
        solver = LassoADMM(np.ones((5, 2)), np.ones(5))
        with pytest.raises(ValueError, match="beta0"):
            solver.solve(1.0, beta0=np.zeros(3))


def _factorizations(run, *args):
    """``(run(*args), admm.factorizations counted while it ran)``."""
    from repro.telemetry.recorder import Recorder, use_recorder

    rec = Recorder()
    with use_recorder(rec):
        out = run(*args)
    return out, rec.counter_values().get("admm.factorizations", 0.0)


class TestAdaptiveRho:
    """Residual balancing is gone: rho stays fixed, so one factorization
    per design serves every solve."""

    def test_fixed_rho_never_refactors(self):
        def run(X, y):
            solver = LassoADMM(X, y, rho=1.0, max_iter=300)
            solver.solve(4.0)
            solver.solve(8.0, record_history=True)
            solver.solve_columns(np.column_stack([y, -y]), 2.0)
            return solver.rho

        rng = np.random.default_rng(9)
        for shape in ((80, 12), (20, 40)):  # Cholesky and Woodbury
            X = rng.standard_normal(shape)
            y = rng.standard_normal(shape[0])
            assert _factorizations(run, X, y) == (1.0, 1)

    def test_adapt_param_validation(self, problem):
        """The residual-balancing keywords are refused, not ignored."""
        X, y, _ = problem
        for knob in ("adapt_rho", "adapt_tau", "adapt_mu", "pool"):
            with pytest.raises(TypeError, match=knob):
                LassoADMM(X, y, **{knob: True})


def _columns_problem(n, p, m, seed, zero_column=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    B = rng.standard_normal((p, m)) * (rng.random((p, m)) < 0.3)
    Y = X @ B + 0.1 * rng.standard_normal((n, m))
    # Column scales spread the iteration counts apart.
    Y *= np.logspace(0.0, 1.5, m)
    if zero_column is not None:
        Y[:, zero_column] = 0.0
    return X, Y


def _per_column(X, Y, lam, beta0=None, u0=None, **kwargs):
    """The reference: one independent single-response solve per column."""
    return [
        LassoADMM(X, Y[:, c], **kwargs).solve(
            lam,
            beta0=None if beta0 is None else beta0[:, c],
            u0=None if u0 is None else u0[:, c],
        )
        for c in range(Y.shape[1])
    ]


def _state(res):
    return (
        res.beta.tobytes(), res.dual.tobytes(), res.iterations,
        res.converged, res.primal_residual, res.dual_residual, res.objective,
    )


class TestSolveColumns:
    """The lock-step kernel's contract: column ``c`` of one
    ``solve_columns`` call is the single-response solve of ``Y[:, c]``."""

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("seeded", ["cold", "beta0", "beta0+u0"])
    def test_cholesky_branch_bitwise(self, m, seeded):
        X, Y = _columns_problem(60, 9, m, seed=m)
        kwargs = {"max_iter": 3000}
        first = LassoADMM(X, Y[:, 0], **kwargs).solve_columns(Y, 6.0)
        seeds = {}
        if seeded != "cold":
            seeds["beta0"] = np.column_stack([r.beta for r in first])
        if seeded == "beta0+u0":
            seeds["u0"] = np.column_stack([r.dual for r in first])
        got = LassoADMM(X, Y[:, 0], **kwargs).solve_columns(Y, 2.0, **seeds)
        want = _per_column(X, Y, 2.0, **seeds, **kwargs)
        assert [_state(r) for r in got] == [_state(r) for r in want]
        assert all(r.converged for r in got)

    def test_woodbury_branch_within_rounding(self):
        X, Y = _columns_problem(14, 30, 4, seed=2)
        assert X.shape[0] < X.shape[1]
        for lam in (8.0, 1.0):
            got = LassoADMM(X, Y[:, 0], max_iter=4000).solve_columns(Y, lam)
            want = _per_column(X, Y, lam, max_iter=4000)
            for g, w in zip(got, want):
                # GEMM rounds differently from GEMV: same supports and
                # iteration counts, coefficients to rounding.
                np.testing.assert_array_equal(g.beta != 0, w.beta != 0)
                np.testing.assert_allclose(g.beta, w.beta, rtol=0, atol=1e-10)
                assert (g.iterations, g.converged) == (w.iterations, w.converged)

    def test_columns_retire_at_their_own_iteration(self):
        X, Y = _columns_problem(50, 7, 5, seed=4, zero_column=2)
        got = LassoADMM(X, Y[:, 0], max_iter=5000).solve_columns(Y, 3.0)
        want = _per_column(X, Y, 3.0, max_iter=5000)
        its = [r.iterations for r in got]
        assert len(set(its)) >= 3, its  # staggered, not one common exit
        assert its[2] == min(its)  # the all-zero response leaves first
        np.testing.assert_array_equal(got[2].beta, np.zeros(7))
        assert [_state(r) for r in got] == [_state(r) for r in want]

    def test_budget_exhaustion_is_per_column(self):
        X, Y = _columns_problem(50, 7, 4, seed=6, zero_column=0)
        got = LassoADMM(X, Y[:, 0], max_iter=12).solve_columns(Y, 3.0)
        want = _per_column(X, Y, 3.0, max_iter=12)
        assert [_state(r) for r in got] == [_state(r) for r in want]
        assert got[0].converged and not got[-1].converged
        assert got[-1].iterations == 12

    def test_telemetry_counts_are_per_column_sums(self):
        from repro.telemetry.recorder import Recorder, use_recorder

        X, Y = _columns_problem(50, 7, 5, seed=4, zero_column=2)
        names = (
            "admm.solves", "admm.iterations", "admm.converged",
            "admm.nonconverged", "admm.soft_thresholds",
        )
        counts = []
        # rho=1.0 so that some (not all) columns miss the 40-iteration
        # budget and both counters are exercised.
        kwargs = {"rho": 1.0, "max_iter": 40}
        for run in (
            lambda: LassoADMM(X, Y[:, 0], **kwargs).solve_columns(Y, 3.0),
            lambda: _per_column(X, Y, 3.0, **kwargs),
        ):
            rec = Recorder()
            with use_recorder(rec):
                results = run()
            values = rec.counter_values()
            counts.append({name: values.get(name, 0.0) for name in names})
        assert counts[0] == counts[1]
        assert counts[0]["admm.solves"] == 5
        assert counts[0]["admm.iterations"] == sum(r.iterations for r in results)
        assert 0 < counts[0]["admm.nonconverged"] < 5

    def test_validation(self):
        solver = LassoADMM(np.ones((5, 2)), np.ones(5))
        with pytest.raises(ValueError, match="Y shape"):
            solver.solve_columns(np.ones((4, 3)), 1.0)
        with pytest.raises(ValueError, match="beta0"):
            solver.solve_columns(np.ones((5, 3)), 1.0, beta0=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="lam"):
            solver.solve_columns(np.ones((5, 3)), -1.0)
        assert solver.solve_columns(np.ones((5, 0)), 1.0) == []


class TestVarPathColumns:
    """``engine.plans.var_path_columns`` (one lock-step call per λ)
    against the column-by-column chain it replaced."""

    @staticmethod
    def _reference(config, X, Y, lambdas, warm_paths=None, seeding="path"):
        kdim, p = X.shape[1], Y.shape[1]
        out = np.empty((len(lambdas), kdim * p))
        for c in range(p):
            col = slice(c * kdim, (c + 1) * kdim)
            solver = LassoADMM(
                X, Y[:, c], rho=config.rho, max_iter=config.max_iter,
                abstol=config.abstol, reltol=config.reltol,
            )
            beta = None
            for j, lam in enumerate(lambdas):
                if warm_paths is not None:
                    start = (
                        warm_paths[0, col] if j == 0
                        else beta + (warm_paths[j, col] - warm_paths[j - 1, col])
                    )
                else:
                    start = beta if seeding == "path" else None
                beta = solver.solve(float(lam), beta0=start).beta
                out[j, col] = beta
        return out

    @pytest.mark.parametrize("explicit_rho", [False, True])
    def test_all_seedings_match_per_column_chains(self, explicit_rho):
        from repro.core.config import UoILassoConfig
        from repro.engine.plans import var_path_columns
        from repro.linalg.lambda_grid import lambda_grid_from_max

        X, Y = _columns_problem(60, 8, 4, seed=12)
        config = UoILassoConfig(
            solver="admm", rho=1.0 if explicit_rho else None
        )
        lambdas = lambda_grid_from_max(
            2.0 * float(np.max(np.abs(X.T @ Y))), num=5, eps=1e-2
        )
        path = var_path_columns(config, X, Y, lambdas)
        np.testing.assert_array_equal(
            path, self._reference(config, X, Y, lambdas)
        )
        np.testing.assert_array_equal(
            var_path_columns(config, X, Y, lambdas, seeding="none"),
            self._reference(config, X, Y, lambdas, seeding="none"),
        )
        warm = path + 0.01 * (path != 0)
        np.testing.assert_array_equal(
            var_path_columns(config, X, Y, lambdas, warm_paths=warm),
            self._reference(config, X, Y, lambdas, warm_paths=warm),
        )


def _pinned_problem():
    """Exactly representable 12x4 design and three responses (no RNG,
    no libm), so the pinned iterates below depend on the solver alone."""
    i, j = np.meshgrid(np.arange(12), np.arange(4), indexing="ij")
    X = ((i * 7 + j * 13 + i * j) % 11 - 5) / 4.0
    Y = ((i * 5 + j * 3) % 7 - 3) / 2.0
    return X, np.ascontiguousarray(Y[:, :3])


def _nonzero_extremes(X):
    """(lambda_min+, lambda_max) of 2 X'X from the singular values of X."""
    s = np.linalg.svd(X, compute_uv=False)
    rank = np.linalg.matrix_rank(X)
    return 2.0 * s[rank - 1] ** 2, 2.0 * s[0] ** 2


class TestSpectralRho:
    """The default penalty: sqrt(lambda_min+ * lambda_max) of 2 X'X."""

    @pytest.mark.parametrize("shape", [(80, 12), (14, 30)])
    def test_default_is_geometric_mean_of_gram_extremes(self, shape):
        rng = np.random.default_rng(3)
        X = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        solver, factorizations = _factorizations(LassoADMM, X, y)
        lo, hi = _nonzero_extremes(X)
        assert solver.rho == pytest.approx(np.sqrt(lo * hi), rel=1e-10)
        assert factorizations == 1

    def test_explicit_rho_is_kept(self, problem):
        X, y, _ = problem
        assert LassoADMM(X, y, rho=2.5).rho == 2.5

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_scale_equivariance(self, problem, c):
        """X -> cX, y -> cy, lam -> c^2 lam is the same problem in other
        units: same support, and — with the unit-carrying absolute
        tolerance out of the stopping rule — the same iteration count.
        A fixed rho=1.0 cannot do either."""
        X, y, _ = problem
        ref = LassoADMM(X, y, abstol=0.0).solve(4.0)
        got = LassoADMM(c * X, c * y, abstol=0.0).solve(c * c * 4.0)
        assert ref.converged and got.converged
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(got.beta != 0, ref.beta != 0)
        np.testing.assert_allclose(got.beta, ref.beta, rtol=1e-9, atol=1e-12)
        # Default tolerances: the support still does not move.
        default = LassoADMM(c * X, c * y).solve(c * c * 4.0)
        assert default.converged
        np.testing.assert_array_equal(default.beta != 0, ref.beta != 0)

    def test_fixed_unit_rho_is_not_scale_equivariant(self, problem):
        X, y, _ = problem
        its = [
            LassoADMM(c * X, c * y, rho=1.0, abstol=0.0, max_iter=2000)
            .solve(c * c * 4.0)
            .iterations
            for c in (1e-3, 1.0, 1e3)
        ]
        assert len(set(its)) > 1

    @pytest.mark.parametrize(
        "X",
        [np.zeros((9, 4)), np.zeros((9, 1)), np.zeros((3, 7))],
        ids=["all-zero", "centered-constant-column", "all-zero-woodbury"],
    )
    def test_degenerate_spectrum_falls_back_to_one(self, X):
        solver = LassoADMM(X, np.ones(X.shape[0]))
        assert solver.rho == 1.0
        res = solver.solve(0.5)
        np.testing.assert_array_equal(res.beta, np.zeros(X.shape[1]))

    @pytest.mark.parametrize("case", ["bootstrap-rows", "duplicate-columns"])
    def test_rank_deficient_gram_uses_the_cutoff(self, case):
        """Numerically-zero eigenvalues (~1e-16 lambda_max) never pass
        for lambda_min: rho stays on the scale of the spectrum."""
        rng = np.random.default_rng(5)
        if case == "bootstrap-rows":  # n < p, duplicated rows: 2XX' singular
            X = rng.standard_normal((20, 50))[rng.integers(0, 20, 20)]
        else:  # n >= p, duplicated columns: 2X'X singular
            X = rng.standard_normal((60, 10))
            X[:, 7] = X[:, 4] = X[:, 2]
        assert np.linalg.matrix_rank(X) < min(X.shape)
        solver = LassoADMM(X, rng.standard_normal(X.shape[0]))
        lo, hi = _nonzero_extremes(X)
        assert solver.rho == pytest.approx(np.sqrt(lo * hi), rel=1e-8)
        assert solver.rho > 1e-3 * hi

    def test_gram_extremes_and_spectral_rho(self):
        from repro.linalg.admm import gram_extremes, spectral_rho

        assert gram_extremes(np.diag([4.0, 1e-20, 9.0])) == (4.0, 9.0)
        assert gram_extremes(np.zeros((3, 3))) == (0.0, 0.0)
        assert spectral_rho(4.0, 9.0) == 6.0
        assert spectral_rho(0.0, 0.0) == 1.0

    def test_resolved_rho_is_gauged(self, problem):
        from repro.telemetry.recorder import Recorder, use_recorder

        X, y, _ = problem
        rec = Recorder()
        with use_recorder(rec):
            solver = LassoADMM(X, y)
            solver.solve(4.0)
        assert rec.gauge_values()["admm.rho"] == solver.rho
        with use_recorder(rec):
            LassoADMM(X, y, rho=3.0).solve_columns(np.stack([y, -y], axis=1), 4.0)
        assert rec.gauge_values()["admm.rho"] == 3.0

    def test_explicit_rho_reproduces_parent_commit_iterates(self):
        """rho=<float> is not touched by the new default: these are the
        iterates of commit b675644 (15 iterations at rho=1.0), serial and
        lock-step, bit for bit."""
        X, Y = _pinned_problem()
        kwargs = {"rho": 1.0, "max_iter": 15}
        want = [
            ["-0x1.3fe43839d67e0p-2", "0x1.3ab6a9bf6cea0p-5",
             "0x1.12658772d9e74p-2", "-0x1.44679963311c8p-2"],
            ["0x1.eb36cf75250b8p-2", "-0x0.0p+0",
             "-0x1.8902ecf8070f8p-3", "0x1.26f19e3697130p-3"],
            ["-0x1.8101d1f1018a0p-2", "-0x1.b387adf6f1288p-2",
             "-0x1.9fea5e9247ce4p-2", "0x1.5488667f1f500p-3"],
        ]
        serial = LassoADMM(X, Y[:, 0], **kwargs).solve(1.0)
        assert serial.iterations == 15
        assert [v.hex() for v in serial.beta] == want[0]
        columns = LassoADMM(X, Y[:, 0], **kwargs).solve_columns(Y, 1.0)
        assert [[v.hex() for v in r.beta] for r in columns] == want
