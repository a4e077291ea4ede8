"""Tests for distributed consensus LASSO-ADMM."""

import numpy as np
import pytest
import scipy.sparse

from repro.linalg import LassoADMM, lasso_cd
from repro.linalg.consensus import consensus_lasso_admm
from repro.simmpi import CORI_KNL, LAPTOP, run_spmd, SpmdError, TimeCategory


@pytest.fixture
def problem():
    rng = np.random.default_rng(0)
    n, p = 120, 10
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[1, 4, 7]] = [2.0, -3.0, 1.5]
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return X, y


def _run_consensus(X, y, lam, nranks=4, **kwargs):
    n = X.shape[0]

    def prog(comm):
        idx = np.array_split(np.arange(n), comm.size)[comm.rank]
        return comm.clock, consensus_lasso_admm(comm, X[idx], y[idx], lam, **kwargs)

    res = run_spmd(nranks, prog, machine=CORI_KNL)
    return res


class TestConsensusLasso:
    def test_matches_serial_solution(self, problem):
        X, y = problem
        lam = 5.0
        serial = LassoADMM(X, y, max_iter=2000).solve(lam).beta
        res = _run_consensus(X, y, lam, max_iter=2000)
        np.testing.assert_allclose(res.values[0][1].beta, serial, atol=5e-4)

    def test_all_ranks_agree_exactly(self, problem):
        X, y = problem
        res = _run_consensus(X, y, 5.0)
        betas = [v[1].beta for v in res.values]
        for b in betas[1:]:
            np.testing.assert_array_equal(b, betas[0])

    def test_lam_zero_gives_ols(self, problem):
        X, y = problem
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        res = _run_consensus(X, y, 0.0, max_iter=2000)
        np.testing.assert_allclose(res.values[0][1].beta, ols, atol=1e-3)

    def test_unequal_block_sizes(self, problem):
        X, y = problem
        res = _run_consensus(X, y, 5.0, nranks=7)  # 120 not divisible by 7
        cd = lasso_cd(X, y, 5.0)
        np.testing.assert_allclose(res.values[0][1].beta, cd, atol=2e-3)

    def test_single_rank_degenerates_to_serial(self, problem):
        X, y = problem
        res = _run_consensus(X, y, 5.0, nranks=1, max_iter=2000)
        cd = lasso_cd(X, y, 5.0)
        np.testing.assert_allclose(res.values[0][1].beta, cd, atol=1e-3)

    def test_warm_start(self, problem):
        X, y = problem
        cold = _run_consensus(X, y, 5.0)
        beta0 = cold.values[0][1].beta
        warm = _run_consensus(X, y, 5.0, beta0=beta0)
        assert warm.values[0][1].iterations <= cold.values[0][1].iterations

    def test_charges_compute_and_communication(self, problem):
        X, y = problem
        res = _run_consensus(X, y, 5.0)
        for clock, _ in res.values:
            assert clock.breakdown[TimeCategory.COMPUTE] > 0
            assert clock.breakdown[TimeCategory.COMMUNICATION] > 0

    def test_sparse_block_rejected(self, problem):
        """Dense blocks only; the error names the fix."""
        X, y = problem

        def prog(comm):
            consensus_lasso_admm(comm, scipy.sparse.csr_matrix(X), y, 5.0)

        with pytest.raises(SpmdError, match=r"dense A_local.*toarray"):
            run_spmd(2, prog, machine=LAPTOP)

    def test_block_diagonal_sparse_problem(self):
        """The UoI_VAR shape: block-diagonal lifted design (densified)."""
        rng = np.random.default_rng(1)
        from repro.linalg.kron import identity_kron, vec

        m, k, p = 20, 3, 3
        Xb = rng.standard_normal((m, k))
        B = rng.standard_normal((k, p)) * (rng.random((k, p)) < 0.5)
        Y = Xb @ B + 0.05 * rng.standard_normal((m, p))
        lifted = identity_kron(Xb, p, sparse=True)
        b = vec(Y)
        lam = 3.0
        n = lifted.shape[0]

        def prog(comm):
            idx = np.array_split(np.arange(n), comm.size)[comm.rank]
            return consensus_lasso_admm(comm, lifted[idx].toarray(), b[idx], lam)

        res = run_spmd(3, prog, machine=CORI_KNL)
        serial = lasso_cd(lifted.toarray(), b, lam)
        np.testing.assert_allclose(res.values[0].beta, serial, atol=2e-3)

    def test_validation_errors(self, problem):
        X, y = problem

        def bad_lam(comm):
            consensus_lasso_admm(comm, X, y, -1.0)

        with pytest.raises(SpmdError, match="lam"):
            run_spmd(2, bad_lam, machine=LAPTOP)

        def bad_shapes(comm):
            consensus_lasso_admm(comm, X, y[:-1], 1.0)

        with pytest.raises(SpmdError, match="incompatible"):
            run_spmd(2, bad_shapes, machine=LAPTOP)

        def bad_rho(comm):
            consensus_lasso_admm(comm, X, y, 1.0, rho=-1.0)

        with pytest.raises(SpmdError, match="rho"):
            run_spmd(2, bad_rho, machine=LAPTOP)


class TestAdaptiveRhoConsensus:
    """Residual balancing is gone from the consensus solver too."""

    def test_adapt_validation(self, problem):
        X, y = problem

        def prog(comm):
            consensus_lasso_admm(comm, X, y, 1.0, adapt_rho=True)

        with pytest.raises(SpmdError, match="adapt_rho"):
            run_spmd(2, prog, machine=LAPTOP)


class TestSpectralRhoConsensus:
    """rho=None: local Gram extremes, averaged by one allreduce."""

    @staticmethod
    def _ablation_problem():
        # The problem of benchmarks/bench_ablation_rho.py.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((240, 24))
        beta = np.zeros(24)
        beta[::5] = 2.5
        return X, X @ beta + 0.15 * rng.standard_normal(240)

    @staticmethod
    def _run(X, y, lam, nranks, **kwargs):
        from repro.telemetry.recorder import Recorder, use_recorder

        def prog(comm):
            idx = np.array_split(np.arange(len(y)), comm.size)[comm.rank]
            rec = Recorder()
            with use_recorder(rec):
                res = consensus_lasso_admm(comm, X[idx], y[idx], lam, **kwargs)
            return res, rec.gauge_values()["consensus.rho"], rec.counter_values()

        return run_spmd(nranks, prog, machine=LAPTOP).values

    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_ranks_agree_on_rho_and_beat_unit_rho(self, nranks):
        X, y = self._ablation_problem()
        spectral = self._run(X, y, 6.0, nranks, max_iter=3000)
        res0, rho0, counters = spectral[0]
        assert res0.converged
        for res, rho, _ in spectral[1:]:
            assert rho == rho0
            assert res.iterations == res0.iterations
            assert res.beta.tobytes() == res0.beta.tobytes()
        # The mean of the ranks' local extremes, as one serial formula.
        los, his = zip(*(
            np.linalg.eigvalsh(2.0 * X[idx].T @ X[idx])[[0, -1]]
            for idx in np.array_split(np.arange(len(y)), nranks)
        ))
        assert rho0 == pytest.approx(np.sqrt(np.mean(los) * np.mean(his)), rel=1e-10)
        # One extra collective per solve, counted.
        assert counters["consensus.allreduces"] == res0.iterations + 1

        unit, rho_unit, unit_counters = self._run(
            X, y, 6.0, nranks, rho=1.0, max_iter=3000
        )[0]
        assert rho_unit == 1.0
        assert unit_counters["consensus.allreduces"] == unit.iterations
        assert res0.iterations < unit.iterations
        np.testing.assert_allclose(res0.beta, unit.beta, atol=1e-3)

    def test_all_zero_design_falls_back_to_one(self):
        out = self._run(np.zeros((8, 3)), np.ones(8), 0.5, 2)
        for res, rho, _ in out:
            assert rho == 1.0
            np.testing.assert_array_equal(res.beta, np.zeros(3))

    def test_explicit_rho_reproduces_parent_commit_iterates(self):
        """The consensus iterates of commit b675644 at rho=1.0 (15
        iterations, two ranks, exactly representable inputs)."""
        i, j = np.meshgrid(np.arange(12), np.arange(4), indexing="ij")
        X = ((i * 7 + j * 13 + i * j) % 11 - 5) / 4.0
        y = ((i[:, 0] * 5) % 7 - 3) / 2.0
        out = self._run(X, y, 1.0, 2, rho=1.0, max_iter=15)
        want = ["-0x1.129ed60eb11eep-2", "0x0.0p+0",
                "0x1.f67c68ce7c2a0p-3", "-0x1.772b64e83b276p-2"]
        for res, _, _ in out:
            assert res.iterations == 15
            assert [v.hex() for v in res.beta] == want
