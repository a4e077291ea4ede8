"""Integration tests: distributed UoI vs the serial reference."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig, UoIVar, UoIVarConfig
from repro.core.parallel import (
    DistributedUoIResult,
    ProcessGrid,
    distributed_uoi_lasso,
    distributed_uoi_var,
)
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.pfs import SimH5File
from repro.resilience import (
    CheckpointHook,
    CheckpointPlan,
    CheckpointStore,
    FaultPlan,
)
from repro.simmpi import LAPTOP, run_spmd, SpmdError
from repro.var import partition_coefficients

CFG = UoILassoConfig(
    n_lambdas=6,
    n_selection_bootstraps=4,
    n_estimation_bootstraps=3,
    random_state=5,
)


@pytest.fixture(scope="module")
def lasso_setup():
    ds = make_sparse_regression(
        96, 10, n_informative=3, snr=15.0, rng=np.random.default_rng(11)
    )
    file = SimH5File("/par.h5")
    file.create_dataset("data", np.column_stack([ds.y, ds.X]))
    serial = UoILasso(CFG).fit(ds.X, ds.y)
    return ds, file, serial


class TestDistributedUoILasso:
    def test_matches_serial(self, lasso_setup):
        ds, file, serial = lasso_setup
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        out = res.values[0]
        assert isinstance(out, DistributedUoIResult)
        np.testing.assert_allclose(out.coef, serial.coef_, atol=5e-4)
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.lambdas, serial.lambdas_)

    def test_store_refuses_another_rho(self, lasso_setup, tmp_path):
        """Solver fields are part of the distributed plan's identity: a
        store written at rho=1.0 refuses the spectral default and still
        resumes bitwise at rho=1.0."""
        _, file, _ = lasso_setup

        def job(cfg):
            return lambda comm, checkpoint=None: distributed_uoi_lasso(
                comm, file, "data", cfg, checkpoint=checkpoint
            )

        ck = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        unit = CFG.with_(rho=1.0)
        first = run_spmd(2, job(unit), machine=LAPTOP, checkpoint=ck)
        with pytest.raises(SpmdError, match="different run"):
            run_spmd(2, job(CFG), machine=LAPTOP, checkpoint=ck)
        resumed = run_spmd(2, job(unit), machine=LAPTOP, checkpoint=ck)
        for out in resumed.values:
            assert out.completed_subproblems == 0
            assert out.coef.tobytes() == first.values[0].coef.tobytes()

    def test_identical_on_all_ranks(self, lasso_setup):
        _, file, _ = lasso_setup
        res = run_spmd(
            3,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        ref = res.values[0]
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, ref.coef)
            np.testing.assert_array_equal(v.supports, ref.supports)

    @pytest.mark.parametrize("pb,plam,world", [(2, 1, 4), (1, 2, 4), (2, 2, 8), (4, 1, 8)])
    def test_grids_match_serial(self, lasso_setup, pb, plam, world):
        ds, file, serial = lasso_setup
        res = run_spmd(
            world,
            lambda comm: distributed_uoi_lasso(
                comm, file, "data", CFG, pb=pb, plam=plam
            ),
            machine=LAPTOP,
        )
        np.testing.assert_allclose(res.values[0].coef, serial.coef_, atol=1e-3)

    def test_supports_match_serial(self, lasso_setup):
        _, file, serial = lasso_setup
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        np.testing.assert_array_equal(res.values[0].supports, serial.supports_)

    def test_fit_intercept_rejected(self, lasso_setup):
        _, file, _ = lasso_setup
        bad = CFG.with_(fit_intercept=True)

        def prog(comm):
            distributed_uoi_lasso(comm, file, "data", bad)

        with pytest.raises(SpmdError, match="fit_intercept"):
            run_spmd(2, prog, machine=LAPTOP)


class TestProcessGrid:
    def test_build_partitions_ranks(self):
        def prog(comm):
            grid = ProcessGrid.build(comm, pb=2, plam=2)
            return grid.b, grid.l, grid.cell.rank, grid.cell.size

        res = run_spmd(8, prog, machine=LAPTOP)
        cells = {(b, l) for b, l, _, _ in res.values}
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(size == 2 for _, _, _, size in res.values)

    def test_ownership_round_robin(self):
        def prog(comm):
            grid = ProcessGrid.build(comm, pb=2, plam=1)
            return [k for k in range(6) if grid.owns_bootstrap(k)], [
                j for j in range(4) if grid.owns_lambda(j)
            ]

        res = run_spmd(4, prog, machine=LAPTOP)
        assert res.values[0][0] == [0, 2, 4]
        assert res.values[-1][0] == [1, 3, 5]
        assert res.values[0][1] == [0, 1, 2, 3]  # plam=1 owns all

    def test_indivisible_world_rejected(self):
        def prog(comm):
            ProcessGrid.build(comm, pb=2, plam=2)

        with pytest.raises(SpmdError, match="divisible"):
            run_spmd(6, prog, machine=LAPTOP)

    def test_bad_grid_params(self):
        def prog(comm):
            ProcessGrid.build(comm, pb=0)

        with pytest.raises(SpmdError, match="pb"):
            run_spmd(2, prog, machine=LAPTOP)


class _OwnedOnlyHook(CheckpointHook):
    """The drivers' checkpoint hook, failing the run on any ``lookup``
    of a task outside this rank's grid cell."""

    def on_run_start(self, plan, executor):
        self.grid = plan.grid
        super().on_run_start(plan, executor)

    def lookup(self, task):
        g = self.grid
        if not (
            g.owns_bootstrap(task.bootstrap) and g.owns_lambda(task.lam_index)
        ):
            raise AssertionError(
                f"lookup of un-owned {task.key} on cell ({g.b}, {g.l})"
            )
        return super().lookup(task)


class TestGridOwnership:
    """The distributed drivers run through ``Coordinator._run_inline``
    behind the grid's ``owns=`` predicate: un-owned tasks are dropped
    before any lookup, and crash/resume keeps bits and counters."""

    VCFG = UoIVarConfig(
        order=1,
        lasso=UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=2,
            n_estimation_bootstraps=2,
            random_state=7,
        ),
    )

    @pytest.fixture
    def jobs(self, lasso_setup, monkeypatch):
        from repro.core import parallel

        monkeypatch.setattr(parallel, "CheckpointHook", _OwnedOnlyHook)
        _, file, _ = lasso_setup
        series = make_sparse_var(3, 40, rng=np.random.default_rng(18)).series

        def lasso(comm, checkpoint=None):
            return distributed_uoi_lasso(
                comm, file, "data", CFG, pb=2, plam=2, checkpoint=checkpoint
            )

        def var(comm, checkpoint=None):
            return distributed_uoi_var(
                comm, series if comm.rank < 1 else None, self.VCFG,
                pb=2, plam=2, checkpoint=checkpoint,
            )

        return {"lasso": (lasso, CFG), "var": (var, self.VCFG.lasso)}

    @pytest.mark.parametrize("kind", ["lasso", "var"])
    def test_predicate_runs_before_lookup(self, jobs, kind):
        job, _ = jobs[kind]
        res = run_spmd(4, job, machine=LAPTOP)
        assert res.failed_ranks == {}
        for v in res.values[1:]:
            assert v.coef.tobytes() == res.values[0].coef.tobytes()

    def test_executor_is_an_inline_coordinator_named_simmpi(self):
        from repro.engine import Coordinator

        def prog(comm):
            ex = ProcessGrid.build(comm, pb=2, plam=2).executor()
            return type(ex) is Coordinator, ex.name, ex.transport.inline

        res = run_spmd(4, prog, machine=LAPTOP)
        assert res.values == [(True, "simmpi", True)] * 4

    @pytest.mark.parametrize("kind", ["lasso", "var"])
    def test_interrupted_then_resumed_matches_uninterrupted(
        self, jobs, kind, tmp_path
    ):
        job, lcfg = jobs[kind]
        total = lcfg.n_lambdas * (
            lcfg.n_selection_bootstraps + lcfg.n_estimation_bootstraps
        )
        ref = run_spmd(
            4, job, machine=LAPTOP,
            checkpoint=CheckpointPlan(CheckpointStore(tmp_path / "ref")),
        )
        assert ref.completed
        uninterrupted = ref.values[0]
        assert uninterrupted.recovered_subproblems == 0
        assert uninterrupted.completed_subproblems == total

        store = CheckpointStore(tmp_path / "ckpt")
        ck = CheckpointPlan(store, cadence=1)
        faults = FaultPlan().crash(1, at_time=0.5 * ref.elapsed)
        failed = run_spmd(
            4, job, machine=LAPTOP, fault_plan=faults, checkpoint=ck
        )
        assert set(failed.failed_ranks) == {1}
        pre_crash = len(store)
        assert pre_crash > 0

        resumed = run_spmd(
            4, job, machine=LAPTOP, fault_plan=faults, checkpoint=ck
        )
        assert resumed.completed
        for out in resumed.values:
            assert out.coef.tobytes() == uninterrupted.coef.tobytes()
            assert out.losses.tobytes() == uninterrupted.losses.tobytes()
            np.testing.assert_array_equal(out.supports, uninterrupted.supports)
            np.testing.assert_array_equal(out.winners, uninterrupted.winners)
            assert out.recovered_subproblems == pre_crash
            assert (
                out.recovered_subproblems + out.completed_subproblems
                == uninterrupted.completed_subproblems
            )

    def test_failure_note_names_simmpi_backend(self, lasso_setup, monkeypatch):
        from repro.core import parallel

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "consensus_lasso_admm", boom)
        _, file, _ = lasso_setup
        with pytest.raises(SpmdError, match="boom") as excinfo:
            run_spmd(
                4,
                lambda comm: distributed_uoi_lasso(
                    comm, file, "data", CFG, pb=2, plam=2
                ),
                machine=LAPTOP,
            )
        # Rank 0 is cell (0, 0): its first chain is bootstrap 0, and of
        # its six λ tasks the cell owns the even ones.
        assert (
            "engine backend=simmpi stage=selection "
            "subproblems [sel/k0/j0, sel/k0/j2, sel/k0/j4]"
        ) in str(excinfo.value)


class TestDistributedUoIVar:
    def test_matches_serial(self):
        sv = make_sparse_var(4, 60, rng=np.random.default_rng(17))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=5,
                n_selection_bootstraps=3,
                n_estimation_bootstraps=2,
                random_state=6,
            ),
        )
        serial = UoIVar(vcfg).fit(sv.series)
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 2 else None, vcfg, n_readers=2
            ),
            machine=LAPTOP,
        )
        out = res.values[0]
        # The serial reference solves per-column ADMM paths; the
        # distributed driver solves the lifted consensus problem — the
        # same optimization up to stopping-rule differences, so supports
        # may disagree on marginal features near the threshold.  The
        # winners, losses and all solidly-selected coefficients must
        # agree.
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.losses, serial.losses_, rtol=0.05)
        coefs, _ = partition_coefficients(out.coef, 4, 1)
        both = (coefs[0] != 0) & (serial.coefs_[0] != 0)
        overlap = both.sum() / max((serial.coefs_[0] != 0).sum(), 1)
        assert overlap >= 0.8
        np.testing.assert_allclose(
            coefs[0][both], serial.coefs_[0][both], atol=0.15
        )

    def test_all_ranks_agree(self):
        sv = make_sparse_var(3, 40, rng=np.random.default_rng(18))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=4,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=7,
            ),
        )
        res = run_spmd(
            3,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 1 else None, vcfg, n_readers=1
            ),
            machine=LAPTOP,
        )
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, res.values[0].coef)

    def test_reader_must_have_series(self):
        vcfg = UoIVarConfig()

        def prog(comm):
            distributed_uoi_var(comm, None, vcfg, n_readers=1)

        with pytest.raises(SpmdError, match="series"):
            run_spmd(2, prog, machine=LAPTOP)


class TestDistributedCvLasso:
    """Fig. 1c: Tier-2 randomized distribution reused for cross-validation."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.datasets import INPUT_DATASET, make_regression_file

        file, ds = make_regression_file(
            100, 12, n_informative=3, rng=np.random.default_rng(9),
            path="/cvtest.h5",
        )
        return file, ds, INPUT_DATASET

    def test_matches_serial_cv(self, setup):
        from repro.core.parallel import distributed_cv_lasso
        from repro.linalg import cv_lasso

        file, ds, name = setup
        res = run_spmd(
            4,
            lambda comm: distributed_cv_lasso(
                comm, file, name, n_lambdas=10, k=4, random_state=9
            ),
            machine=LAPTOP,
        )
        beta, lam, cv_loss = res.values[0]
        serial = cv_lasso(
            ds.X, ds.y, n_lambdas=10, k=4, rng=np.random.default_rng(9)
        )
        assert lam == pytest.approx(serial.lam)
        np.testing.assert_allclose(cv_loss, serial.cv_loss, rtol=0.02)
        np.testing.assert_array_equal(beta != 0, serial.beta != 0)
        np.testing.assert_allclose(beta, serial.beta, atol=5e-3)

    def test_identical_across_ranks(self, setup):
        from repro.core.parallel import distributed_cv_lasso

        file, _, name = setup
        res = run_spmd(
            3,
            lambda comm: distributed_cv_lasso(
                comm, file, name, n_lambdas=6, k=3, random_state=2
            ),
            machine=LAPTOP,
        )
        ref = res.values[0]
        for v in res.values[1:]:
            np.testing.assert_array_equal(v[0], ref[0])
            assert v[1] == ref[1]

    def test_1se_rule_sparser(self, setup):
        from repro.core.parallel import distributed_cv_lasso

        file, _, name = setup
        run = lambda rule: run_spmd(  # noqa: E731
            2,
            lambda comm: distributed_cv_lasso(
                comm, file, name, n_lambdas=10, k=4, rule=rule, random_state=9
            ),
            machine=LAPTOP,
        ).values[0]
        beta_min, lam_min, _ = run("min")
        beta_1se, lam_1se, _ = run("1se")
        assert lam_1se >= lam_min
        assert (beta_1se != 0).sum() <= (beta_min != 0).sum()

    def test_bad_rule(self, setup):
        from repro.core.parallel import distributed_cv_lasso

        file, _, name = setup

        def prog(comm):
            distributed_cv_lasso(comm, file, name, rule="magic")

        with pytest.raises(SpmdError, match="rule"):
            run_spmd(2, prog, machine=LAPTOP)


class TestDistributedUoIVarGrids:
    """Fig. 8's P_B x P_lambda parallelism, functionally."""

    @pytest.fixture(scope="class")
    def var_setup(self):
        sv = make_sparse_var(4, 60, rng=np.random.default_rng(17))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=6,
                n_selection_bootstraps=4,
                n_estimation_bootstraps=2,
                random_state=6,
            ),
        )
        base = run_spmd(
            4,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 2 else None, vcfg, n_readers=2
            ),
            machine=LAPTOP,
        ).values[0]
        return sv, vcfg, base

    @pytest.mark.parametrize("pb,plam,world", [(2, 1, 4), (1, 2, 4), (2, 2, 8)])
    def test_grids_match_ungridded(self, var_setup, pb, plam, world):
        sv, vcfg, base = var_setup
        res = run_spmd(
            world,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank == 0 else None, vcfg,
                n_readers=1, pb=pb, plam=plam,
            ),
            machine=LAPTOP,
        )
        out = res.values[0]
        np.testing.assert_array_equal(out.winners, base.winners)
        np.testing.assert_allclose(out.coef, base.coef, atol=2e-3)
        np.testing.assert_array_equal(out.supports, base.supports)

    def test_grid_all_ranks_agree(self, var_setup):
        sv, vcfg, _ = var_setup
        res = run_spmd(
            8,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank == 0 else None, vcfg,
                n_readers=1, pb=2, plam=2,
            ),
            machine=LAPTOP,
        )
        ref = res.values[0].coef
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, ref)
