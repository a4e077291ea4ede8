"""Golden determinism: crash + restart reproduces uninterrupted runs."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig, UoIVar, UoIVarConfig
from repro.core.parallel import distributed_uoi_lasso, distributed_uoi_var
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.engine import (
    EngineHook,
    LassoPlan,
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
    run_plan,
)
from repro.experiments import resilience
from repro.pfs import SimH5File
from repro.resilience import (
    CheckpointHook,
    CheckpointPlan,
    CheckpointStore,
    FaultPlan,
    recovered_loss_table,
    run_with_recovery,
    store_progress,
)
from repro.simmpi import LAPTOP, run_spmd

CFG = UoILassoConfig(
    n_lambdas=6,
    n_selection_bootstraps=4,
    n_estimation_bootstraps=3,
    random_state=5,
)


@pytest.fixture(scope="module")
def lasso_job():
    # Sized so the consensus solves (which stop on tolerance after a few
    # dozen iterations), not the modeled ~1 ms file load, are most of
    # the run: a crash at half the modeled time must land mid-solve.
    ds = make_sparse_regression(
        480, 60, n_informative=3, snr=15.0, rng=np.random.default_rng(11)
    )
    file = SimH5File("/recovery.h5")
    file.create_dataset("data", np.column_stack([ds.y, ds.X]))

    def job(comm, checkpoint=None):
        return distributed_uoi_lasso(
            comm, file, "data", CFG, pb=2, checkpoint=checkpoint
        )

    return job


def assert_bitwise(out, ref):
    assert out.coef.tobytes() == ref.coef.tobytes()
    np.testing.assert_array_equal(out.supports, ref.supports)
    assert out.losses.tobytes() == ref.losses.tobytes()
    np.testing.assert_array_equal(out.winners, ref.winners)


class TestGoldenDeterminismLasso:
    def test_crash_resume_bitwise_and_recovery_floor(self, lasso_job, tmp_path):
        ref = run_spmd(4, lasso_job, machine=LAPTOP)
        assert ref.completed

        store = CheckpointStore(tmp_path / "ckpt")
        ck = CheckpointPlan(store, cadence=1)
        plan = FaultPlan().crash(1, at_time=0.5 * ref.elapsed)

        failed = run_spmd(
            4, lasso_job, machine=LAPTOP, fault_plan=plan, checkpoint=ck
        )
        assert set(failed.failed_ranks) == {1}
        pre_crash = len(store)
        assert pre_crash > 0  # the crash landed mid-run, after checkpoints

        resumed = run_spmd(
            4, lasso_job, machine=LAPTOP, fault_plan=plan, checkpoint=ck
        )
        assert resumed.completed
        out = resumed.values[0]
        assert_bitwise(out, ref.values[0])
        # Acceptance floor: >= 80% of pre-crash completed subproblems
        # come back from checkpoint rather than being recomputed.
        assert out.recovered_subproblems >= 0.8 * pre_crash
        assert out.recovered_subproblems + out.completed_subproblems == (
            CFG.n_selection_bootstraps * CFG.n_lambdas
            + CFG.n_estimation_bootstraps * CFG.n_lambdas
        )

    def test_recovered_loss_table_matches_result(self, lasso_job, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        res = run_spmd(
            4, lasso_job, machine=LAPTOP, checkpoint=CheckpointPlan(store)
        )
        out = res.values[0]
        table = recovered_loss_table(
            store, CFG.n_estimation_bootstraps, CFG.n_lambdas
        )
        assert np.isfinite(table).all()
        np.testing.assert_array_equal(table, out.losses)

    def test_store_progress_counts_prefixes(self, lasso_job, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        run_spmd(4, lasso_job, machine=LAPTOP, checkpoint=CheckpointPlan(store))
        progress = store_progress(store)
        assert progress["sel"] == CFG.n_selection_bootstraps * CFG.n_lambdas
        assert progress["est"] == CFG.n_estimation_bootstraps * CFG.n_lambdas
        assert progress["total"] == progress["sel"] + progress["est"]


class TestGoldenDeterminismVar:
    def test_crash_resume_bitwise(self, tmp_path):
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

        def job(comm, checkpoint=None):
            return distributed_uoi_var(
                comm,
                sv.series if comm.rank == 0 else None,
                vcfg,
                n_readers=1,
                checkpoint=checkpoint,
            )

        ref = run_spmd(2, job, machine=LAPTOP)
        store = CheckpointStore(tmp_path / "ckpt")
        ck = CheckpointPlan(store)
        plan = FaultPlan().crash(1, at_time=0.5 * ref.elapsed)
        outcome = run_with_recovery(
            2, job, machine=LAPTOP, fault_plan=plan, checkpoint=ck
        )
        assert outcome.n_restarts == 1
        out = outcome.result.values[0]
        assert_bitwise(out, ref.values[0])
        assert outcome.recovered_subproblems > 0
        progress = store_progress(store)
        assert set(progress) <= {"var-sel", "var-est", "total"}


class TestRunWithRecovery:
    def test_attempts_lost_time_and_render(self, lasso_job, tmp_path):
        ref = run_spmd(4, lasso_job, machine=LAPTOP)
        store = CheckpointStore(tmp_path / "ckpt")
        plan = FaultPlan().crash(2, at_time=0.5 * ref.elapsed)
        outcome = run_with_recovery(
            4, lasso_job, machine=LAPTOP, fault_plan=plan,
            checkpoint=CheckpointPlan(store),
        )
        assert len(outcome.attempts) == 2
        assert not outcome.attempts[0].completed
        assert outcome.attempts[1].completed
        assert outcome.lost_time == outcome.attempts[0].elapsed > 0.0
        assert outcome.final_elapsed == outcome.result.elapsed
        assert 0.0 < outcome.recovery_fraction <= 1.0
        report = outcome.render()
        assert "FAILED" in report and "rank 2" in report
        assert "recovery fraction" in report
        assert_bitwise(outcome.result.values[0], ref.values[0])

    def test_clean_run_needs_no_restart(self, lasso_job):
        outcome = run_with_recovery(4, lasso_job, machine=LAPTOP)
        assert outcome.n_restarts == 0
        assert outcome.lost_time == 0.0
        assert outcome.recovery_fraction == 0.0

    def test_max_restarts_exceeded_raises(self):
        # Two scheduled crashes on the same rank fire one per attempt
        # (the first raise leaves the second armed); one restart allowed.
        plan = (
            FaultPlan().crash(0, at_collective=1).crash(0, at_collective=1)
        )

        def prog(comm):
            return comm.allreduce(1.0)

        with pytest.raises(RuntimeError, match="still failing after 1"):
            run_with_recovery(2, prog, fault_plan=plan, max_restarts=1)


class _InterruptAfter(EngineHook):
    """Raises after N completed subproblems — a mid-run job death."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def on_subproblem_done(self, task, payload, *, recovered):
        self.seen += 1
        if self.seen >= self.n:
            raise RuntimeError("interrupted")


class TestHookPathResume:
    """Checkpoint/resume golden determinism through the engine hooks.

    The serial estimators checkpoint via
    :class:`~repro.resilience.CheckpointHook` attached to the engine
    run; an interrupted fit resumed against the same store must be
    bitwise identical to an uninterrupted one — on *every* backend.
    """

    CFG = UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=2,
        random_state=10,
    )

    def test_partial_store_resumes_bitwise_on_every_backend(self, tmp_path):
        ds = make_sparse_regression(
            72, 8, n_informative=3, snr=12.0, rng=np.random.default_rng(44)
        )
        ref = UoILasso(self.CFG).fit(ds.X, ds.y)

        # Interrupt an engine run after two subproblems; cadence=1
        # makes both durable before the "crash".
        store = CheckpointStore(tmp_path / "ckpt")
        plan = LassoPlan(self.CFG, ds.X, ds.y)
        hook = CheckpointHook(CheckpointPlan(store, cadence=1))
        with pytest.raises(RuntimeError, match="interrupted"):
            run_plan(plan, SerialExecutor(), [hook, _InterruptAfter(2)])
        total = (
            self.CFG.n_selection_bootstraps + self.CFG.n_estimation_bootstraps
        )
        assert 0 < len(store) < total

        first = True
        for executor in (
            SerialExecutor(),
            MultiprocessExecutor(max_workers=2),
            SimMpiExecutor(nranks=2),
        ):
            ck = CheckpointPlan(CheckpointStore(tmp_path / "ckpt"), cadence=1)
            resumed = UoILasso(self.CFG).fit(
                ds.X, ds.y, checkpoint=ck, executor=executor
            )
            assert resumed.coef_.tobytes() == ref.coef_.tobytes()
            assert resumed.losses_.tobytes() == ref.losses_.tobytes()
            np.testing.assert_array_equal(resumed.supports_, ref.supports_)
            if first:
                # The first resume recovers exactly the pre-crash work.
                assert resumed.recovered_subproblems_ == 2
                assert resumed.completed_subproblems_ == total - 2
                first = False
            else:
                # The store is complete now: later backends fast-forward.
                assert resumed.recovered_subproblems_ == total
                assert resumed.completed_subproblems_ == 0

    def test_var_full_store_fast_forwards_cross_backend(self, tmp_path):
        sv = make_sparse_var(3, 44, rng=np.random.default_rng(45))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=4,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=6,
            ),
        )
        store = CheckpointStore(tmp_path / "ckpt")
        ref = UoIVar(vcfg).fit(
            sv.series, checkpoint=CheckpointPlan(store, cadence=1)
        )
        assert ref.completed_subproblems_ == 4
        assert store_progress(store) == {
            "serial-var-sel": 2, "serial-var-est": 2, "total": 4,
        }

        resumed = UoIVar(vcfg).fit(
            sv.series,
            checkpoint=CheckpointPlan(store, cadence=1),
            executor=MultiprocessExecutor(max_workers=2),
        )
        assert resumed.recovered_subproblems_ == 4
        assert resumed.completed_subproblems_ == 0
        assert resumed.vec_coef_.tobytes() == ref.vec_coef_.tobytes()
        assert resumed.losses_.tobytes() == ref.losses_.tobytes()


class TestResilienceExperiment:
    def test_fig4_config_acceptance(self, tmp_path):
        result = resilience.run(
            fast=True, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert result.data["bitwise_identical"]
        assert result.data["n_restarts"] == 1
        assert result.data["lost_time"] > 0.0
        # Acceptance floor: >= 80% of the subproblems checkpointed
        # before the crash are reused by the restart.
        assert result.data["pre_crash_records"] > 0
        assert (
            result.data["recovered_subproblems"]
            >= 0.8 * result.data["pre_crash_records"]
        )
        report = result.render()
        assert "bitwise-identical to reference: True" in report

    def test_resume_flag_fast_forwards(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        resilience.run(fast=True, checkpoint_dir=ckpt)
        resumed = resilience.run(fast=True, checkpoint_dir=ckpt, resume=True)
        assert resumed.data["bitwise_identical"]
        assert resumed.data["n_restarts"] == 0
        assert resumed.data["completed_subproblems"] == 0
        assert resumed.data["recovery_fraction"] == 1.0

    def test_bad_crash_rank_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            resilience.run(fast=True, nranks=2, crash_rank=5)
