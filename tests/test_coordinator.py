"""Coordinator/transport layer: leases, speculation, failure shapes.

The refactor contract under test: every backend is a
:class:`~repro.engine.coordinator.WorkerTransport` driven by one
:class:`~repro.engine.coordinator.Coordinator`, and nothing about the
split may change the numbers — same seed, bitwise-identical
coefficients on every backend, with hook replay in deterministic
chain order.
"""

import os

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig
from repro.datasets import make_sparse_regression
from repro.engine import (
    BACKENDS,
    ESTIMATION,
    Coordinator,
    LassoPlan,
    Lease,
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
    SpeculationPolicy,
    TransportEvent,
    WorkerTransport,
    run_plan,
    worker_utilization,
)
from repro.simmpi.executor import SpmdError
from repro.telemetry.recorder import Recorder, use_recorder

LASSO_CFG = UoILassoConfig(
    n_lambdas=5,
    n_selection_bootstraps=3,
    n_estimation_bootstraps=2,
    random_state=12,
)


@pytest.fixture(scope="module")
def lasso_data():
    return make_sparse_regression(
        80, 9, n_informative=3, snr=12.0, rng=np.random.default_rng(31)
    )


# ---------------------------------------------------------------------------
# architecture: the executor *is* a coordinator over one transport
# ---------------------------------------------------------------------------
class TestLayering:
    def test_executors_are_coordinated(self):
        """Every BACKENDS constructor returns a Coordinator named after
        its transport, and none of them overrides orchestration except
        the elastic fleet-lock wrapper."""
        for name, (factory, _) in BACKENDS.items():
            executor = factory(spawn=False) if name == "elastic" else factory()
            try:
                assert isinstance(executor, Coordinator)
                assert isinstance(executor.transport, WorkerTransport)
                assert executor.name == executor.transport.name == name
                assert executor.verify is False
                overrides = "run_stage" in vars(type(executor))
                assert overrides == (name == "elastic")
            finally:
                if name == "elastic":
                    executor.shutdown()

    def test_transport_shapes(self):
        serial = SerialExecutor().transport
        mp = MultiprocessExecutor(max_workers=2).transport
        simmpi = SimMpiExecutor(nranks=2).transport
        assert (serial.inline, serial.batched, serial.elastic) == (
            True, False, False,
        )
        assert (mp.inline, mp.batched, mp.elastic) == (False, False, False)
        assert (simmpi.inline, simmpi.batched, simmpi.elastic) == (
            False, True, False,
        )

    def test_lease_describe(self):
        lease = Lease(
            id=3, chain_index=1, keys=("a", "b"), worker="w0", issued_at=0.0
        )
        assert lease.describe() == "chain 1 [a, b] leased to w0"


# ---------------------------------------------------------------------------
# ownership predicate: one filter, applied before any lookup
# ---------------------------------------------------------------------------
class TestOwnership:
    def test_unowned_tasks_are_never_looked_up_run_or_reported(
        self, lasso_data
    ):
        from repro.engine import SELECTION, EngineHook, HookList
        from repro.engine.transports import SerialTransport

        looked_up, done = [], []

        class Spy(EngineHook):
            def lookup(self, task):
                looked_up.append(task.key)

            def on_subproblem_done(self, task, payload, *, recovered):
                done.append(task.key)

        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        chains = plan.chains(SELECTION)
        owned = [t.key for chain in chains for t in chain if t.bootstrap != 1]
        assert len(owned) < sum(len(c) for c in chains)
        executor = Coordinator(
            SerialTransport(), owns=lambda task: task.bootstrap != 1
        )
        results = executor.run_stage(plan, SELECTION, chains, HookList([Spy()]))
        assert sorted(results) == sorted(owned)
        assert looked_up == owned and done == owned

    def test_streaming_transport_rejects_owns(self):
        with pytest.raises(ValueError, match="inline or batched"):
            Coordinator(
                MultiprocessExecutor(max_workers=1).transport,
                owns=lambda task: True,
            )


# ---------------------------------------------------------------------------
# speculation policy
# ---------------------------------------------------------------------------
class TestSpeculationPolicy:
    def test_underinformed_returns_none(self):
        policy = SpeculationPolicy(min_samples=3)
        assert policy.threshold([]) is None
        assert policy.threshold([0.1, 0.2]) is None

    def test_threshold_scales_percentile(self):
        policy = SpeculationPolicy(
            percentile=50.0, factor=2.0, min_seconds=0.0, min_samples=3
        )
        assert policy.threshold([1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_min_seconds_floor(self):
        policy = SpeculationPolicy(
            percentile=50.0, factor=2.0, min_seconds=5.0, min_samples=1
        )
        assert policy.threshold([0.001]) == pytest.approx(5.0)

    def test_disabled_policy(self):
        policy = SpeculationPolicy(enabled=False, min_samples=1)
        assert policy.threshold([1.0, 1.0, 1.0]) is None


# ---------------------------------------------------------------------------
# satellite 2: worker death mid-subproblem -> SpmdError naming the keys
# ---------------------------------------------------------------------------
class _SelfKillingPlan(LassoPlan):
    """First estimation chain kills its own worker process."""

    def run_chain(self, stage, tasks, recovered, emit):
        if stage == ESTIMATION and any(
            task.key.endswith("est/k0") for task in tasks
        ):
            os._exit(13)  # simulates OOM-killer / node loss, not an exception
        super().run_chain(stage, tasks, recovered, emit)


class TestMultiprocessWorkerDeath:
    def test_self_killing_task_surfaces_spmd_error(self, lasso_data):
        plan = _SelfKillingPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        executor = MultiprocessExecutor(max_workers=2)
        with pytest.raises(SpmdError) as excinfo:
            run_plan(plan, executor)
        failures = excinfo.value.failures
        assert len(failures) >= 1
        _, inner = failures[0]
        assert "died mid-subproblem" in str(inner)
        notes = " ".join(getattr(inner, "__notes__", []))
        assert "backend=multiprocess" in notes
        assert "stage=estimation" in notes
        # The lost lease's subproblem keys are named for triage.
        assert "est/k" in notes


# ---------------------------------------------------------------------------
# deterministic failure attribution across concurrent chains
# ---------------------------------------------------------------------------
class _ExplodingEstimation(LassoPlan):
    def run_chain(self, stage, tasks, recovered, emit):
        if stage == ESTIMATION:
            raise RuntimeError(f"boom:{tasks[0].key}")
        super().run_chain(stage, tasks, recovered, emit)


class TestErrorOrdering:
    def test_lowest_issued_chain_wins(self, lasso_data):
        """Every estimation chain fails; the surfaced error must be the
        first-issued chain's regardless of wall-clock completion order
        (held failures drain in lease-id order)."""
        plan = _ExplodingEstimation(LASSO_CFG, lasso_data.X, lasso_data.y)
        for _ in range(3):
            executor = MultiprocessExecutor(max_workers=2)
            with pytest.raises(RuntimeError, match="boom:") as excinfo:
                run_plan(plan, executor)
            assert "est/k0" in str(excinfo.value)


# ---------------------------------------------------------------------------
# PLAN405 enforcement at lease issue
# ---------------------------------------------------------------------------
class TestLeaseDisjointness:
    def test_issue_rejects_cross_chain_overlap(self):
        from repro.analysis.planver import PlanVerificationError

        coordinator = Coordinator(WorkerTransport())
        active: dict[int, Lease] = {}
        coordinator._issue(0, ("sel/k0", "sel/k1"), "w0", active)
        with pytest.raises(PlanVerificationError, match="PLAN405"):
            coordinator._issue(1, ("sel/k1",), "w1", active)

    def test_issue_allows_speculative_sibling(self):
        coordinator = Coordinator(WorkerTransport())
        active: dict[int, Lease] = {}
        coordinator._issue(0, ("sel/k0",), "w0", active)
        lease = coordinator._issue(
            0, ("sel/k0",), "w1", active, speculative=True
        )
        assert lease.speculative
        assert coordinator.stats["speculative"] == 1


# ---------------------------------------------------------------------------
# stall reporting (DYN205 + the abort)
# ---------------------------------------------------------------------------
class _StuckTransport(WorkerTransport):
    """One worker that accepts a chain and never completes it."""

    name = "stuck"

    def placement(self, chain_index):
        return "stuck-0"

    def open(self, plan, stage, n_pending):
        self._dispatched = False

    def close(self):
        pass

    def workers(self):
        return ["stuck-0"]

    def idle_workers(self):
        return [] if self._dispatched else ["stuck-0"]

    def dispatch(self, lease, chain_index, recovered):
        self._dispatched = True

    def collect(self, timeout):
        return TransportEvent(kind="idle")


class TestStallReporting:
    def test_stall_raises_and_emits_dyn205(self, lasso_data):
        from repro.analysis.dynamic import DynamicChecker

        checker = DynamicChecker()
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        executor = Coordinator(
            _StuckTransport(), checker=checker, stall_timeout=0.2, tick=0.01
        )
        with pytest.raises(RuntimeError, match="engine stage stalled"):
            run_plan(plan, executor)
        findings = checker.findings_for("DYN205")
        assert len(findings) == 1
        assert "stuck-0" in findings[0].message
        assert findings[0].context["stalled"]["stuck-0"].startswith("chain 0")


# ---------------------------------------------------------------------------
# telemetry: per-worker lease spans and the utilization summary
# ---------------------------------------------------------------------------
class TestWorkerUtilization:
    def test_multiprocess_run_records_lease_spans(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        recorder = Recorder()
        with use_recorder(recorder):
            run_plan(plan, MultiprocessExecutor(max_workers=2))
        spans = [
            s for s in recorder.spans if s.attrs.get("type") == "worker_lease"
        ]
        # One lease per chain (3 selection + 2 estimation), no faults.
        assert len(spans) == 5
        assert all(s.name.startswith("lease:") for s in spans)
        assert all(s.attrs["outcome"] == "completed" for s in spans)
        assert {s.attrs["worker"] for s in spans} <= {"mp-0", "mp-1"}
        assert recorder.counters["engine.leases.issued"].value == 5

        summary = worker_utilization(recorder)
        assert set(summary["workers"]) <= {"mp-0", "mp-1"}
        for stats in summary["workers"].values():
            assert stats["leases"] >= 1
            assert stats["busy_seconds"] >= 0.0
        assert 0.0 <= summary["utilization"] <= 1.0

    def test_worker_solver_telemetry_merges_home(self, lasso_data):
        """Solver instrumentation fires inside worker processes; the
        coordinator must fold it into the run's recorder (chain order)
        so off-process runs keep the serial telemetry surface."""
        recorder = Recorder()
        with use_recorder(recorder):
            run_plan(
                LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y),
                MultiprocessExecutor(max_workers=2),
            )
        serial = Recorder()
        with use_recorder(serial):
            run_plan(
                LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y),
                SerialExecutor(),
            )
        admm = {
            name: value
            for name, value in recorder.counter_values().items()
            if name.startswith("admm.")
        }
        assert admm["admm.solves"] > 0
        # Same chains, once each: solver totals match serial exactly
        # (the parent additionally records engine.leases.* counters).
        assert admm == {
            name: value
            for name, value in serial.counter_values().items()
            if name.startswith("admm.")
        }

    def test_serial_run_records_no_lease_spans(self, lasso_data):
        """The inline (serial) path must keep legacy telemetry exactly:
        one worker, no distribution, no lease bookkeeping."""
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        recorder = Recorder()
        with use_recorder(recorder):
            run_plan(plan, SerialExecutor())
        assert not [
            s for s in recorder.spans if s.attrs.get("type") == "worker_lease"
        ]
        assert worker_utilization(recorder)["workers"] == {}
