"""Elastic backend: socket workers, join/leave, speculation, drains.

The acceptance bar from the coordinator refactor: an elastic run with
a worker killed mid-run and a 10x injected straggler must produce
coefficients bitwise identical to an uninterrupted serial run, and the
scheduler must stay fair across tenants while the fleet is scaled up
and drained under it.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import UoILasso, UoILassoConfig
from repro.datasets import make_sparse_regression
from repro.engine import SerialExecutor, default_executor, make_executor
from repro.engine.coordinator import SpeculationPolicy
from repro.engine.elastic import (
    ElasticExecutor,
    WorkerHub,
    inspect_hub,
    reset_shared_executor,
    shared_elastic_executor,
)
from repro.resilience.faults import FaultPlan
from repro.wire import LineChannel

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


@pytest.fixture(scope="module")
def serial_coef(lasso_data):
    model = UoILasso(LASSO_CFG).fit(
        lasso_data.X, lasso_data.y, executor=SerialExecutor()
    )
    return model.coef_


def _elastic_fit(lasso_data, executor):
    try:
        return UoILasso(LASSO_CFG).fit(
            lasso_data.X, lasso_data.y, executor=executor
        ).coef_
    finally:
        executor.shutdown()


# ---------------------------------------------------------------------------
# bitwise identity, clean and faulted
# ---------------------------------------------------------------------------
class TestBitwiseIdentity:
    def test_clean_run_identical_to_serial(self, lasso_data, serial_coef):
        coef = _elastic_fit(lasso_data, ElasticExecutor(workers=2))
        assert np.array_equal(coef, serial_coef)

    def test_kill_plus_10x_straggler_identical(self, lasso_data, serial_coef):
        """The headline fault drill: worker 1 dies on its second chain,
        worker 0 sleeps ~10x a chain's compute per chain; speculation
        and lease reassignment must hide both without changing a bit."""
        faults = FaultPlan().crash(1, at_collective=2).delay(0, seconds=0.5)
        executor = ElasticExecutor(
            workers=3,
            faults=faults,
            speculation=SpeculationPolicy(
                percentile=90.0, factor=2.0, min_seconds=0.05, min_samples=2
            ),
        )
        coef = _elastic_fit(lasso_data, executor)
        assert np.array_equal(coef, serial_coef)
        stats = executor.utilization()
        assert stats["joins"] == 3
        assert stats["leaves"] >= 1
        # The straggler or the dead worker forced duplicate/reissued
        # leases beyond the one-per-chain minimum.
        assert stats["speculative"] + stats["reassigned"] >= 1

    def test_crash_recovers_by_reassignment_without_speculation(
        self, lasso_data, serial_coef
    ):
        faults = FaultPlan().crash(1, at_collective=1)
        executor = ElasticExecutor(
            workers=2,
            faults=faults,
            speculation=SpeculationPolicy(enabled=False),
        )
        coef = _elastic_fit(lasso_data, executor)
        assert np.array_equal(coef, serial_coef)
        stats = executor.utilization()
        assert stats["leaves"] >= 1
        assert stats["reassigned"] >= 1
        assert stats["speculative"] == 0


# ---------------------------------------------------------------------------
# mid-run elasticity
# ---------------------------------------------------------------------------
class TestMidRunJoin:
    def test_workers_attach_mid_run(self, lasso_data, serial_coef):
        """The run starts with an empty fleet; two workers join while
        the first stage is already open and pick up the queued chains
        (the rank-join handshake ships them the current stage frame)."""
        executor = ElasticExecutor(workers=0)

        def attach():
            executor.spawn_worker(0)
            executor.spawn_worker(1)

        timer = threading.Timer(0.4, attach)
        timer.start()
        try:
            coef = _elastic_fit(lasso_data, executor)
        finally:
            timer.cancel()
        assert np.array_equal(coef, serial_coef)
        assert executor.utilization()["joins"] == 2


# ---------------------------------------------------------------------------
# worker-side telemetry ships home on the done frame
# ---------------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_solver_counters_cross_the_wire(self, lasso_data):
        from repro.engine import run_plan
        from repro.engine.plans import LassoPlan
        from repro.telemetry.recorder import Recorder, use_recorder

        recorder = Recorder()
        executor = ElasticExecutor(workers=2)
        try:
            with use_recorder(recorder):
                run_plan(
                    LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y),
                    executor,
                )
        finally:
            executor.shutdown()
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
        assert admm == {
            name: value
            for name, value in serial.counter_values().items()
            if name.startswith("admm.")
        }


# ---------------------------------------------------------------------------
# hub protocol
# ---------------------------------------------------------------------------
class TestWorkerHub:
    def test_join_handshake_and_name_uniquify(self):
        hub = WorkerHub()
        chans, names = [], []
        try:
            for _ in range(2):
                chan = LineChannel(
                    socket.create_connection((hub.host, hub.port))
                )
                chan.send({"op": "join", "worker": "dup"})
                chans.append(chan)
                # Read the welcome before the next join: the hub serves
                # each connection on its own thread, so two in-flight
                # joins may register in either order.
                names.append(chan.recv()["worker"])
            assert names == ["dup", "dup+"]
            deadline = time.monotonic() + 5.0
            while hub.workers() != ["dup", "dup+"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            for chan in chans:
                chan.close()
            hub.close()

    def test_stage_broadcast_mid_join_reaches_the_worker_after_welcome(
        self, monkeypatch
    ):
        """A stage broadcast that lands while a join sits between its
        registration and its welcome must not overtake the welcome: the
        worker reads welcome, then that stage frame, then later frames,
        each intact (the hub's join thread and the coordinator never
        write to one channel at once)."""
        reached, release = threading.Event(), threading.Event()

        class HeldChannel(LineChannel):
            def send(self, obj):
                if obj.get("op") == "welcome":
                    reached.set()
                    release.wait(5.0)
                super().send(obj)

        monkeypatch.setattr("repro.engine.elastic.LineChannel", HeldChannel)
        hub = WorkerHub()
        sock = socket.create_connection((hub.host, hub.port))
        sock.settimeout(5.0)  # a lost frame fails the test, never hangs it
        chan = LineChannel(sock)
        try:
            chan.send({"op": "join", "worker": "late"})
            assert reached.wait(5.0)
            stage = {"op": "stage", "blob": "x" * (1 << 16)}
            hub.broadcast_stage(stage)
            release.set()
            got = [chan.recv(), chan.recv()]
            assert [frame["op"] for frame in got] == ["welcome", "stage"]
            assert got == [{"op": "welcome", "worker": "late"}, stage]
            assert hub.events.get(timeout=5.0)[:2] == ("join", "late")
            assert hub.workers() == ["late"]
            hub.send("late", {"op": "run", "lease": 1})
            assert chan.recv() == {"op": "run", "lease": 1}
        finally:
            release.set()
            chan.close()
            hub.close()

    def test_disconnect_posts_leave_event(self):
        hub = WorkerHub()
        try:
            chan = LineChannel(socket.create_connection((hub.host, hub.port)))
            chan.send({"op": "join", "worker": "w"})
            assert chan.recv()["op"] == "welcome"
            assert hub.events.get(timeout=5.0)[0] == "join"
            chan.close()
            kind, worker, _ = hub.events.get(timeout=5.0)
            assert (kind, worker) == ("leave", "w")
            assert hub.workers() == []
        finally:
            hub.close()

    def test_inspect_reports_fleet_status(self):
        executor = ElasticExecutor(workers=1)
        try:
            executor.ensure_fleet()
            status = inspect_hub(executor.hub.host, executor.hub.port)
            assert status["ok"] is True
            assert status["workers"] == ["ew0"]
            assert status["joined_total"] == 1
            assert status["stage_loaded"] is False
        finally:
            executor.shutdown()

    def test_unknown_op_is_rejected(self):
        hub = WorkerHub()
        try:
            chan = LineChannel(socket.create_connection((hub.host, hub.port)))
            chan.send({"op": "launder"})
            reply = chan.recv()
            chan.close()
            assert reply["ok"] is False
        finally:
            hub.close()


# ---------------------------------------------------------------------------
# registry + shared fleet
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_alias_resolves_to_elastic(self):
        executor = make_executor("processpool-elastic", workers=0, spawn=False)
        try:
            assert isinstance(executor, ElasticExecutor)
            assert executor.name == "elastic"
        finally:
            executor.shutdown()

    def test_default_executor_uses_shared_fleet(self, monkeypatch):
        reset_shared_executor()
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "elastic")
        monkeypatch.setenv("REPRO_ELASTIC_WORKERS", "1")
        try:
            first = default_executor()
            assert isinstance(first, ElasticExecutor)
            assert first is default_executor()
            assert first is shared_elastic_executor()
            assert first.n_workers == 1
        finally:
            reset_shared_executor()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_workers_inspect(self, capsys):
        executor = ElasticExecutor(workers=1)
        try:
            executor.ensure_fleet()
            rc = cli_main(
                [
                    "workers",
                    "inspect",
                    "--host",
                    executor.hub.host,
                    "--port",
                    str(executor.hub.port),
                ]
            )
            status = json.loads(capsys.readouterr().out)
        finally:
            executor.shutdown()
        assert rc == 0
        assert status["workers"] == ["ew0"]

    def test_engine_backend_check(self, capsys):
        rc = cli_main(["engine", "--kind", "lasso", "--backend", "serial"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend serial: bitwise identical to serial = True" in out


# ---------------------------------------------------------------------------
# satellite: scheduler fair share while the fleet drains 2 -> 4 -> 1
# ---------------------------------------------------------------------------
class TestSchedulerFairShareUnderDrain:
    def test_four_tenants_mixed_sizes_fleet_2_4_1(self):
        from tests.test_service import make_stub_job

        from repro.service import DONE, Job, JobSpec, Scheduler

        fit_cfg = UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=3,
            n_estimation_bootstraps=2,
            max_iter=120,
            random_state=3,
        )
        # Mixed job sizes: each tenant brings a different problem shape.
        problems = {}
        for i, tenant in enumerate(["t1", "t2", "t3", "t4"]):
            rng = np.random.default_rng(40 + i)
            X = rng.normal(size=(40 + 8 * i, 6 + i))
            beta = np.zeros(6 + i)
            beta[:2] = (1.2, -0.8)
            problems[tenant] = {
                "X": X, "y": X @ beta + 0.1 * rng.normal(size=40 + 8 * i)
            }
        references = {
            tenant: UoILasso(fit_cfg)
            .fit(data["X"], data["y"], executor=SerialExecutor())
            .coef_
            for tenant, data in problems.items()
        }

        # Every worker sleeps a beat per chain so the 8-job queue is
        # still flowing when the fleet scales out and drains (otherwise
        # tiny fits finish before the late joiners boot).
        pacing = FaultPlan()
        for rank in range(4):
            pacing.delay(rank, seconds=0.25)
        fleet = ElasticExecutor(workers=2, faults=pacing)
        sched = Scheduler(
            workers=1,
            batching=False,
            # The gate stub stays in-process; real jobs share the fleet.
            executor_factory=lambda backend: (
                fleet if backend == "elastic" else make_executor(backend)
            ),
        )
        hold = make_stub_job("hold", 1, tenant="holder")
        jobs = []
        try:
            # Gate the single scheduler worker so the whole mixed queue
            # is present before fair-share ordering starts.
            sched.submit(hold)
            assert hold.plan.started.wait(10.0)
            seq = 2
            for tenant in ["t1", "t1", "t2", "t2", "t3", "t3", "t4", "t4"]:
                spec = JobSpec(
                    kind="lasso",
                    data=problems[tenant],
                    config=fit_cfg,
                    backend="elastic",
                    tenant=tenant,
                )
                job = Job(
                    id=f"{tenant}-{seq}",
                    spec=spec,
                    plan=spec.build_plan(),
                    seq=seq,
                )
                jobs.append(job)
                sched.submit(job)
                seq += 1
            hold.plan.release.set()

            # Scale out 2 -> 4 while the queue is running...
            deadline = time.monotonic() + 60.0
            while len(fleet.hub.workers()) < 2:
                assert time.monotonic() < deadline, "fleet never assembled"
                time.sleep(0.02)
            fleet.spawn_worker(2)
            fleet.spawn_worker(3)
            while len(fleet.hub.workers()) < 4:
                assert time.monotonic() < deadline, "scale-out never landed"
                time.sleep(0.02)
            # ...then drain 4 -> 1 (kills land mid-run; lost leases are
            # reassigned, partial chains completed from streamed tasks).
            for proc in fleet._procs[:3]:
                proc.terminate()

            for job in jobs:
                assert job.done_event.wait(180.0), f"{job.id} never finished"
                assert job.state == DONE, f"{job.id}: {job.error}"
        finally:
            hold.plan.release.set()
            sched.shutdown()
            stats = fleet.utilization()
            survivors = fleet.hub.workers()
            fleet.shutdown()

        # Fair share: with every tenant at zero starts, the first four
        # claims rotate through all four tenants (submit order would
        # have run t1 twice first); the single scheduler worker makes
        # the claim order deterministic.
        started = sorted(
            (job.started_at, job.spec.tenant) for job in jobs
        )
        assert [tenant for _, tenant in started] == [
            "t1", "t2", "t3", "t4", "t1", "t2", "t3", "t4",
        ]
        # The drain really happened and every result is still exact.
        assert stats["joins"] >= 4
        assert stats["leaves"] >= 3
        assert survivors == ["ew3"]
        for job in jobs:
            assert np.array_equal(
                job.result.coef, references[job.spec.tenant]
            ), f"{job.id} diverged"
