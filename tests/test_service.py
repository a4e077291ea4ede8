"""Tests for the in-process service: lifecycle, batching, fair share."""

import threading

import numpy as np
import pytest

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.core.uoi_lasso import UoILasso
from repro.core.uoi_var import UoIVar
from repro.engine import SerialExecutor, run_plan
from repro.engine.plan import Subproblem, UoIPlan
from repro.engine.plans import LassoPlan
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    AdmissionError,
    BatchPlan,
    Job,
    JobCancelled,
    JobSpec,
    Scheduler,
    Service,
    ServiceClient,
    UnknownJobError,
)

LASSO_CFG = UoILassoConfig(
    n_lambdas=4,
    n_selection_bootstraps=4,
    n_estimation_bootstraps=4,
    max_iter=120,
    random_state=3,
)
VAR_CFG = UoIVarConfig(
    lasso=UoILassoConfig(
        n_lambdas=3,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=3,
        max_iter=120,
        random_state=3,
    )
)


@pytest.fixture(scope="module")
def lasso_problem():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 6))
    beta = np.zeros(6)
    beta[:2] = (1.2, -0.8)
    y = X @ beta + 0.1 * rng.normal(size=40)
    return {"X": X, "y": y}


@pytest.fixture(scope="module")
def var_problem():
    rng = np.random.default_rng(6)
    series = np.zeros((50, 3))
    series[0] = rng.normal(size=3)
    for t in range(1, 50):
        series[t] = 0.5 * series[t - 1] + 0.1 * rng.normal(size=3)
    return {"series": series}


class GatedPlan(UoIPlan):
    """Deterministic stub: each task blocks on its gate, then emits.

    Lets the tests hold the single worker inside a run (or hold a job
    in the queue behind it) and release it on cue — no timing races.
    """

    stages = ("work",)
    kind = "gated_stub"

    def __init__(self, n_tasks=2, label="g"):
        self.label = label
        self.started = threading.Event()
        self.release = threading.Event()
        self.n_tasks = n_tasks
        self.emitted = []

    def meta(self):
        return {"kind": self.kind, "label": self.label}

    def chains(self, stage):
        return [
            [Subproblem(stage, i, None, f"{self.label}/t{i}", i, 0)]
            for i in range(self.n_tasks)
        ]

    def run_chain(self, stage, tasks, recovered, emit):
        for task in tasks:
            self.started.set()
            assert self.release.wait(30.0), "test forgot to release the gate"
            emit(task, {"x": np.full(1, float(task.bootstrap))})

    def reduce(self, stage, results):
        self.emitted = sorted(results)

    def finalize(self):
        return {"emitted": self.emitted}


def make_stub_job(job_id, seq, plan=None, tenant="default"):
    spec = JobSpec(kind="lasso", data={}, tenant=tenant)
    return Job(
        id=job_id, spec=spec, plan=plan or GatedPlan(label=job_id), seq=seq
    )


class TestJobSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(AdmissionError, match="kind"):
            JobSpec(kind="ridge", data={}).validate()

    def test_missing_arrays_rejected(self, lasso_problem):
        with pytest.raises(AdmissionError, match="missing"):
            JobSpec(kind="lasso", data={"X": lasso_problem["X"]}).validate()
        with pytest.raises(AdmissionError, match="series"):
            JobSpec(kind="var", data={}).validate()

    def test_spec_digest_pins_the_computation(self, lasso_problem):
        a = JobSpec(kind="lasso", data=lasso_problem, config=LASSO_CFG)
        b = JobSpec(kind="lasso", data=dict(lasso_problem), config=LASSO_CFG)
        assert a.spec_digest() == b.spec_digest()
        other = {"X": lasso_problem["X"], "y": -lasso_problem["y"]}
        assert a.spec_digest() != JobSpec(
            kind="lasso", data=other, config=LASSO_CFG
        ).spec_digest()
        assert a.spec_digest() != JobSpec(
            kind="lasso", data=lasso_problem
        ).spec_digest()

    def test_store_key_scoped_by_tenant_and_spec(self, lasso_problem):
        def job(tenant, data, jid="j1"):
            spec = JobSpec(
                kind="lasso", data=data, tenant=tenant, idempotency_key="K"
            )
            return Job(id=jid, spec=spec, plan=GatedPlan(), seq=1)

        a = job("t1", lasso_problem)
        assert a.store_key.startswith("t1/K/")
        # Two tenants sharing an idempotency key never share records.
        assert a.store_key != job("t2", lasso_problem).store_key
        # Same key, different computation: fresh prefix, no stale hit.
        other = {"X": lasso_problem["X"], "y": -lasso_problem["y"]}
        assert a.store_key != job("t1", other).store_key
        # Same tenant+key+spec: stable across service instances.
        assert a.store_key == job("t1", lasso_problem, jid="j7").store_key

    def test_compat_key_depends_on_family_backend_shapes(self, lasso_problem):
        a = JobSpec(kind="lasso", data=lasso_problem, tenant="t1")
        b = JobSpec(kind="lasso", data=lasso_problem, tenant="t2")
        assert a.compat_key() == b.compat_key()  # tenant never matters
        c = JobSpec(kind="lasso", data=lasso_problem, backend="multiprocess")
        assert a.compat_key() != c.compat_key()
        small = {k: v[:10] for k, v in lasso_problem.items()}
        d = JobSpec(kind="lasso", data=small)
        assert a.compat_key() != d.compat_key()


class TestBatchPlanIdentity:
    def test_batched_outputs_bitwise_equal_solo(self, lasso_problem):
        solo = run_plan(
            LassoPlan(LASSO_CFG, lasso_problem["X"], lasso_problem["y"]),
            SerialExecutor(),
        )
        batched = run_plan(
            BatchPlan(
                [
                    (
                        mid,
                        LassoPlan(
                            LASSO_CFG, lasso_problem["X"], lasso_problem["y"]
                        ),
                    )
                    for mid in ("j1", "j2", "j3")
                ]
            ),
            SerialExecutor(),
        )
        for mid in ("j1", "j2", "j3"):
            out = batched[mid]
            assert np.array_equal(out.coef, solo.coef)
            assert np.array_equal(out.supports, solo.supports)
            assert np.array_equal(out.losses, solo.losses)
            assert np.array_equal(out.winners, solo.winners)
            assert np.array_equal(out.lambdas, solo.lambdas)

    def test_incompatible_members_rejected(self, lasso_problem):
        lasso = LassoPlan(LASSO_CFG, lasso_problem["X"], lasso_problem["y"])
        with pytest.raises(ValueError, match="compatible|stages"):
            BatchPlan([("a", lasso), ("b", GatedPlan())])

    def test_member_ids_validated(self, lasso_problem):
        lasso = LassoPlan(LASSO_CFG, lasso_problem["X"], lasso_problem["y"])
        with pytest.raises(ValueError, match="duplicate"):
            BatchPlan([("a", lasso), ("a", lasso)])
        with pytest.raises(ValueError, match="must not contain"):
            BatchPlan([("a|b", lasso)])

    def test_keys_are_prefixed_and_unique(self, lasso_problem):
        plan = BatchPlan(
            [
                (mid, LassoPlan(LASSO_CFG, lasso_problem["X"], lasso_problem["y"]))
                for mid in ("a", "b")
            ]
        )
        keys = [
            t.key for chain in plan.chains("selection") for t in chain
        ]
        assert len(keys) == len(set(keys))
        assert all(k.startswith(("a|", "b|")) for k in keys)
        assert BatchPlan.split_key("a|serial-sel/k0") == ("a", "serial-sel/k0")


class TestSchedulerLifecycle:
    def test_cancel_while_queued_is_immediate(self):
        sched = Scheduler(workers=1, batching=False)
        try:
            running = make_stub_job("ja", 1)
            queued = make_stub_job("jb", 2)
            sched.submit(running)
            assert running.plan.started.wait(10.0)
            sched.submit(queued)
            assert queued.state == QUEUED
            assert sched.cancel(queued) is True
            assert queued.state == CANCELLED
            assert queued.done_event.is_set()
            assert sched.queue_depth() == 0
            running.plan.release.set()
            assert running.done_event.wait(10.0)
            assert running.state == DONE
        finally:
            for job in (running, queued):
                job.plan.release.set()
            sched.shutdown()

    def test_cancel_while_running_aborts_solo_run(self):
        sched = Scheduler(workers=1, batching=False)
        try:
            job = make_stub_job("ja", 1)
            sched.submit(job)
            assert job.plan.started.wait(10.0)
            assert job.state == RUNNING
            assert sched.cancel(job) is True
            job.plan.release.set()  # next subproblem boundary sees the flag
            assert job.done_event.wait(10.0)
            assert job.state == CANCELLED
        finally:
            job.plan.release.set()
            sched.shutdown()

    def test_cancel_terminal_job_returns_false(self):
        sched = Scheduler(workers=1, batching=False)
        try:
            job = make_stub_job("ja", 1)
            job.plan.release.set()
            sched.submit(job)
            assert job.done_event.wait(10.0)
            assert sched.cancel(job) is False
        finally:
            sched.shutdown()

    def test_attribution_error_fails_job_and_worker_survives(self):
        class ResultRejectingStore:
            """Final-result writes fail for job ja; the rest succeed."""

            def get(self, key):
                return None

            def put(self, key, arrays):
                if "/ja/" in key and key.endswith("/result"):
                    raise RuntimeError("result write failed")
                return "stub:1"

        class ArrayOutputsPlan(GatedPlan):
            """Gated stub whose finalize() flattens like PlanOutputs."""

            def finalize(self):
                from types import SimpleNamespace

                z = np.zeros(1)
                return SimpleNamespace(
                    coef=z, supports=z, losses=z, winners=z, lambdas=z
                )

        sched = Scheduler(
            workers=1, batching=False, store=ResultRejectingStore()
        )
        try:
            bad = make_stub_job("ja", 1, plan=ArrayOutputsPlan(label="ja"))
            bad.plan.release.set()
            sched.submit(bad)
            assert bad.done_event.wait(10.0)
            assert bad.state == "failed"
            assert "result write failed" in bad.error
            # The worker thread survived the attribution failure.
            ok = make_stub_job("jb", 2, plan=ArrayOutputsPlan(label="jb"))
            ok.plan.release.set()
            sched.submit(ok)
            assert ok.done_event.wait(10.0)
            assert ok.state == DONE
        finally:
            sched.shutdown()

    def test_failed_run_records_error(self):
        class ExplodingPlan(GatedPlan):
            def run_chain(self, stage, tasks, recovered, emit):
                raise RuntimeError("solver blew up")

        sched = Scheduler(workers=1, batching=False)
        try:
            job = make_stub_job("ja", 1, plan=ExplodingPlan(label="ja"))
            sched.submit(job)
            assert job.done_event.wait(10.0)
            assert job.state == "failed"
            assert "solver blew up" in job.error
        finally:
            sched.shutdown()

    def test_fair_share_prefers_starved_tenant(self):
        sched = Scheduler(workers=1, batching=False)
        gate = make_stub_job("hold", 1, tenant="t1")
        b = make_stub_job("jb", 2, tenant="t1")
        c = make_stub_job("jc", 3, tenant="t1")
        d = make_stub_job("jd", 4, tenant="t2")
        try:
            sched.submit(gate)
            assert gate.plan.started.wait(10.0)
            for job in (b, c, d):
                sched.submit(job)
            gate.plan.release.set()
            # t2 has started 0 jobs vs t1's 1: jd must run before jb
            # even though jb was submitted earlier.
            assert d.plan.started.wait(10.0)
            assert b.state == QUEUED
            d.plan.release.set()
            b.plan.release.set()
            c.plan.release.set()
            for job in (b, c, d):
                assert job.done_event.wait(10.0)
        finally:
            for job in (gate, b, c, d):
                job.plan.release.set()
            sched.shutdown()

    def test_shutdown_cancels_pending_jobs(self):
        sched = Scheduler(workers=1, batching=False)
        running = make_stub_job("ja", 1)
        queued = make_stub_job("jb", 2)
        sched.submit(running)
        assert running.plan.started.wait(10.0)
        sched.submit(queued)
        running.plan.release.set()
        sched.shutdown()
        assert queued.state == CANCELLED
        assert running.state == DONE
        with pytest.raises(RuntimeError, match="shut down"):
            sched.submit(make_stub_job("jc", 3))


class TestSchedulerBatching:
    def test_compatible_queued_jobs_share_one_run(self, lasso_problem):
        sched = Scheduler(workers=1, batching=True, max_batch=8)
        hold = make_stub_job("hold", 1)
        jobs = []
        try:
            sched.submit(hold)
            assert hold.plan.started.wait(10.0)
            for i in range(3):
                spec = JobSpec(kind="lasso", data=lasso_problem, config=LASSO_CFG)
                jobs.append(
                    Job(
                        id=f"j{i}",
                        spec=spec,
                        plan=spec.build_plan(),
                        seq=2 + i,
                    )
                )
                sched.submit(jobs[-1])
            hold.plan.release.set()
            for job in jobs:
                assert job.done_event.wait(60.0)
                assert job.state == DONE
                assert job.batch_size == 3
            ref = UoILasso(LASSO_CFG).fit(lasso_problem["X"], lasso_problem["y"])
            for job in jobs:
                assert np.array_equal(job.result.coef, ref.coef_)
        finally:
            hold.plan.release.set()
            sched.shutdown()


class TestService:
    def test_results_bitwise_identical_to_direct_fits(
        self, lasso_problem, var_problem
    ):
        ref_lasso = UoILasso(LASSO_CFG).fit(
            lasso_problem["X"], lasso_problem["y"]
        )
        ref_var = UoIVar(VAR_CFG).fit(var_problem["series"])
        with Service(workers=2) as svc:
            client = ServiceClient(svc)
            ids = []
            for i in range(4):
                if i % 2 == 0:
                    ids.append(
                        client.submit("lasso", lasso_problem, config=LASSO_CFG)
                    )
                else:
                    ids.append(
                        client.submit("var", var_problem, config=VAR_CFG)
                    )
            for i, job_id in enumerate(ids):
                out = client.results(job_id, timeout=120.0)
                if i % 2 == 0:
                    assert np.array_equal(out.coef, ref_lasso.coef_)
                else:
                    assert np.array_equal(out.coef, ref_var.vec_coef_)
                assert client.status(job_id)["state"] == DONE

    @pytest.mark.parametrize("rho", [None, 2.5])
    def test_rho_round_trips_the_wire_into_a_job(self, lasso_problem, rho):
        """config_to_wire -> JSON -> config_from_wire keeps rho=None
        (the spectral default) as None, and the job run from the decoded
        config is bitwise the direct fit."""
        import json

        from repro.service.server import config_from_wire, config_to_wire

        cfg = LASSO_CFG.with_(rho=rho)
        decoded = config_from_wire(
            "lasso", json.loads(json.dumps(config_to_wire(cfg)))
        )
        assert decoded == cfg and decoded.rho == rho
        ref = UoILasso(cfg).fit(lasso_problem["X"], lasso_problem["y"])
        with Service(workers=1) as svc:
            client = ServiceClient(svc)
            out = client.results(
                client.submit("lasso", lasso_problem, config=decoded),
                timeout=120.0,
            )
        assert out.coef.tobytes() == ref.coef_.tobytes()
        assert np.array_equal(out.supports, ref.supports_)

    def test_duplicate_idempotency_key_returns_original_job_id(
        self, lasso_problem
    ):
        with Service(workers=1) as svc:
            client = ServiceClient(svc)
            first = client.submit(
                "lasso", lasso_problem, config=LASSO_CFG, idempotency_key="job-A"
            )
            again = client.submit(
                "lasso", lasso_problem, config=LASSO_CFG, idempotency_key="job-A"
            )
            assert again == first
            # Same key under another tenant is a different job.
            other = client.submit(
                "lasso",
                lasso_problem,
                config=LASSO_CFG,
                tenant="t2",
                idempotency_key="job-A",
            )
            assert other != first
            assert len(svc.jobs()) == 2

    def test_admission_rejects_bad_specs(self, lasso_problem):
        with Service(workers=1) as svc:
            client = ServiceClient(svc)
            with pytest.raises(AdmissionError):
                client.submit("ridge", lasso_problem)
            with pytest.raises(AdmissionError):
                client.submit("lasso", {"X": lasso_problem["X"]})
            assert svc.jobs() == []  # nothing was enqueued

    def test_unknown_job_id_raises(self):
        with Service(workers=1) as svc:
            with pytest.raises(UnknownJobError):
                svc.status("j999")
            with pytest.raises(UnknownJobError):
                svc.cancel("j999")

    def test_results_timeout(self, lasso_problem):
        svc = Service(workers=1)
        job = make_stub_job("hold", 1)
        try:
            svc.scheduler.submit(job)
            assert job.plan.started.wait(10.0)
            job_id = ServiceClient(svc).submit(
                "lasso", lasso_problem, config=LASSO_CFG
            )
            with pytest.raises(TimeoutError):
                svc.results(job_id, timeout=0.05)
        finally:
            job.plan.release.set()
            svc.shutdown()

    def test_cancelled_job_results_raise(self, lasso_problem):
        svc = Service(workers=1)
        hold = make_stub_job("hold", 1)
        try:
            svc.scheduler.submit(hold)
            assert hold.plan.started.wait(10.0)
            client = ServiceClient(svc)
            job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
            assert client.cancel(job_id) is True
            with pytest.raises(JobCancelled):
                client.results(job_id, timeout=10.0)
            assert client.status(job_id)["state"] == CANCELLED
        finally:
            hold.plan.release.set()
            svc.shutdown()

    def test_stream_progress_replays_and_terminates(self, lasso_problem):
        with Service(workers=1) as svc:
            client = ServiceClient(svc)
            job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
            events = list(client.stream_progress(job_id))
            assert events[-1]["final"] is True
            assert events[-1]["state"] == DONE
            snapshots = events[:-1]
            # B1 selection + B2 estimation subproblems, in order.
            assert len(snapshots) == 8
            assert snapshots[0]["stage"] == "selection"
            assert snapshots[-1]["stage"] == "estimation"
            assert snapshots[-1]["done"] == snapshots[-1]["total"] == 4

    def test_store_resume_recovers_subproblems(self, tmp_path, lasso_problem):
        ref = UoILasso(LASSO_CFG).fit(lasso_problem["X"], lasso_problem["y"])
        with Service(workers=1, store_root=tmp_path / "store") as svc:
            job_id = ServiceClient(svc).submit(
                "lasso", lasso_problem, config=LASSO_CFG, idempotency_key="fitA"
            )
            first = svc.results(job_id, timeout=120.0)
            assert np.array_equal(first.coef, ref.coef_)
        # A fresh service over the same store: every subproblem of the
        # resubmitted job is served from the replicated store.
        with Service(workers=1, store_root=tmp_path / "store") as svc2:
            client = ServiceClient(svc2)
            job_id = client.submit(
                "lasso", lasso_problem, config=LASSO_CFG, idempotency_key="fitA"
            )
            events = list(client.stream_progress(job_id))
            out = svc2.results(job_id, timeout=120.0)
            assert np.array_equal(out.coef, ref.coef_)
            snapshots = [e for e in events if not e.get("final")]
            assert snapshots and all(e["recovered"] for e in snapshots)

    def test_shared_idempotency_key_never_crosses_tenants(
        self, tmp_path, lasso_problem
    ):
        other = {"X": lasso_problem["X"], "y": -lasso_problem["y"]}
        ref_other = UoILasso(LASSO_CFG).fit(other["X"], other["y"])
        with Service(workers=1, store_root=tmp_path / "store") as svc:
            client = ServiceClient(svc)
            first = client.submit(
                "lasso",
                lasso_problem,
                config=LASSO_CFG,
                tenant="t1",
                idempotency_key="K",
            )
            svc.results(first, timeout=120.0)
            # t2 reuses the key for a *different* fit: it must be
            # computed fresh, never served from t1's records.
            second = client.submit(
                "lasso",
                other,
                config=LASSO_CFG,
                tenant="t2",
                idempotency_key="K",
            )
            events = list(client.stream_progress(second))
            out = svc.results(second, timeout=120.0)
        assert np.array_equal(out.coef, ref_other.coef_)
        snapshots = [e for e in events if not e.get("final")]
        assert snapshots and not any(e["recovered"] for e in snapshots)

    def test_restarted_service_id_collision_not_stale_served(
        self, tmp_path, lasso_problem
    ):
        other = {"X": lasso_problem["X"], "y": -lasso_problem["y"]}
        ref_other = UoILasso(LASSO_CFG).fit(other["X"], other["y"])
        with Service(workers=1, store_root=tmp_path / "store") as svc:
            job_id = ServiceClient(svc).submit(
                "lasso", lasso_problem, config=LASSO_CFG
            )
            svc.results(job_id, timeout=120.0)
        # A fresh service restarts job ids at j1; a different fit
        # landing on the recycled id must not hit the old records.
        with Service(workers=1, store_root=tmp_path / "store") as svc2:
            client = ServiceClient(svc2)
            second = client.submit("lasso", other, config=LASSO_CFG)
            assert second == job_id
            events = list(client.stream_progress(second))
            out = svc2.results(second, timeout=120.0)
        assert np.array_equal(out.coef, ref_other.coef_)
        snapshots = [e for e in events if not e.get("final")]
        assert snapshots and not any(e["recovered"] for e in snapshots)

    def test_manifest_export_is_readable(self, tmp_path, lasso_problem):
        from repro.telemetry import read_manifest

        with Service(workers=1) as svc:
            client = ServiceClient(svc)
            job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
            client.results(job_id, timeout=120.0)
            path = svc.export_manifest(tmp_path / "manifest.jsonl")
        man = read_manifest(path)
        assert man["run"]["kind"] == "service"
        assert man["counters"]["service.jobs_submitted"] == 1.0
        assert man["counters"]["service.jobs_done"] == 1.0
        names = {s["name"] for s in man["spans"]}
        assert f"job:{job_id}:run" in names
        assert f"job:{job_id}:queued" in names
        assert man["summary"]["states"] == {"done": 1}
