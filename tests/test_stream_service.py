"""Streaming jobs through the service: admission, progress, cancel, wire.

A ``kind="stream"`` job replays its series through the rolling re-fit
loop — one engine plan per window — so the service contract differs
from batch jobs in pinned ways: stream jobs never batch, progress
counts windows, and cancellation lands at window boundaries.
"""

import threading

import numpy as np
import pytest

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.engine import SerialExecutor
from repro.service import (
    CANCELLED,
    AdmissionError,
    JobCancelled,
    JobSpec,
    Service,
    ServiceClient,
)
from repro.service.jobs import JOB_KINDS, StreamJobPlan
from repro.stream import SpikeRateSource, StreamConfig, expected_windows, run_rolling

VAR_CFG = UoIVarConfig(
    order=1,
    lasso=UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=3,
        solver="cd",
        random_state=9,
    ),
)
STREAM_CFG = StreamConfig(var=VAR_CFG, window=24, cadence=6)


@pytest.fixture(scope="module")
def series():
    return np.array(list(SpikeRateSource(3, seed=33, max_ticks=42)))


def _spec(series, config=STREAM_CFG, **kwargs):
    return JobSpec(kind="stream", data={"series": series}, config=config, **kwargs)


class TestAdmission:
    def test_job_kinds_pinned(self):
        assert JOB_KINDS == ("lasso", "var", "stream")

    def test_missing_series_rejected(self):
        with pytest.raises(AdmissionError, match="missing data"):
            JobSpec(kind="stream", data={}).validate()

    def test_wrong_config_type_rejected(self, series):
        with pytest.raises(AdmissionError, match="StreamConfig"):
            JobSpec(
                kind="stream", data={"series": series}, config=VAR_CFG
            ).validate()

    def test_too_short_series_rejected(self):
        short = np.zeros((5, 3))
        with pytest.raises(AdmissionError, match="too short"):
            _spec(short).build_plan()

    def test_one_d_series_rejected(self):
        with pytest.raises(AdmissionError, match="2-D"):
            _spec(np.zeros(40)).build_plan()

    def test_plan_stub_describes_window_schedule(self, series):
        plan = _spec(series).build_plan()
        assert isinstance(plan, StreamJobPlan)
        want = expected_windows(STREAM_CFG, len(series))
        assert want == 4  # 24 + 3 * 6 == 42
        desc = plan.describe()
        assert desc["stages"]["stream"]["subproblems"] == want
        assert plan.meta()["windows"] == want


class TestLifecycle:
    def test_runs_to_done_and_matches_direct_rolling(self, series):
        with Service(workers=1, verify=True) as svc:
            job_id = svc.submit(_spec(series))
            events = list(svc.stream_progress(job_id))
            out = svc.results(job_id, timeout=120.0)
            status = svc.status(job_id)
        assert status["state"] == "done"
        assert status["progress"] == {"stream": {"done": 4, "total": 4}}
        snapshots = [e for e in events if not e.get("final")]
        assert [s["done"] for s in snapshots] == [1, 2, 3, 4]
        direct = run_rolling(iter(series), STREAM_CFG)
        assert len(out.windows) == len(direct.windows)
        for sw, dw in zip(out.windows, direct.windows):
            assert np.array_equal(sw.outputs.supports, dw.outputs.supports)
            assert np.array_equal(sw.outputs.coef, dw.outputs.coef)

    def test_verify_marks_every_window_plan(self, series, monkeypatch):
        """``Scheduler(verify=True)`` marks the executor instead of
        wrapping it; ``run_plan`` then verifies each per-window plan —
        one ``assert_valid_plan`` call per fitted window, none without
        the mark."""
        from repro.analysis import planver
        from repro.engine import VarPlan

        verified = []
        real = planver.assert_valid_plan

        def counting(plan):
            verified.append(plan)
            real(plan)

        monkeypatch.setattr(planver, "assert_valid_plan", counting)
        with Service(workers=1) as svc:
            svc.results(svc.submit(_spec(series)), timeout=120.0)
        assert verified == []
        with Service(workers=1, verify=True) as svc:
            out = svc.results(svc.submit(_spec(series)), timeout=120.0)
        assert len(out.windows) == 4
        assert len(verified) == 4
        assert all(isinstance(plan, VarPlan) for plan in verified)
        assert len({id(plan) for plan in verified}) == 4

    def test_stream_jobs_never_batch(self, series):
        with Service(workers=1, batching=True, max_batch=4) as svc:
            client = ServiceClient(svc)
            ids = [
                client.submit("stream", {"series": series}, config=STREAM_CFG)
                for _ in range(2)
            ]
            for job_id in ids:
                client.results(job_id, timeout=120.0)
                assert svc.status(job_id)["state"] == "done"
            sizes = [svc._jobs[j].batch_size for j in ids]
        assert sizes == [1, 1]

    def test_final_result_persisted_to_store(self, series, tmp_path):
        with Service(workers=1, store_root=tmp_path / "store") as svc:
            job_id = svc.submit(_spec(series, idempotency_key="s1"))
            out = svc.results(job_id, timeout=120.0)
            record = svc.store.get(f"{svc._jobs[job_id].store_key}/result")
        assert record is not None
        assert np.array_equal(record["coef"], out.coef)
        assert "extra_stream_stability" in record

    def test_idempotent_resubmit_returns_same_job(self, series):
        with Service(workers=1) as svc:
            first = svc.submit(_spec(series, idempotency_key="dup"))
            svc.results(first, timeout=120.0)
            second = svc.submit(_spec(series, idempotency_key="dup"))
        assert second == first


class _GatedExecutor:
    """Serial backend whose first run_stage call waits for a release."""

    name = "gated"

    def __init__(self, started: threading.Event, release: threading.Event):
        self.inner = SerialExecutor()
        self.started = started
        self.release = release
        self.calls = 0

    def run_stage(self, plan, stage, chains, hooks):
        self.calls += 1
        if self.calls == 1:
            self.started.set()
            assert self.release.wait(30.0)
        return self.inner.run_stage(plan, stage, chains, hooks)


class TestCancellation:
    def test_cancel_lands_at_window_boundary(self, series):
        started, release = threading.Event(), threading.Event()
        gated = _GatedExecutor(started, release)
        with Service(workers=1, executor_factory=lambda name: gated) as svc:
            job_id = svc.submit(_spec(series))
            assert started.wait(30.0)  # window 0 is mid-fit
            assert svc.cancel(job_id) is True
            release.set()
            with pytest.raises(JobCancelled):
                svc.results(job_id, timeout=120.0)
            status = svc.status(job_id)
        assert status["state"] == CANCELLED
        # The in-flight window completed (atomic unit), later ones never ran.
        assert status["progress"]["stream"]["done"] == 1

    def test_cancel_while_queued_never_runs(self, series):
        started, release = threading.Event(), threading.Event()
        gated = _GatedExecutor(started, release)
        with Service(workers=1, executor_factory=lambda name: gated) as svc:
            blocker = svc.submit(_spec(series))
            assert started.wait(30.0)
            queued = svc.submit(_spec(series, tenant="other"))
            assert svc.cancel(queued) is True
            release.set()
            svc.results(blocker, timeout=120.0)
            assert svc.status(queued)["state"] == CANCELLED
            assert svc.status(queued)["progress"]["stream"]["done"] == 0


class TestWire:
    def test_socket_submit_with_nested_config(self, series):
        from repro.service.server import (
            ServiceServer,
            SocketServiceClient,
            config_from_wire,
            config_to_wire,
        )

        round_tripped = config_from_wire("stream", config_to_wire(STREAM_CFG))
        assert round_tripped == STREAM_CFG

        with Service(workers=1) as svc, ServiceServer(svc) as server:
            client = SocketServiceClient(*server.address)
            job_id = client.submit(
                "stream", {"series": series}, config=STREAM_CFG
            )
            arrays = client.results(job_id, timeout=120.0)
        direct = run_rolling(iter(series), STREAM_CFG)
        assert np.array_equal(arrays["coef"], direct.coef)
        assert np.array_equal(
            arrays["extra_stream_t_end"],
            np.array([w.t_end for w in direct.windows]),
        )

    def test_wire_rejects_bad_stream_config(self):
        from repro.service.server import config_from_wire

        with pytest.raises(AdmissionError, match="invalid stream config"):
            config_from_wire("stream", {"no_such_field": 1})
