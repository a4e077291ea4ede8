"""The service front end: admission, registry, and the client API.

:class:`Service` owns the scheduler, the job registry, the
idempotency table and (optionally) the replicated results store and a
telemetry recorder.  Its public surface is exactly what the wire
protocol mirrors — ``submit`` / ``status`` / ``results`` / ``cancel``
/ ``stream_progress`` — so the in-process :class:`ServiceClient` and
the socket client in :mod:`repro.service.server` are interchangeable.

Admission is strict: ``submit`` validates the spec, builds the same
engine plan a direct ``UoILasso.fit`` / ``UoIVar.fit`` would run, and
rejects the job with :class:`AdmissionError` (carrying the PLAN4xx
findings) unless :func:`repro.analysis.planver.verify_plan` comes
back clean.  A spec with an ``idempotency_key`` already seen for that
tenant is not re-admitted — the original job id is returned.
"""

from __future__ import annotations

from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from repro.analysis.dynamic import instrumented_lock
from repro.analysis.planver import verify_plan
from repro.service.jobs import (
    CANCELLED,
    FAILED,
    TERMINAL_STATES,
    AdmissionError,
    Job,
    JobCancelled,
    JobSpec,
    UnknownJobError,
)
from repro.service.scheduler import Scheduler
from repro.service.store import ReplicatedResultsStore
from repro.telemetry.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Coordinator

__all__ = ["Service", "ServiceClient"]


class Service:
    """Multi-tenant UoI fitting service (in-process core).

    Parameters
    ----------
    workers / batching / max_batch / verify / executor_factory:
        Forwarded to :class:`~repro.service.scheduler.Scheduler`.
        Jobs submitted with ``backend="elastic"`` (or
        ``"processpool-elastic"``) run on the process-wide shared
        out-of-process worker fleet unless ``executor_factory``
        overrides the mapping.
    store_root:
        Directory for a :class:`ReplicatedResultsStore`; ``None``
        disables durability (an explicit ``store`` instance wins).
    recorder:
        Telemetry recorder; ``None`` creates a private one so
        :meth:`export_manifest` always has data.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        batching: bool = True,
        max_batch: int = 4,
        store_root: str | None = None,
        store: ReplicatedResultsStore | None = None,
        recorder: Recorder | None = None,
        verify: bool = False,
        executor_factory: Callable[[str], "Coordinator"] | None = None,
    ) -> None:
        if store is None and store_root is not None:
            store = ReplicatedResultsStore(store_root)
        self.store = store
        self.recorder = recorder if recorder is not None else Recorder()
        self.scheduler = Scheduler(
            workers=workers,
            batching=batching,
            max_batch=max_batch,
            store=store,
            recorder=self.recorder,
            verify=verify,
            executor_factory=executor_factory,
        )
        self._lock = instrumented_lock("service.service.lock")
        self._jobs: dict[str, Job] = {}
        self._by_idempotency: dict[tuple[str, str], str] = {}
        self._seq = 0
        self._closed = False

    # ----------------------------------------------------------- helpers
    def _job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    # --------------------------------------------------------------- API
    def submit(self, spec: JobSpec) -> str:
        """Admit a job; returns its id.

        Duplicate-suppressed: a spec whose ``(tenant,
        idempotency_key)`` was already submitted returns the original
        job id without enqueueing anything.  Raises
        :class:`AdmissionError` if the spec is invalid or its plan
        fails PLAN4xx verification.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        dedup = (
            (spec.tenant, spec.idempotency_key)
            if spec.idempotency_key is not None
            else None
        )
        if dedup is not None:
            with self._lock:
                existing = self._by_idempotency.get(dedup)
            if existing is not None:
                return existing
        plan = spec.build_plan()
        # Stream jobs admit a schedule stub, not an engine plan — their
        # real per-window VarPlans are built (and, under verify=True,
        # PLAN4xx-verified) as the rolling run executes.
        if spec.kind != "stream":
            findings = verify_plan(plan)
            if findings:
                raise AdmissionError(
                    f"plan failed verification with {len(findings)} finding(s)",
                    findings,
                )
        with self._lock:
            if dedup is not None:
                # second check under the lock: two racing duplicate
                # submits must still agree on one job id.
                existing = self._by_idempotency.get(dedup)
                if existing is not None:
                    return existing
            self._seq += 1
            job = Job(id=f"j{self._seq}", spec=spec, plan=plan, seq=self._seq)
            self._jobs[job.id] = job
            if dedup is not None:
                self._by_idempotency[dedup] = job.id
        self.scheduler.submit(job)
        return job.id

    def status(self, job_id: str) -> dict:
        """JSON-serializable lifecycle/progress snapshot."""
        return self._job(job_id).status()

    def jobs(self) -> list[dict]:
        """Status of every registered job, in submit order."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        return [job.status() for job in jobs]

    def results(self, job_id: str, timeout: float | None = None) -> Any:
        """Block until terminal; return the job's ``PlanOutputs``.

        Raises :class:`TimeoutError` if the deadline passes,
        :class:`JobCancelled` for a cancelled job, and
        :class:`RuntimeError` (with the recorded error string) for a
        failed one.
        """
        job = self._job(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} not finished within {timeout}s")
        if job.state == CANCELLED:
            raise JobCancelled(job_id)
        if job.state == FAILED:
            raise RuntimeError(f"job {job_id} failed: {job.error}")
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel: immediate while queued, cooperative while running."""
        return self.scheduler.cancel(self._job(job_id))

    def stream_progress(
        self, job_id: str, *, poll: float = 0.5
    ) -> Iterator[dict]:
        """Yield progress snapshots as they land, then a final
        ``{"final": True, "state": ...}`` event once terminal."""
        job = self._job(job_id)
        sent = 0
        while True:
            with job.cond:
                while sent >= len(job.snapshots) and (
                    job.state not in TERMINAL_STATES
                ):
                    job.cond.wait(poll)
                pending = job.snapshots[sent:]
                state = job.state
                error = job.error
            for snapshot in pending:
                yield snapshot
            sent += len(pending)
            if state in TERMINAL_STATES:
                yield {
                    "job": job.id,
                    "final": True,
                    "state": state,
                    "error": error,
                }
                return

    # --------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Stop the workers; queued jobs are cancelled, waiters wake."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.shutdown(cancel_pending=True)

    def __enter__(self) -> "Service":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.shutdown()

    # --------------------------------------------------------- telemetry
    def export_manifest(self, path: str) -> str:
        """Write the service run's telemetry manifest (JSONL, same
        schema :func:`repro.telemetry.export.read_manifest` parses)."""
        from repro.telemetry.export import write_manifest

        recorder = self.recorder
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        states: dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1

        class _ManifestShim:
            plan_kind = "service"
            backend = "mixed"
            label = "service"
            tid = 0
            plan_meta: dict = {}
            plan_counts = {"jobs": len(jobs)}

            def __init__(self) -> None:
                self.recorder = recorder

            def summary(self) -> dict:
                return {
                    "kind": "service",
                    "jobs": len(jobs),
                    "states": states,
                    "counters": recorder.counter_values(),
                }

        return write_manifest(_ManifestShim(), path)


class ServiceClient:
    """In-process client: the same verbs the socket client speaks.

    Exists so tests, benchmarks and the demo driver can target one
    client API and swap the transport (in-process vs line-JSON socket)
    without touching call sites.
    """

    def __init__(self, service: Service) -> None:
        self._service = service

    def submit(
        self,
        kind: str,
        data: Mapping[str, np.ndarray],
        *,
        config: Any = None,
        backend: str = "serial",
        tenant: str = "default",
        idempotency_key: str | None = None,
        label: str | None = None,
    ) -> str:
        spec = JobSpec(
            kind=kind,
            data=dict(data),
            config=config,
            backend=backend,
            tenant=tenant,
            idempotency_key=idempotency_key,
            label=label,
        )
        return self._service.submit(spec)

    def status(self, job_id: str) -> dict:
        return self._service.status(job_id)

    def results(self, job_id: str, timeout: float | None = None) -> Any:
        return self._service.results(job_id, timeout)

    def cancel(self, job_id: str) -> bool:
        return self._service.cancel(job_id)

    def stream_progress(self, job_id: str, **kwargs: Any) -> Iterator[dict]:
        return self._service.stream_progress(job_id, **kwargs)
