"""Multi-tenant job scheduler over the execution engine.

The :class:`Scheduler` multiplexes admitted jobs over a bounded pool
of worker threads:

* **Fair-share ordering** — when a worker frees up, the next lead job
  comes from the tenant with the fewest jobs started so far (ties
  broken by submit order), so one chatty tenant cannot starve the
  rest of the queue.
* **Cross-job batching** — compatible queued jobs (same estimator
  family, backend and data shapes; see
  :meth:`~repro.service.jobs.JobSpec.compat_key`) ride the lead job's
  engine run as one :class:`~repro.service.batch.BatchPlan`, and the
  per-subproblem results are attributed back to their owners by key
  prefix.  Batched results are bitwise identical to solo runs; only
  the orchestration overhead is shared.
* **Progress + durability** — one :class:`JobBatchHook` per run feeds
  each owner job's progress snapshots, raises cooperative
  cancellation for solo runs, and (when a
  :class:`~repro.service.store.ReplicatedResultsStore` is attached)
  persists every solved ``(job, subproblem)`` payload and serves
  recovered ones, so a restarted service resumes a resubmitted job
  (same idempotency key) from the store instead of recomputing.

Telemetry: with a recorder attached, every job gets a queue-wait span
(``distribution``) and a run span (``computation``), plus
queue-depth / running-jobs gauges and lifecycle counters.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.dynamic import instrumented_condition
from repro.engine import EngineHook, named_executor, run_plan
from repro.engine.plan import Subproblem
from repro.service.batch import BatchPlan
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobCancelled,
    outputs_to_arrays,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Coordinator
    from repro.service.store import ReplicatedResultsStore
    from repro.telemetry.recorder import Recorder

__all__ = ["Scheduler", "JobBatchHook"]

#: Span/gauge categories (string values of repro.telemetry CATEGORIES).
_COMPUTATION = "computation"
_DISTRIBUTION = "distribution"


class JobBatchHook(EngineHook):
    """Engine hook demultiplexing one (possibly batched) run to its jobs.

    ``lookup`` serves recovered payloads from the results store under
    the owner's ``"<store key>|<subproblem key>"`` record, and — for
    solo runs — raises :class:`JobCancelled` at the next subproblem
    boundary once the owner's cancel flag is set (a batched run never
    aborts: siblings' work would be lost; the cancelled member's
    results are discarded at attribution instead).
    """

    def __init__(
        self,
        jobs: dict[str, Job],
        *,
        store: "ReplicatedResultsStore | None" = None,
        solo: bool = False,
    ) -> None:
        self.jobs = dict(jobs)
        self.store = store
        self.solo = solo

    def _owner(self, task: Subproblem) -> tuple[Job, str]:
        member_id, inner_key = BatchPlan.split_key(task.key)
        return self.jobs[member_id], inner_key

    def lookup(self, task: Subproblem) -> dict[str, np.ndarray] | None:
        job, inner_key = self._owner(task)
        if self.solo and job.cancel_event.is_set():
            raise JobCancelled(job.id)
        if self.store is None:
            return None
        return self.store.get(f"{job.store_key}|{inner_key}")

    def on_subproblem_done(
        self,
        task: Subproblem,
        payload: dict[str, np.ndarray],
        *,
        recovered: bool,
    ) -> None:
        job, inner_key = self._owner(task)
        if self.store is not None and not recovered:
            self.store.put(f"{job.store_key}|{inner_key}", payload)
        job.note_subproblem(task.stage, recovered=recovered)
        if self.solo and job.cancel_event.is_set():
            raise JobCancelled(job.id)


class Scheduler:
    """Bounded worker pool with fair-share ordering and batching.

    Parameters
    ----------
    workers:
        Worker-thread count (each runs one engine run at a time).
    batching:
        Allow compatible queued jobs to share the lead job's run.
    max_batch:
        Upper bound on jobs per shared run.
    store:
        Optional :class:`ReplicatedResultsStore`: per-subproblem
        payloads and final results are persisted (idempotent,
        replicated), and resubmitted jobs resume from it.
    recorder:
        Optional :class:`~repro.telemetry.recorder.Recorder` for
        per-job spans, queue gauges and lifecycle counters.
    verify:
        Mark every executor this scheduler runs on for pre-run plan
        verification (:func:`~repro.engine.run_plan` then verifies each
        batch plan and each per-window stream plan).  The mark stays on
        a shared elastic fleet; verification is read-only, so later
        runs on it only pay the check.
    executor_factory:
        Optional ``backend_name -> executor`` override.  The default is
        :func:`~repro.engine.named_executor`: a fresh in-process
        executor per run, except ``elastic`` (or its
        ``processpool-elastic`` alias), which is the process-wide
        shared worker fleet so jobs scale out to out-of-process
        workers without paying a fleet spawn per batch.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        batching: bool = True,
        max_batch: int = 4,
        store: "ReplicatedResultsStore | None" = None,
        recorder: "Recorder | None" = None,
        verify: bool = False,
        executor_factory: "Callable[[str], Coordinator] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.batching = batching
        self.max_batch = max_batch
        self.store = store
        self.recorder = recorder
        self.verify = verify
        self.executor_factory = executor_factory
        self._cv = instrumented_condition("service.scheduler.cv")
        self._queue: list[Job] = []
        self._started_per_tenant: dict[str, int] = {}
        self._running = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-w{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------- time
    def _now(self) -> float:
        if self.recorder is not None:
            return self.recorder.now()
        return time.monotonic()

    def _gauge(self, name: str, value: float) -> None:
        if self.recorder is not None:
            self.recorder.gauge(name, value)

    def _count(self, name: str, delta: float = 1.0) -> None:
        if self.recorder is not None:
            self.recorder.count(name, delta)

    # ---------------------------------------------------------- ingress
    def submit(self, job: Job) -> None:
        """Enqueue an admitted job (called by the service front end)."""
        with self._cv:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            job.enqueued_at = self._now()
            self._queue.append(job)
            self._gauge("service.queue_depth", len(self._queue))
            self._count("service.jobs_submitted")
            self._cv.notify()

    def cancel(self, job: Job) -> bool:
        """Cancel a job: immediate while queued, cooperative while
        running (solo runs abort at the next subproblem; batched
        members finish but their results are discarded).  Returns
        False once the job is already terminal."""
        with self._cv:
            if job.state == QUEUED:
                try:
                    self._queue.remove(job)
                except ValueError:  # pragma: no cover - shutdown race
                    pass
                else:
                    self._gauge("service.queue_depth", len(self._queue))
                    self._finish(job, CANCELLED)
                    return True
        # Not claimable from the queue: running, terminal, or mid-
        # transition.  _finish() runs outside _cv, so re-check the
        # state under the job's own condition (which _finish holds) —
        # otherwise a job observed RUNNING here could already be
        # terminal by the time the cancel flag lands, breaking the
        # returns-False-once-terminal contract.
        with job.cond:
            if job.state in TERMINAL_STATES:
                return False
            job.cancel_event.set()
            return True

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    def shutdown(self, *, cancel_pending: bool = True) -> None:
        """Stop the workers; optionally cancel still-queued jobs so
        their waiters unblock.  Running jobs finish their current run."""
        with self._cv:
            self._shutdown = True
            pending = list(self._queue) if cancel_pending else []
            if cancel_pending:
                self._queue.clear()
                self._gauge("service.queue_depth", 0)
            self._cv.notify_all()
        for job in pending:
            self._finish(job, CANCELLED)
        for t in self._threads:
            t.join()

    # -------------------------------------------------------- scheduling
    def _claim_batch(self) -> list[Job]:
        """Pick the next lead job (fair share) plus compatible riders.

        Caller holds ``_cv``.  Fair share: the tenant with the fewest
        started jobs goes first, ties broken by submit order; riders
        are taken in queue order regardless of tenant (they cost the
        lead nothing — the run is shared).
        """
        lead = min(
            self._queue,
            key=lambda job: (
                self._started_per_tenant.get(job.spec.tenant, 0),
                job.seq,
            ),
        )
        batch = [lead]
        # Stream jobs always run solo: their run is a whole rolling
        # re-fit loop, not one engine plan a rider could share.
        if (
            self.batching
            and self.max_batch > 1
            and lead.spec.kind != "stream"
        ):
            compat = lead.spec.compat_key()
            for job in self._queue:
                if len(batch) >= self.max_batch:
                    break
                if job is lead:
                    continue
                if job.spec.compat_key() == compat:
                    batch.append(job)
        now = self._now()
        for job in batch:
            self._queue.remove(job)
            self._started_per_tenant[job.spec.tenant] = (
                self._started_per_tenant.get(job.spec.tenant, 0) + 1
            )
            with job.cond:
                job.state = RUNNING
                job.started_at = now
                job.batch_size = len(batch)
        self._running += len(batch)
        self._gauge("service.queue_depth", len(self._queue))
        self._gauge("service.running_jobs", self._running)
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._shutdown:
                    self._cv.wait()
                if not self._queue and self._shutdown:
                    return
                batch = self._claim_batch()
            try:
                self._run_batch(batch)
            finally:
                with self._cv:
                    self._running -= len(batch)
                    self._gauge("service.running_jobs", self._running)

    # --------------------------------------------------------- execution
    def _make_executor(self, backend: str) -> "Coordinator":
        """Executor for one batch run (see ``executor_factory``).

        The elastic backend shares one process-wide worker fleet
        across all jobs and worker threads: runs serialize on the
        fleet's lock, but workers joining or leaving mid-job scale
        every queued tenant up or down at once.
        """
        executor = (self.executor_factory or named_executor)(backend)
        if self.verify:
            executor.verify = True
        return executor

    def _run_batch(self, batch: list[Job]) -> None:
        if batch[0].spec.kind == "stream":
            self._run_stream_job(batch[0])
            return
        solo = len(batch) == 1
        plan = BatchPlan([(job.id, job.plan) for job in batch])
        hook = JobBatchHook(
            {job.id: job for job in batch}, store=self.store, solo=solo
        )
        backend = batch[0].spec.backend
        self._count("service.batches")
        if not solo:
            self._count("service.batched_jobs", len(batch))
        try:
            executor = self._make_executor(backend)
            outputs = run_plan(plan, executor, [hook])
        except JobCancelled:
            self._finish(batch[0], CANCELLED)
            return
        except BaseException as exc:  # noqa: B036 - worker must survive
            error = self._format_error(exc)
            for job in batch:
                if job.cancel_event.is_set():
                    self._finish(job, CANCELLED)
                else:
                    self._finish(job, FAILED, error=error)
            return
        # Attribution must never escape the worker loop: an exception
        # here (missing output key, store I/O failure) would otherwise
        # kill the worker thread and strand the batch's remaining jobs
        # in RUNNING forever.  Each job fails individually instead.
        for job in batch:
            if job.cancel_event.is_set():
                self._finish(job, CANCELLED)
                continue
            try:
                result = outputs[job.id]
                if self.store is not None:
                    self.store.put(
                        f"{job.store_key}/result", outputs_to_arrays(result)
                    )
            except BaseException as exc:  # noqa: B036 - worker must survive
                self._finish(job, FAILED, error=self._format_error(exc))
                continue
            self._finish(job, DONE, result=result)

    def _run_stream_job(self, job: Job) -> None:
        """Drive one streaming job's rolling re-fit loop.

        The series is replayed tick-by-tick through
        :func:`repro.stream.refit.run_rolling`; each fitted window is
        one progress subproblem, and cooperative cancellation is
        checked at every window boundary (mid-window work completes —
        a window is the streaming unit of atomicity, like a
        subproblem is the batch one).  Under ``verify``, the marked
        executor makes ``run_plan`` run PLAN4xx verification on every
        per-window (warm-started) plan before its first stage.
        """
        from repro.stream.refit import StreamConfig, run_rolling

        spec = job.spec
        config = spec.config if spec.config is not None else StreamConfig()
        series = np.asarray(spec.data["series"], dtype=float)
        self._count("service.stream_jobs")

        def on_window(fit: object) -> None:
            job.note_subproblem("stream", recovered=False)
            self._count("service.stream_windows")
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)

        try:
            executor = self._make_executor(spec.backend)
            outputs = run_rolling(
                iter(series),
                config,
                p=series.shape[1],
                executor=executor,
                on_window=on_window,
            )
        except JobCancelled:
            self._finish(job, CANCELLED)
            return
        except BaseException as exc:  # noqa: B036 - worker must survive
            if job.cancel_event.is_set():
                self._finish(job, CANCELLED)
            else:
                self._finish(job, FAILED, error=self._format_error(exc))
            return
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED)
            return
        try:
            if self.store is not None:
                self.store.put(
                    f"{job.store_key}/result", outputs_to_arrays(outputs)
                )
        except BaseException as exc:  # noqa: B036 - worker must survive
            self._finish(job, FAILED, error=self._format_error(exc))
            return
        self._finish(job, DONE, result=outputs)

    @staticmethod
    def _format_error(exc: BaseException) -> str:
        notes = "; ".join(getattr(exc, "__notes__", ()))
        error = f"{type(exc).__name__}: {exc}"
        if notes:
            error += f" [{notes}]"
        return error

    def _finish(
        self,
        job: Job,
        state: str,
        *,
        result: object = None,
        error: str | None = None,
    ) -> None:
        now = self._now()
        job.finished_at = now
        job.finish(state, result=result, error=error)
        self._count(f"service.jobs_{state}")
        if self.recorder is not None:
            enq = job.enqueued_at if job.enqueued_at is not None else now
            start = job.started_at if job.started_at is not None else now
            self.recorder.add_span(
                f"job:{job.id}:queued",
                _DISTRIBUTION,
                enq,
                start,
                type="job_queued",
                job=job.id,
                tenant=job.spec.tenant,
                kind=job.spec.kind,
            )
            self.recorder.add_span(
                f"job:{job.id}:run",
                _COMPUTATION,
                start,
                now,
                type="job_run",
                job=job.id,
                tenant=job.spec.tenant,
                kind=job.spec.kind,
                backend=job.spec.backend,
                state=state,
                batch_size=job.batch_size,
            )
