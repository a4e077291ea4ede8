"""Engine hook that times every (stage, bootstrap, λ) subproblem.

One :class:`TelemetryHook` attached to
:func:`repro.engine.run_plan` turns a real execution on any
backend into the same four-category runtime attribution the simulator
produces on virtual clocks:

* every ``on_subproblem_done`` closes a wall-clock span for that task
  — tagged with its stage, bootstrap, λ index, checkpoint key, and
  whether it was *solved* or *recovered* through the resilience lookup
  path (the engine fires ``on_subproblem_done`` for recovered tasks
  too, with ``recovered=True``);
* ``on_stage_end`` aggregates a per-stage summary (solved / recovered
  counts, seconds, backend) before the stage's reduction runs;
* ``on_run_start`` installs the hook's :class:`Recorder` as the
  context-var current recorder, so the solver and I/O one-liners in
  :mod:`repro.linalg`, :mod:`repro.pfs` and :mod:`repro.distribution`
  feed the same recorder without any plumbing;
* ``on_run_end`` (fired for failed runs too) restores the previous
  recorder and, when an export directory is configured, writes the
  JSONL run manifest and Chrome trace via
  :mod:`repro.telemetry.export`.

Timing model
------------
Per-task spans are measured *at the hook layer* as the interval
between consecutive engine events on the dispatching thread.  On the
serial backend and on a distributed-driver rank this is the true solve
time (lookup + solve happen inline between events).  On the
multiprocess and simmpi backends, hook events replay in the
parent after the stage's workers finish, so per-task spans reflect
replay order while the *stage* span (and therefore the breakdown) is
accurate wall clock.  The first span of a stage also absorbs the
previous stage's reduction; ``repro trace summary`` reports stage
totals, where none of this matters.

Category attribution follows the paper's four bars: subproblem time
is COMPUTATION, minus whatever the instrumented layers attributed to
COMMUNICATION / DISTRIBUTION / DATA_IO inside the run (one-sided
shuffles, hyperslab reads, checkpoint flushes), so the categories sum
to the measured total without double counting.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.engine.hooks import EngineHook
from repro.telemetry.recorder import (
    CATEGORIES,
    COMPUTATION,
    DISTRIBUTION,
    Recorder,
    _current,
)

if TYPE_CHECKING:
    from contextvars import Token

    from repro.perf.report import BreakdownRow
    from repro.telemetry.recorder import Span

__all__ = ["TelemetryHook", "StageStats"]


class StageStats:
    """Mutable per-stage aggregate (one per plan stage)."""

    __slots__ = ("stage", "solved", "recovered", "seconds")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.solved = 0
        self.recovered = 0
        self.seconds = 0.0

    @property
    def subproblems(self) -> int:
        return self.solved + self.recovered

    def as_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "subproblems": self.subproblems,
            "solved": self.solved,
            "recovered": self.recovered,
            "seconds": self.seconds,
        }


class TelemetryHook(EngineHook):
    """Observability for one engine run (see module docstring).

    Parameters
    ----------
    recorder:
        Shared :class:`Recorder`; a fresh one is created by default.
    export_dir:
        When set, ``on_run_end`` writes ``manifest-<kind>.jsonl`` and
        ``trace-<kind>.json`` into this directory (created if
        missing).
    tid:
        Thread/rank id stamped on exported trace events — the
        distributed drivers pass their world rank here.
    label:
        Optional run label carried into the manifest header.
    """

    def __init__(
        self,
        recorder: Recorder | None = None,
        *,
        export_dir: str | os.PathLike[str] | None = None,
        tid: int = 0,
        label: str | None = None,
    ) -> None:
        self.recorder = recorder if recorder is not None else Recorder()
        self.export_dir = export_dir
        self.tid = int(tid)
        self.label = label
        self.backend: str | None = None
        self.plan_kind: str | None = None
        self.plan_meta: dict[str, Any] = {}
        self.plan_counts: dict[str, Any] = {}
        self.stages: dict[str, StageStats] = {}
        self.exported: list[str] = []
        self._token: Token[Recorder | None] | None = None
        self._run_start: float | None = None
        self._stage_start: float | None = None
        self._last_event: float | None = None

    # ------------------------------------------------- hook protocol
    def on_run_start(self, plan: Any, executor: Any) -> None:
        self.backend = getattr(executor, "name", type(executor).__name__)
        self.plan_kind = getattr(plan, "kind", "uoi")
        try:
            self.plan_meta = plan.meta()
        except NotImplementedError:
            self.plan_meta = {}
        desc = plan.describe()
        self.plan_counts = {
            stage: dict(info) for stage, info in desc["stages"].items()
        }
        now = self.recorder.now()
        self._run_start = now
        self._stage_start = now
        self._last_event = now
        # Install for the run so solver/IO one-liners hit this recorder
        # without plumbing.  Restored in on_run_end, which run_plan
        # fires even when a stage raises (same thread — the engine
        # dispatches all hook events from the driving thread).
        self._token = _current.set(self.recorder)

    def on_subproblem_done(
        self, task: Any, payload: Any, *, recovered: bool
    ) -> None:
        now = self.recorder.now()
        start = self._last_event if self._last_event is not None else now
        stats = self.stages.get(task.stage)
        if stats is None:
            stats = self.stages[task.stage] = StageStats(task.stage)
        if recovered:
            stats.recovered += 1
        else:
            stats.solved += 1
        stats.seconds += now - start
        self.recorder.add_span(
            f"subproblem:{task.key}",
            COMPUTATION,
            start,
            now,
            type="subproblem",
            stage=task.stage,
            bootstrap=task.bootstrap,
            lam_index=task.lam_index,
            key=task.key,
            recovered=bool(recovered),
            backend=self.backend,
        )
        self._last_event = now

    def on_stage_end(self, stage: str, plan: Any) -> None:
        now = self.recorder.now()
        start = self._stage_start if self._stage_start is not None else now
        stats = self.stages.get(stage)
        if stats is None:
            stats = self.stages[stage] = StageStats(stage)
        self.recorder.add_span(
            f"stage:{stage}",
            COMPUTATION,
            start,
            now,
            type="stage",
            stage=stage,
            solved=stats.solved,
            recovered=stats.recovered,
            backend=self.backend,
        )
        self._stage_start = now
        self._last_event = now

    def on_run_end(self, plan: Any) -> None:
        now = self.recorder.now()
        start = self._run_start if self._run_start is not None else now
        self.recorder.add_span(
            f"run:{self.plan_kind}",
            COMPUTATION,
            start,
            now,
            type="run",
            backend=self.backend,
        )
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if self.export_dir is not None:
            from repro.telemetry.export import export_run

            self.exported = export_run(self, self.export_dir)

    # ------------------------------------------------------- queries
    def subproblem_spans(self) -> list[Span]:
        """The per-task spans, in dispatch order."""
        return self.recorder.spans_named("subproblem:")

    def total_seconds(self) -> float:
        """Wall-clock of the whole run (run span; 0 before on_run_end)."""
        runs = self.recorder.spans_named("run:")
        return runs[-1].duration if runs else 0.0

    def breakdown(self) -> dict[str, float]:
        """Four-category seconds in :data:`CATEGORIES` order.

        COMMUNICATION / DISTRIBUTION / DATA_IO come from the
        instrumented layers' spans; COMPUTATION is the per-task span
        total minus those (floored at zero), so nested instrumentation
        is not double counted and the categories sum to measured task
        time.
        """
        cats = self.recorder.category_seconds()
        # Worker-lease spans (streaming backends' fleet accounting,
        # consumed by worker_utilization) *cover* the tasks they
        # schedule rather than nesting inside them — counting them
        # here would swallow the whole computation bucket.
        lease = sum(s.duration for s in self.recorder.spans_named("lease:"))
        cats[DISTRIBUTION] = max(0.0, cats[DISTRIBUTION] - lease)
        task_total = sum(s.seconds for s in self.stages.values())
        other = sum(cats[c] for c in CATEGORIES if c != COMPUTATION)
        out = {c: cats[c] for c in CATEGORIES}
        out[COMPUTATION] = max(0.0, task_total - other)
        return out

    def to_breakdown_row(self, label: str | None = None) -> BreakdownRow:
        """This run as a :class:`repro.perf.report.BreakdownRow`."""
        from repro.perf.report import BreakdownRow

        return BreakdownRow(
            label=label or self.label or f"{self.plan_kind}/{self.backend}",
            seconds=self.breakdown(),
            extra={"backend": str(self.backend)},
        )

    def summary(self) -> dict[str, Any]:
        """JSON-serializable run summary (manifest ``summary`` record)."""
        return {
            "kind": self.plan_kind,
            "backend": self.backend,
            "label": self.label,
            "planned": self.plan_counts,
            "stages": {s: st.as_dict() for s, st in self.stages.items()},
            "subproblems": sum(st.subproblems for st in self.stages.values()),
            "recovered": sum(st.recovered for st in self.stages.values()),
            "solved": sum(st.solved for st in self.stages.values()),
            "total_seconds": self.total_seconds(),
            "breakdown": self.breakdown(),
            "counters": self.recorder.counter_values(),
            "gauges": self.recorder.gauge_values(),
        }
