"""Observer hooks for the UoI execution engine.

Cross-cutting concerns — checkpoint/restart, progress reporting,
tracing, fault accounting — attach to a run through one
:class:`EngineHook` interface instead of being wired into each of the
four drivers separately.  The engine guarantees the call order:

1. ``on_run_start(plan, executor)`` — once, before any stage.
2. Per task, exactly one of:
   * ``lookup(task)`` returned a payload → the task is *recovered*;
     ``on_subproblem_done(task, payload, recovered=True)`` fires
     without the task being solved;
   * the task was solved → ``on_subproblem_done(task, payload,
     recovered=False)`` fires as the task completes (per-subproblem
     cadence, not batched per stage).
3. ``on_stage_end(stage, plan)`` — after every task of the stage, and
   crucially *before* the stage's reduction: a checkpoint hook flushes
   here, so solved state is durable before the run re-enters the
   world collectives (the same ordering the legacy drivers used).
4. ``on_run_end(plan)`` — once, after the final stage reduced *or* as
   a failed run unwinds: whatever ``on_run_start`` installed (a
   context-var recorder, an allocation observer) is undone here.

``lookup`` is how resume works: the first hook returning a payload
wins, and the engine treats the task as already solved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.coordinator import Coordinator
    from repro.engine.plan import Subproblem, UoIPlan

__all__ = ["EngineHook", "HookList"]


class EngineHook:
    """Base hook: every callback is a no-op; override what you need."""

    def on_run_start(self, plan: "UoIPlan", executor: "Coordinator") -> None:
        """Called once before the first stage."""

    def lookup(self, task: "Subproblem") -> dict[str, np.ndarray] | None:
        """Recovered payload for ``task``, or ``None`` to solve it."""
        return None

    def on_subproblem_done(
        self,
        task: "Subproblem",
        payload: dict[str, np.ndarray],
        *,
        recovered: bool,
    ) -> None:
        """Called once per task, solved (``recovered=False``) or not."""

    def on_stage_end(self, stage: str, plan: "UoIPlan") -> None:
        """Called after a stage's last task, before its reduction."""

    def on_run_end(self, plan: "UoIPlan") -> None:
        """Called once as the run ends, finished or failed."""


class HookList(EngineHook):
    """Fan-out composite: dispatches each callback to every child.

    ``lookup`` returns the first child's non-``None`` payload (a
    recovered task is recovered once, whoever restored it).
    """

    def __init__(self, hooks: Iterable[EngineHook] = ()) -> None:
        self.hooks: list[EngineHook] = list(hooks)

    def on_run_start(self, plan: "UoIPlan", executor: "Coordinator") -> None:
        for h in self.hooks:
            h.on_run_start(plan, executor)

    def lookup(self, task: "Subproblem") -> dict[str, np.ndarray] | None:
        for h in self.hooks:
            payload = h.lookup(task)
            if payload is not None:
                return payload
        return None

    def on_subproblem_done(
        self,
        task: "Subproblem",
        payload: dict[str, np.ndarray],
        *,
        recovered: bool,
    ) -> None:
        for h in self.hooks:
            h.on_subproblem_done(task, payload, recovered=recovered)

    def on_stage_end(self, stage: str, plan: "UoIPlan") -> None:
        for h in self.hooks:
            h.on_stage_end(stage, plan)

    def on_run_end(self, plan: "UoIPlan") -> None:
        for h in self.hooks:
            h.on_run_end(plan)


