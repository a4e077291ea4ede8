"""Typed subproblem plans for the UoI execution engine.

The paper's two UoI algorithms share one Map-Solve-Reduce skeleton:
a *selection* stage (B1 bootstraps x q penalties, supports
intersected) followed by an *estimation* stage (B2 bootstraps x q
candidate supports, winners unioned).  A :class:`UoIPlan` captures one
concrete instance of that skeleton as data — an enumerable set of
:class:`Subproblem` tasks with their dependency structure — so any
backend (a :class:`~repro.engine.coordinator.Coordinator` over some
transport) can run it and any cross-cutting concern (checkpointing,
tracing, progress) can observe it through
:class:`~repro.engine.hooks.EngineHook` without the four drivers each
re-implementing the wiring.  :func:`run_plan` is the driver loop they
all share: stage → hooks' ``on_stage_end`` (checkpoint flush) → stage
reduction — and the one place a plan is verified before it runs.

Determinism contract
--------------------
A plan must be a *pure* description of the computation:

* every random draw is made in ``__init__`` (in the exact order the
  legacy serial drivers made them), never inside :meth:`UoIPlan.run_chain`;
* :meth:`UoIPlan.run_chain` is a pure function of the plan state, the
  task list, and any recovered payloads — no hidden mutable state —
  so executors may run chains in any order or in other processes;
* :meth:`UoIPlan.reduce` consumes the full result table in a fixed
  (bootstrap-major) order, so float summation order — and therefore
  the bits of the final coefficients — does not depend on the backend.

Together these guarantee the engine's headline invariant: the same
``random_state`` produces bitwise-identical coefficients on every
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.hooks import EngineHook, HookList

__all__ = [
    "SELECTION",
    "ESTIMATION",
    "Subproblem",
    "PlanOutputs",
    "UoIPlan",
    "annotate_failure",
    "run_plan",
]

#: Stage names, in execution order.
SELECTION = "selection"
ESTIMATION = "estimation"


@dataclass(frozen=True)
class Subproblem:
    """One typed (stage, bootstrap, λ) task of a UoI run.

    Attributes
    ----------
    stage:
        ``"selection"`` or ``"estimation"``.
    bootstrap:
        Bootstrap index ``k`` (selection: ``0..B1-1``; estimation:
        ``0..B2-1``).
    lam_index:
        Penalty index ``j`` for plans that split work per λ (the
        distributed drivers); ``None`` when a task covers the whole λ
        path (the serial per-bootstrap granularity).
    key:
        Stable checkpoint-record key.  These are exactly the legacy
        driver keys (``serial-sel/k0``, ``sel/k0/j3``, ...), so stores
        written before the engine refactor resume unchanged.
    chain:
        Index of the dependency chain this task belongs to (tasks in
        one chain share data and warm starts and must run in order).
    pos:
        Position of the task within its chain.
    """

    stage: str
    bootstrap: int
    lam_index: int | None
    key: str
    chain: int
    pos: int


@dataclass
class PlanOutputs:
    """What :meth:`UoIPlan.finalize` returns for the local plans.

    ``coef`` is the union-averaged coefficient vector (``(p,)`` for
    LASSO, the lifted ``vec B`` for VAR); the rest mirror the
    estimator attributes of the legacy drivers.
    """

    coef: np.ndarray
    supports: np.ndarray
    losses: np.ndarray
    winners: np.ndarray
    lambdas: np.ndarray
    extra: dict[str, Any] = field(default_factory=dict)


class UoIPlan:
    """Base class: a UoI run as enumerable, typed subproblems.

    Subclasses provide the five methods below.  ``stages`` lists the
    stage names in order; the engine runs each stage to completion
    (including its :meth:`reduce`) before starting the next, because
    estimation's tasks depend on selection's reduced support family.
    """

    #: Stage names in execution order.
    stages: tuple[str, ...] = (SELECTION, ESTIMATION)
    #: Short plan-kind tag (matches the checkpoint meta ``kind``).
    kind: str = "uoi"

    # -------------------------------------------------------------- API
    def meta(self) -> dict:
        """Run metadata pinned into a checkpoint store on resume."""
        raise NotImplementedError

    def chains(self, stage: str) -> list[list[Subproblem]]:
        """The stage's tasks, grouped into ordered dependency chains.

        Chains are independent of each other (an executor may run them
        concurrently); tasks inside one chain must run in list order on
        one worker (they share bootstrap data and λ-path warm starts).
        Enumerable without executing anything — this is what the CLI
        dry-run prints.
        """
        raise NotImplementedError

    def run_chain(
        self,
        stage: str,
        tasks: list[Subproblem],
        recovered: dict[str, dict[str, np.ndarray]],
        emit: Callable[[Subproblem, dict[str, np.ndarray]], None],
    ) -> None:
        """Solve one chain, calling ``emit(task, payload)`` per task.

        ``recovered`` maps task keys to checkpoint payloads the
        executor already restored; the plan must *not* re-emit those,
        but may consume them (e.g. as λ-path warm starts).  ``emit`` is
        called as each task completes, so per-subproblem checkpoint
        cadence is preserved.
        """
        raise NotImplementedError

    def reduce(self, stage: str, results: dict[str, dict[str, np.ndarray]]) -> None:
        """Stage-wide reduction over the emitted/recovered payloads.

        Runs once per stage after every chain finished (selection: the
        support intersection; estimation: winner search and union
        average).  Must consume ``results`` in a fixed order.
        """
        raise NotImplementedError

    def finalize(self) -> Any:
        """The run's result object, after all stages reduced."""
        raise NotImplementedError

    # -------------------------------------------------------- derived
    def describe(self) -> dict:
        """Subproblem counts per stage (for dry-runs and progress)."""
        stages = {}
        for stage in self.stages:
            chains = self.chains(stage)
            stages[stage] = {
                "chains": len(chains),
                "subproblems": sum(len(c) for c in chains),
            }
        return {
            "kind": self.kind,
            "stages": stages,
            "subproblems": sum(s["subproblems"] for s in stages.values()),
        }

    def estimate_flops(self) -> dict[str, float]:
        """Rough floating-point cost per stage (dry-run estimate).

        Plans that can do better override this; the base returns zeros
        so :meth:`describe`-style tooling never fails on a new plan.
        """
        return {stage: 0.0 for stage in self.stages}


# ---------------------------------------------------------------------------
# driver loop
# ---------------------------------------------------------------------------
def annotate_failure(
    exc: BaseException,
    backend: str,
    stage: str,
    tasks: Sequence[Subproblem] | None = None,
) -> BaseException:
    """Attach engine context to an exception (PEP 678 note).

    The note names the executing backend and the plan position —
    stage plus the subproblem keys of the failing chain — so aggregated
    reports (:class:`~repro.simmpi.executor.SpmdError`,
    ``failed_ranks``) identify exactly which subproblem died where.
    """
    where = f"engine backend={backend} stage={stage}"
    if tasks:
        keys = ", ".join(t.key for t in tasks)
        where += f" subproblems [{keys}]"
    try:
        exc.add_note(where)
    except Exception:  # pragma: no cover - non-standard exception types
        pass
    return exc


def run_plan(
    plan: UoIPlan,
    executor: Any,
    hooks: "Iterable[EngineHook] | HookList" = (),
    verify: bool | None = None,
) -> Any:
    """Run every stage of ``plan`` on ``executor``; returns ``finalize()``.

    ``executor`` is anything with a ``name`` and a
    ``run_stage(plan, stage, chains, hooks)`` returning the stage's
    ``{key: payload}`` table — in this package always a
    :class:`~repro.engine.coordinator.Coordinator`.  Per stage: execute
    all chains, fire ``on_stage_end`` (checkpoint hooks flush here,
    making solved state durable *before* the reduction's collectives —
    the ordering the legacy drivers pinned), then reduce.  Hooks get
    ``on_run_end`` whether the run finished or a stage raised, so what
    ``on_run_start`` installed (the telemetry recorder, the allocation
    observer) never outlives a failed run.

    ``verify`` opts into pre-run plan verification
    (:func:`repro.analysis.planver.verify_plan`): ``True``/``False``
    explicitly, or ``None`` (default) to follow the executor's
    ``verify`` mark (set by ``Scheduler(verify=True)``, or by
    ``executor.verify = True``).  Every entry point funnels through this
    loop, so this is the only place a plan is verified — each plan
    object once, per-window stream plans included.  Verification is
    read-only — verified runs are bitwise identical to unverified ones.
    """
    if verify is None:
        verify = getattr(executor, "verify", False)
    if verify:
        from repro.analysis.planver import assert_valid_plan

        assert_valid_plan(plan)
    hook_list = hooks if isinstance(hooks, HookList) else HookList(hooks)
    hook_list.on_run_start(plan, executor)
    try:
        for stage in plan.stages:
            chains = plan.chains(stage)
            results = executor.run_stage(plan, stage, chains, hook_list)
            hook_list.on_stage_end(stage, plan)
            try:
                plan.reduce(stage, results)
            except BaseException as exc:
                annotate_failure(exc, executor.name, f"{stage}/reduce")
                raise
    finally:
        hook_list.on_run_end(plan)
    return plan.finalize()
