"""Checkpoint/restart recovery driver for simulated SPMD jobs.

:func:`run_with_recovery` is the resilience loop the paper-scale runs
would use on a real machine: launch the job, and when a rank dies to
an injected fault (:class:`~repro.simmpi.executor.SpmdResult` comes
back with ``failed_ranks``), relaunch the *same* program against the
same :class:`~repro.resilience.checkpoint.CheckpointStore`.  Because
every UoI driver replays its bootstrap indices from the shared
``random_state`` and skips checkpointed subproblems, the restarted
attempt fast-forwards through recovered work and produces bitwise the
same answer an uninterrupted run would have.

Fault plans are one-shot (a fired crash stays fired on the shared
:class:`~repro.resilience.faults.FaultPlan`), so passing the plan that
just killed the job into the restart is safe — and is exactly how the
golden determinism tests exercise the whole loop.

:class:`RecoveryOutcome` aggregates the story across attempts —
virtual time lost to dead attempts, subproblems recovered from
checkpoint versus recomputed — and renders the ``repro faults``
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.resilience.checkpoint import CheckpointPlan, CheckpointStore
from repro.resilience.faults import FaultPlan
from repro.simmpi.executor import SpmdResult, describe_failure, run_spmd
from repro.simmpi.machine import LAPTOP, MachineModel

__all__ = [
    "AttemptRecord",
    "RecoveryOutcome",
    "run_with_recovery",
    "store_progress",
]


@dataclass
class AttemptRecord:
    """One launch of the job: who died (if anyone) and at what cost."""

    attempt: int
    elapsed: float
    failed_ranks: dict[int, str]
    #: Records in the checkpoint store when the attempt ended (0 when
    #: the job runs without a checkpoint plan).
    checkpointed: int = 0

    @property
    def completed(self) -> bool:
        return not self.failed_ranks


@dataclass
class RecoveryOutcome:
    """What a :func:`run_with_recovery` loop did, across all attempts.

    Attributes
    ----------
    result:
        The :class:`~repro.simmpi.executor.SpmdResult` of the final,
        successful attempt.
    attempts:
        Per-attempt records, failures first, the clean run last.
    recovered_subproblems / completed_subproblems:
        Summed over ranks of the final attempt, when the rank function
        returns an object exposing these attributes (the distributed
        UoI results do); 0 otherwise.
    lost_time:
        Modeled seconds of the failed attempts (work the machine paid
        for and threw away, less whatever checkpoints preserved).
    """

    result: SpmdResult
    attempts: list[AttemptRecord] = field(default_factory=list)
    recovered_subproblems: int = 0
    completed_subproblems: int = 0

    @property
    def n_restarts(self) -> int:
        return len(self.attempts) - 1

    @property
    def lost_time(self) -> float:
        return sum(a.elapsed for a in self.attempts if not a.completed)

    @property
    def final_elapsed(self) -> float:
        return self.result.elapsed

    @property
    def recovery_fraction(self) -> float:
        """Share of the final attempt's subproblems served from checkpoint."""
        total = self.recovered_subproblems + self.completed_subproblems
        return self.recovered_subproblems / total if total else 0.0

    @property
    def checkpointed_before_restart(self) -> int:
        """Store records left behind by the last failed attempt.

        The denominator for "how much pre-crash work did the restart
        actually reuse"; 0 if no attempt failed.
        """
        for a in reversed(self.attempts):
            if not a.completed:
                return a.checkpointed
        return 0

    def render(self) -> str:
        lines = [
            "recovery report",
            "===============",
            f"attempts:             {len(self.attempts)}"
            f" ({self.n_restarts} restart(s))",
        ]
        for a in self.attempts:
            if a.completed:
                lines.append(
                    f"  attempt {a.attempt}: completed in {a.elapsed:.4g}s modeled"
                )
            else:
                deaths = "; ".join(
                    f"rank {r}: {reason}" for r, reason in sorted(a.failed_ranks.items())
                )
                lines.append(
                    f"  attempt {a.attempt}: FAILED at {a.elapsed:.4g}s modeled ({deaths})"
                )
        lines += [
            f"virtual time lost:    {self.lost_time:.4g}s",
            f"final attempt time:   {self.final_elapsed:.4g}s",
            f"subproblems recovered:{self.recovered_subproblems}"
            f" (computed this attempt: {self.completed_subproblems})",
            f"recovery fraction:    {self.recovery_fraction:.1%}",
        ]
        if self.checkpointed_before_restart:
            reused = (
                self.recovered_subproblems / self.checkpointed_before_restart
            )
            lines.append(
                f"pre-crash records:    {self.checkpointed_before_restart}"
                f" ({reused:.1%} reused on restart)"
            )
        return "\n".join(lines)


def _rank_attr(result: SpmdResult, attr: str) -> int:
    # The distributed results carry world-reduced counts, identical on
    # every rank — take one copy, not a sum over ranks.
    for v in result.values:
        got = getattr(v, attr, None)
        if got is not None:
            return int(got)
    return 0


def run_with_recovery(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel = LAPTOP,
    fault_plan: FaultPlan | None = None,
    max_restarts: int = 4,
    **kwargs: Any,
) -> RecoveryOutcome:
    """Run ``fn`` under ``run_spmd``, restarting after injected crashes.

    Each attempt calls ``run_spmd(nranks, fn, *args, **kwargs)``; an
    attempt whose :attr:`SpmdResult.failed_ranks` is non-empty is
    recorded and relaunched (fired faults stay fired, so the restart
    runs clean unless the plan holds more crashes).  ``fn`` is
    responsible for its own checkpointing — pass a ``checkpoint=``
    plan through ``kwargs`` to the UoI drivers to make restarts cheap.

    Raises
    ------
    RuntimeError
        If the job still has failed ranks after ``max_restarts``
        relaunches (e.g. an unbounded crash schedule).
    """
    plan = kwargs.get("checkpoint")
    store = plan.store if isinstance(plan, CheckpointPlan) else None
    attempts: list[AttemptRecord] = []
    for attempt in range(1, max_restarts + 2):
        result = run_spmd(
            nranks, fn, *args,
            machine=machine, fault_plan=fault_plan, **kwargs,
        )
        attempts.append(
            AttemptRecord(
                attempt=attempt,
                elapsed=result.elapsed,
                # describe_failure folds in the engine's exception notes
                # (backend, stage, subproblem keys), so the attempt
                # record says where in the plan each rank died.
                failed_ranks={
                    r: describe_failure(e)
                    for r, e in sorted(result.failed_ranks.items())
                },
                checkpointed=len(store) if store is not None else 0,
            )
        )
        if result.completed:
            return RecoveryOutcome(
                result=result,
                attempts=attempts,
                recovered_subproblems=_rank_attr(result, "recovered_subproblems"),
                completed_subproblems=_rank_attr(result, "completed_subproblems"),
            )
    raise RuntimeError(
        f"job still failing after {max_restarts} restart(s): "
        f"{attempts[-1].failed_ranks}"
    )


def store_progress(store: CheckpointStore) -> dict[str, int]:
    """Records per key prefix (``sel``, ``est``, ...), plus totals.

    The prefix is everything before the first ``/`` in each key, which
    is how the UoI drivers namespace their records.
    """
    out: dict[str, int] = {}
    for key in store.keys():
        prefix = key.split("/", 1)[0]
        out[prefix] = out.get(prefix, 0) + 1
    out["total"] = len(store)
    return out



