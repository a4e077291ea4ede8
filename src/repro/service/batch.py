"""Cross-job batching: many member plans composed into one engine run.

:class:`BatchPlan` is the scheduler's shared-run currency — a
:class:`~repro.engine.plan.UoIPlan` whose chains are the concatenation
of its members' chains, with every checkpoint key prefixed by the
owning member's id (``"<member>|<key>"``).  Because chains are never
merged *across* members, each member's ``run_chain`` and ``reduce``
see byte-for-byte the inputs a solo run would hand them: a batched
fit is bitwise identical to running each job alone, on any backend.
The batching win is purely orchestration — one executor invocation
(one process-pool spin-up per stage, one fully-packed chain list)
amortized over every member instead of paid per job.

The prefix also restores the engine's global invariants for the
composite: PLAN401 key uniqueness holds across members by
construction, and :meth:`BatchPlan.reduce` demultiplexes the stage's
result table back to each member in fixed member order, so float
summation order inside every member is untouched.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from repro.engine.plan import Subproblem, UoIPlan

__all__ = ["BatchPlan", "MEMBER_SEP"]

#: Separator between a member id and the member-local checkpoint key.
MEMBER_SEP = "|"


class BatchPlan(UoIPlan):
    """Composite plan attributing each (member, subproblem) to its owner.

    Parameters
    ----------
    members:
        ``(member_id, plan)`` pairs.  Ids must be unique, free of
        ``"|"``, and all plans must declare the same stage sequence
        (the scheduler only batches compatible jobs, which guarantees
        this).

    ``finalize`` returns ``{member_id: member.finalize()}``.

    The composite intentionally does *not* expose ``B1``/``B2``/``q``:
    its (bootstrap, λ) grid is the disjoint union of the members', so
    per-member coverage is what `verify_plan` proves (each member plan
    is verified at admission); the composite contributes key
    uniqueness and chain ordering.
    """

    kind = "service_batch"

    def __init__(self, members: list[tuple[str, UoIPlan]]) -> None:
        if not members:
            raise ValueError("BatchPlan needs at least one member")
        seen: set[str] = set()
        stages: tuple[str, ...] | None = None
        for member_id, plan in members:
            if MEMBER_SEP in member_id:
                raise ValueError(
                    f"member id {member_id!r} must not contain {MEMBER_SEP!r}"
                )
            if member_id in seen:
                raise ValueError(f"duplicate member id {member_id!r}")
            seen.add(member_id)
            if stages is None:
                stages = tuple(plan.stages)
            elif tuple(plan.stages) != stages:
                raise ValueError(
                    f"member {member_id!r} stages {plan.stages!r} differ "
                    f"from the batch's {stages!r}: jobs are not compatible"
                )
        self.members = list(members)
        self.stages = stages if stages is not None else ()
        self._by_id = dict(members)

    # -------------------------------------------------------------- API
    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "members": {mid: plan.meta() for mid, plan in self.members},
        }

    @staticmethod
    def split_key(key: str) -> tuple[str, str]:
        """``"<member>|<inner key>"`` -> ``(member, inner key)``."""
        member_id, sep, inner = key.partition(MEMBER_SEP)
        if not sep:
            raise ValueError(f"key {key!r} carries no member prefix")
        return member_id, inner

    def chains(self, stage: str) -> list[list[Subproblem]]:
        out: list[list[Subproblem]] = []
        for member_id, plan in self.members:
            for chain in plan.chains(stage):
                out.append(
                    [
                        dataclasses.replace(
                            task,
                            key=f"{member_id}{MEMBER_SEP}{task.key}",
                            chain=len(out),
                        )
                        for task in chain
                    ]
                )
        return out

    def run_chain(
        self,
        stage: str,
        tasks: list[Subproblem],
        recovered: dict[str, dict[str, np.ndarray]],
        emit: Callable[[Subproblem, dict[str, np.ndarray]], None],
    ) -> None:
        # A chain belongs to exactly one member (chains are concatenated,
        # never merged), so the whole task list demultiplexes at once.
        member_id, _ = self.split_key(tasks[0].key)
        plan = self._by_id[member_id]
        inner_tasks = []
        outer_by_inner_key: dict[str, Subproblem] = {}
        for task in tasks:
            tid, inner_key = self.split_key(task.key)
            if tid != member_id:
                raise ValueError(
                    f"chain mixes members {member_id!r} and {tid!r}"
                )
            inner = dataclasses.replace(task, key=inner_key)
            inner_tasks.append(inner)
            outer_by_inner_key[inner_key] = task
        inner_recovered = {
            self.split_key(key)[1]: payload for key, payload in recovered.items()
        }

        def inner_emit(
            task: Subproblem, payload: dict[str, np.ndarray]
        ) -> None:
            emit(outer_by_inner_key[task.key], payload)

        plan.run_chain(stage, inner_tasks, inner_recovered, inner_emit)

    def reduce(
        self, stage: str, results: dict[str, dict[str, np.ndarray]]
    ) -> None:
        split: dict[str, dict[str, dict[str, np.ndarray]]] = {
            member_id: {} for member_id, _ in self.members
        }
        for key, payload in results.items():
            member_id, inner_key = self.split_key(key)
            split[member_id][inner_key] = payload
        # Fixed member order: each member consumes exactly the table a
        # solo run would, so its reduction arithmetic is bit-identical.
        for member_id, plan in self.members:
            plan.reduce(stage, split[member_id])

    def finalize(self) -> dict[str, Any]:
        return {member_id: plan.finalize() for member_id, plan in self.members}

    def estimate_flops(self) -> dict[str, float]:
        out = {stage: 0.0 for stage in self.stages}
        for _, plan in self.members:
            for stage, flops in plan.estimate_flops().items():
                out[stage] = out.get(stage, 0.0) + flops
        return out
