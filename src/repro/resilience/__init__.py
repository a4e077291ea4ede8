"""Fault injection, checkpoint/restart, and recovery (``repro.resilience``).

The paper's runs occupy thousands of Cori nodes for hours; at that
scale node failure is routine, and an inference job that cannot
survive one wastes machine-days.  This package adds the three coupled
pieces a resilient UoI run needs, all built on the simulated substrate
so every behavior is testable deterministically:

1. **Fault injection** (:mod:`repro.resilience.faults`) — a declarative
   :class:`FaultPlan` (rank crashes at a virtual time or collective
   count, message delays, transient RMA Get failures) that
   ``run_spmd(fault_plan=...)`` wires into the communicator, window,
   and executor hooks.  An injected crash kills one rank with
   :class:`~repro.simmpi.comm.SimulatedRankFailure`; peers unwind, and
   the job reports the death on ``SpmdResult.failed_ranks`` instead of
   raising.
2. **Checkpointing** (:mod:`repro.resilience.checkpoint`) — a
   :class:`CheckpointStore` of completed (bootstrap, λ) subproblems,
   one checksummed frame per save in an append-only
   :class:`~repro.resilience.checkpoint.RecordLog` (the log the
   service's results store runs on too), buffered at a configurable
   cadence through :class:`CheckpointPlan` and attached to every UoI
   driver as one execution-engine hook (:class:`CheckpointHook` — see
   :mod:`repro.engine`).
3. **Recovery** (:mod:`repro.resilience.recovery`) —
   :func:`run_with_recovery` relaunches a killed job against the same
   store; bootstrap replay from the shared ``random_state`` plus
   checkpoint skipping makes the restarted run bitwise identical to an
   uninterrupted one.

CLI surface: ``repro run <experiment> --checkpoint-dir D --resume``
and ``repro faults`` (see :mod:`repro.cli`); the cadence/overhead
trade-off is measured by ``benchmarks/bench_ablation_checkpoint.py``.
"""

from repro.simmpi.comm import SimulatedRankFailure
from repro.simmpi.window import RmaError
from repro.resilience.faults import (
    CrashFault,
    DelayFault,
    TransientGetFault,
    FaultPlan,
    RankFaultInjector,
)
from repro.resilience.checkpoint import (
    CheckpointCorruption,
    CheckpointStore,
    CheckpointPlan,
    CheckpointHook,
)
from repro.resilience.recovery import (
    AttemptRecord,
    RecoveryOutcome,
    run_with_recovery,
    store_progress,
)

__all__ = [
    "SimulatedRankFailure",
    "RmaError",
    "CrashFault",
    "DelayFault",
    "TransientGetFault",
    "FaultPlan",
    "RankFaultInjector",
    "CheckpointCorruption",
    "CheckpointStore",
    "CheckpointPlan",
    "CheckpointHook",
    "AttemptRecord",
    "RecoveryOutcome",
    "run_with_recovery",
    "store_progress",
]
