"""Backend-pluggable execution engine for UoI runs (``repro.engine``).

The four UoI entry points — :class:`repro.core.UoILasso`,
:class:`repro.core.UoIVar`, and the distributed drivers in
:mod:`repro.core.parallel` — are thin adapters over this layer:

* :mod:`repro.engine.plan` — :class:`UoIPlan`: a run as enumerable,
  typed :class:`Subproblem` tasks with dependency chains, and the
  :func:`run_plan` driver loop (the one place a plan is verified).
* :mod:`repro.engine.plans` — :class:`LassoPlan` / :class:`VarPlan`,
  the concrete local plans (exact legacy serial numerics).
* :mod:`repro.engine.coordinator` — :class:`Coordinator`, the one
  executor type (ownership predicate, work queue, leases, completion
  tracking, speculation) over a pluggable
  :class:`~repro.engine.coordinator.WorkerTransport`.
* :mod:`repro.engine.transports` — the in-process transports
  (serial / multiprocess / simmpi) and their :data:`BACKENDS`
  constructors :class:`SerialExecutor`, :class:`MultiprocessExecutor`,
  :class:`SimMpiExecutor`.
* :mod:`repro.engine.elastic` — the out-of-process socket-worker
  transport with mid-run join/leave (``elastic`` backend).
* :mod:`repro.engine.hooks` — :class:`EngineHook` observers
  (checkpointing lives in :mod:`repro.resilience.checkpoint` as
  :class:`~repro.resilience.checkpoint.CheckpointHook`).

Backend selection: pass ``executor=`` to the estimators, or set the
``REPRO_ENGINE_BACKEND`` environment variable (``serial`` |
``multiprocess`` | ``simmpi`` | ``elastic``) to change the
process-wide default — that is how CI runs the whole suite on the
multiprocess and elastic backends.  A backend chosen *by name* —
that variable, a service job's ``backend`` field, a CLI flag — goes
through :func:`named_executor`, where ``elastic`` means one shared
worker fleet (:func:`repro.engine.elastic.shared_elastic_executor`,
``REPRO_ELASTIC_WORKERS`` workers) rather than a fleet per fit.
"""

from __future__ import annotations

import os

from repro.engine.plan import (
    ESTIMATION,
    SELECTION,
    PlanOutputs,
    Subproblem,
    UoIPlan,
    annotate_failure,
    plan_verification_enabled,
    run_plan,
)
from repro.engine.hooks import EngineHook, HookList, ProgressHook, RecordingHook
from repro.engine.coordinator import (
    Coordinator,
    Lease,
    SpeculationPolicy,
    TransportEvent,
    WorkerTransport,
    worker_utilization,
)
from repro.engine.transports import (
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
)
from repro.engine.plans import LassoPlan, VarPlan

__all__ = [
    "SELECTION",
    "ESTIMATION",
    "Subproblem",
    "PlanOutputs",
    "UoIPlan",
    "EngineHook",
    "HookList",
    "RecordingHook",
    "ProgressHook",
    "Coordinator",
    "Lease",
    "TransportEvent",
    "WorkerTransport",
    "SpeculationPolicy",
    "worker_utilization",
    "SerialExecutor",
    "MultiprocessExecutor",
    "SimMpiExecutor",
    "plan_verification_enabled",
    "LassoPlan",
    "VarPlan",
    "run_plan",
    "annotate_failure",
    "ElasticExecutor",
    "shared_elastic_executor",
    "BACKENDS",
    "BACKEND_ALIASES",
    "make_executor",
    "named_executor",
    "default_executor",
]

from repro.engine.elastic import ElasticExecutor, shared_elastic_executor

#: Backend name -> (factory, one-line description) for CLI listings.
BACKENDS = {
    "serial": (
        SerialExecutor,
        "in-order, in-process execution (the numerical reference)",
    ),
    "multiprocess": (
        MultiprocessExecutor,
        "process-pool fan-out over local cores (bitwise-identical)",
    ),
    "simmpi": (
        SimMpiExecutor,
        "a fresh world of simulated MPI ranks per stage, modeled time",
    ),
    "elastic": (
        ElasticExecutor,
        "out-of-process socket workers; mid-run join/leave + speculation",
    ),
}

#: Accepted spellings that are not BACKENDS keys (the issue/paper name
#: the elastic backend by its full slug).
BACKEND_ALIASES = {"processpool-elastic": "elastic"}


def make_executor(
    name: str, verify: bool = False, **kwargs: object
) -> Coordinator:
    """A fresh executor for a backend name (see :data:`BACKENDS`).

    ``verify=True`` marks it so :func:`run_plan` runs
    :func:`repro.analysis.planver.verify_plan` on every plan it is
    handed (process-wide opt-in: ``REPRO_PLAN_VERIFY=1``).
    """
    name = BACKEND_ALIASES.get(name, name)
    try:
        factory, _ = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    executor = factory(**kwargs)
    executor.verify = verify
    return executor


def named_executor(name: str) -> Coordinator:
    """The executor a backend *name* stands for.

    The one owner of the rule that ``elastic`` (or its alias) by name
    means the process-wide shared fleet — spawning workers per fit or
    per service batch would dominate every small run — while every
    other name is a fresh :func:`make_executor`.
    """
    if BACKEND_ALIASES.get(name, name) == "elastic":
        return shared_elastic_executor()
    return make_executor(name)


def default_executor() -> Coordinator:
    """The process-wide default backend.

    ``REPRO_ENGINE_BACKEND`` names it (CI matrix entries set
    ``multiprocess`` and ``elastic`` to run the whole suite off the
    reference backend); unset or empty means serial.
    """
    name = os.environ.get("REPRO_ENGINE_BACKEND", "").strip().lower()
    return named_executor(name or "serial")
