"""The ``repro check`` gate: run the static and dynamic checkers.

One findings currency, one gate (**zero findings**: CI fails on any).
Each static mode (``lint``, ``shapes``, ``determinism``, ``plan``,
``threads``, ``alloc``) runs its pass over its default scope, a module
filter over one shared :class:`~repro.analysis.source.SourceIndex`
(every file parsed and tokenized once).  Three modes add runtime
work: ``plan`` replays :func:`verify_plan` over reference plans of
each driver family; ``threads`` runs a two-writer replicated store
under a :class:`~repro.analysis.dynamic.LockOrderObserver`
(``DYN206``); ``alloc`` runs the reference plans under an
:class:`~repro.analysis.allocobs.AllocationObserver` (bitwise
identical to an unobserved run) and cross-checks the static findings
(``DYN207``).  ``dynamic`` is the simmpi battery (a distributed
UoI_LASSO fit, an all-collectives exerciser, the two RMA-heavy
distribution paths) under a
:class:`~repro.analysis.dynamic.DynamicChecker`; ``static`` runs the
six static passes, ``all`` everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.analysis.alloc import AllocScan, alloc_scan, default_alloc_paths
from repro.analysis.determinism import (
    default_determinism_paths,
    determinism_check_index,
)
from repro.analysis.dynamic import DynamicChecker, LockOrderObserver, use_lock_observer
from repro.analysis.findings import Finding
from repro.analysis.linter import default_lint_paths, lint_index
from repro.analysis.planver import default_plan_paths, plan_lint_index, verify_plan
from repro.analysis.shapes import MemoryBudget, default_shape_paths, shape_check_index
from repro.analysis.source import SourceIndex, package_root, under
from repro.analysis.threads import default_threads_paths, threads_check_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.comm import SimComm

__all__ = [
    "run_plan_checks",
    "run_dynamic",
    "run_check",
    "MODES",
]

MODES = (
    "lint",
    "shapes",
    "determinism",
    "plan",
    "threads",
    "alloc",
    "static",
    "dynamic",
    "all",
)


def _reference_plans() -> list[object]:
    """One constructed plan per serial driver family, paper-shaped small.

    The distributed plans are exercised separately (their constructors
    need a live simulated communicator); their ownership arithmetic is
    covered by the AST side plus the engine test suite's
    ``verify_plan`` unit tests.
    """
    from repro.core.config import UoILassoConfig, UoIVarConfig
    from repro.engine.plans import LassoPlan, VarPlan

    rng = np.random.default_rng(0)
    X = rng.standard_normal((24, 5))
    y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(24)
    lasso_cfg = UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=3,
        random_state=7,
    )
    series = rng.standard_normal((30, 3))
    var_cfg = UoIVarConfig(
        order=2,
        lasso=UoILassoConfig(
            n_lambdas=3,
            n_selection_bootstraps=2,
            n_estimation_bootstraps=2,
            random_state=7,
        ),
    )
    return [LassoPlan(lasso_cfg, X, y), VarPlan(var_cfg, series)]


def run_plan_checks(index: SourceIndex | None = None) -> list[Finding]:
    """PLAN pass: AST lint over ``index`` (default: ``repro.engine`` +
    ``repro.core``) plus ``verify_plan`` over reference plans."""
    if index is None:
        index = SourceIndex.from_paths(default_plan_paths())
    findings = plan_lint_index(index)
    for plan in _reference_plans():
        findings.extend(verify_plan(plan))
    return findings


def _exercise_lock_observer() -> DynamicChecker:
    """A short checked concurrency workload for ``DYN206``.

    Two writer threads race puts into a two-shard replicated store
    (primary lock -> replica locks) — the lock topology the observer
    exists to watch.
    """
    import tempfile
    import threading

    from repro.service.store import ReplicatedResultsStore

    observer = LockOrderObserver()
    with use_lock_observer(observer), tempfile.TemporaryDirectory() as root:
        store = ReplicatedResultsStore(root, nshards=2)
        barrier = threading.Barrier(2)

        def writer(tid: int) -> None:
            barrier.wait()
            for i in range(6):
                store.put(
                    f"t{tid}/k{i}", {"b": np.full(3, float(tid * 10 + i))}
                )

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not store.converged():  # pragma: no cover
            raise RuntimeError("lock-observer exercise workload misbehaved")
    return observer.checker


def _exercise_alloc_observer(
    scan: AllocScan, profile_out: str | None = None
) -> list[Finding]:
    """The DYN207 battery: observed vs unobserved reference fits.

    Runs the reference plans twice on the serial backend — plain, then
    under an :class:`~repro.analysis.allocobs.AllocationObserver` —
    asserts the outputs are **bitwise identical** (the observer is
    pure observation; anything else is a checker bug worth failing the
    gate over), then cross-checks the measured constructor sites
    against the static pass's coverage.
    """
    import pickle

    from repro.analysis.allocobs import (
        AllocationHook,
        AllocationObserver,
        cross_check,
    )
    from repro.engine import SerialExecutor, run_plan

    plain = [
        pickle.dumps(run_plan(plan, SerialExecutor()))
        for plan in _reference_plans()
    ]
    observer = AllocationObserver()
    hook = AllocationHook(observer)
    observed = [
        pickle.dumps(run_plan(plan, SerialExecutor(), hooks=(hook,)))
        for plan in _reference_plans()
    ]
    if plain != observed:  # pragma: no cover
        raise RuntimeError(
            "allocation observer perturbed a fit: observed outputs are "
            "not bitwise identical to unobserved ones"
        )
    if not observer.subproblem_records():  # pragma: no cover
        raise RuntimeError("allocation observer recorded no subproblems")
    if profile_out is not None:
        observer.export_jsonl(profile_out)
    return cross_check(scan.sites, observer, scan.files)[0]


def _exercise_collectives(nranks: int, checker: DynamicChecker) -> None:
    """Every collective kind once, checked, on ``nranks`` ranks."""
    from repro.simmpi import LAPTOP, MIN, SUM, run_spmd

    def program(comm: SimComm) -> None:
        v = np.arange(4.0) + comm.rank
        comm.allreduce(v, SUM)
        comm.allreduce(v, MIN)
        comm.bcast(v if comm.rank == 0 else None, root=0)
        comm.barrier()
        comm.reduce(v, SUM, root=0)
        comm.gather(comm.rank, root=0)
        comm.allgather(comm.rank)
        comm.scatter(list(range(comm.size)) if comm.rank == 0 else None, root=0)
        comm.alltoall([comm.rank * 100 + j for j in range(comm.size)])
        comm.reduce_scatter(np.ones(comm.size, dtype=float), SUM)
        comm.scan(float(comm.rank), SUM)
        req = comm.iallreduce(v, SUM)
        req.wait()
        comm.ibarrier().wait()
        sub = comm.split(color=comm.rank % 2)
        sub.allreduce(float(comm.rank), SUM)
        return None

    run_spmd(nranks, program, machine=LAPTOP, checker=checker)


def _exercise_rma(nranks: int, checker: DynamicChecker) -> None:
    """Fenced one-sided traffic on both distribution paths, checked."""
    from repro.distribution.kron_dist import DistributedKron
    from repro.distribution.randomized import RandomizedDistributor
    from repro.pfs import SimH5File
    from repro.simmpi import LAPTOP, run_spmd

    rng = np.random.default_rng(7)
    data = rng.standard_normal((32, 5))
    file = SimH5File("/check.h5")
    file.create_dataset("data", data)
    series = rng.standard_normal((24, 3))

    def program(comm: SimComm) -> None:
        dist = RandomizedDistributor(comm, file, "data")
        rows = np.random.default_rng(11).integers(0, 32, size=16)
        dist.sample(rows)
        dist.barrier()
        dist.sample(rows[::-1])
        dist.close()

        X, Y = series[:-1], series[1:]
        kron = DistributedKron(
            comm,
            X if comm.rank == 0 else None,
            Y if comm.rank == 0 else None,
            n_readers=1,
        )
        kron.build_local()
        kron.close()
        return None

    run_spmd(nranks, program, machine=LAPTOP, checker=checker)


def _exercise_fit(nranks: int, checker: DynamicChecker) -> None:
    """A checked end-to-end distributed UoI_LASSO fit."""
    from repro.experiments._functional import mini_uoi_lasso_run

    mini_uoi_lasso_run(nranks=nranks, n=64, p=8, checker=checker)


def run_dynamic(*, nranks: int = 4) -> list[Finding]:
    """Run the checked workload battery (a fresh checker per workload:
    comm and window ids restart with each run); returns every finding."""
    findings: list[Finding] = []
    for exercise in (_exercise_collectives, _exercise_rma, _exercise_fit):
        checker = DynamicChecker()
        exercise(nranks, checker)
        findings.extend(checker.findings)
    return findings


def _run_static(
    mode: str,
    paths: Sequence[str] | None,
    budget: MemoryBudget | None,
    profile_out: str | None,
) -> list[Finding]:
    """The static passes of ``mode`` over one shared index."""
    index = SourceIndex.from_paths(paths or [package_root()])

    def scope(default_paths: Callable[[], list[str]]) -> SourceIndex:
        return index if paths else index.select(under(default_paths()))

    findings: list[Finding] = []
    if mode in ("lint", "static", "all"):
        findings.extend(lint_index(scope(default_lint_paths)))
    if mode in ("shapes", "static", "all"):
        findings.extend(
            shape_check_index(scope(default_shape_paths), budget=budget)
        )
    if mode in ("determinism", "static", "all"):
        findings.extend(determinism_check_index(scope(default_determinism_paths)))
    if mode in ("plan", "static", "all"):
        findings.extend(run_plan_checks(scope(default_plan_paths)))
    if mode in ("threads", "static", "all"):
        findings.extend(threads_check_index(scope(default_threads_paths)))
    if mode in ("alloc", "static", "all"):
        scan = alloc_scan(scope(default_alloc_paths))
        findings.extend(scan.findings)
        # "static" runs the AST pass alone; "alloc" and "all" add the
        # DYN207 runtime twin + cross-check.
        if mode != "static":
            findings.extend(_exercise_alloc_observer(scan, profile_out))
    return findings


def run_check(
    mode: str = "all",
    *,
    paths: Sequence[str] | None = None,
    nranks: int = 4,
    budget: MemoryBudget | None = None,
    profile_out: str | None = None,
) -> list[Finding]:
    """Run the selected checkers; the gate passes iff the list is empty.

    ``paths`` overrides each static pass's default tree (the passes
    have different defaults — lint covers the whole package, shapes
    the numeric subsystems, plan the engine+core); ``budget``
    configures the SHAPE per-rank memory ceiling; ``profile_out``
    writes the DYN207 allocation observation as JSONL when the alloc
    battery runs.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    findings: list[Finding] = []
    if mode != "dynamic":
        findings.extend(_run_static(mode, paths, budget, profile_out))
    if mode in ("threads", "dynamic", "all"):
        findings.extend(_exercise_lock_observer().findings)
    if mode in ("dynamic", "all"):
        findings.extend(run_dynamic(nranks=nranks))
    return findings
