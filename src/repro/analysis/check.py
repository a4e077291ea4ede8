"""The ``repro check`` gate: run the static and dynamic checkers.

Seven checkers share one findings currency and one gate (**zero
findings**: CI fails on any):

* ``repro check lint`` — the SPMD AST linter over ``src/repro``;
* ``repro check shapes`` — the SHAPE1xx symbolic shape/dtype/memory
  interpreter over ``repro.linalg`` and ``repro.distribution``;
* ``repro check determinism`` — the DET3xx taint pass from
  nondeterminism sources into plan-reachable code;
* ``repro check plan`` — the PLAN4xx verifier: static AST checks over
  the engine and distributed core, plus :func:`verify_plan` replayed
  over reference plans built from each driver family;
* ``repro check threads`` — the LOCK5xx lock-order / shared-state
  pass over the threaded layers (service, elastic engine, stream),
  plus a short checked concurrency workload (two-writer replicated
  store, double-buffered ingest) under a
  :class:`~repro.analysis.dynamic.LockOrderObserver` (``DYN206``);
* ``repro check alloc`` — the ALLOC6xx allocation/copy pass over the
  hot regions, plus its runtime twin: the reference plans run once
  under an :class:`~repro.analysis.allocobs.AllocationObserver`
  (asserted bitwise identical to an unobserved run) and the
  observation is cross-checked against the static findings
  (``DYN207``);
* ``repro check dynamic`` — a battery of real communication
  workloads (a distributed UoI_LASSO fit, an all-collectives
  exerciser, the two RMA-heavy distribution paths) under a
  :class:`~repro.analysis.dynamic.DynamicChecker`.

``repro check static`` runs the six static passes; ``repro check
all`` runs everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.determinism import determinism_check_paths
from repro.analysis.dynamic import DynamicChecker, LockOrderObserver, use_lock_observer
from repro.analysis.findings import Finding
from repro.analysis.linter import lint_paths
from repro.analysis.planver import plan_lint_paths, verify_plan
from repro.analysis.shapes import MemoryBudget, shape_check_paths
from repro.analysis.threads import threads_check_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.alloc import AllocScan
    from repro.simmpi.comm import SimComm

__all__ = [
    "run_lint",
    "run_shapes",
    "run_determinism",
    "run_plan_checks",
    "run_threads",
    "run_alloc",
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


def run_lint(paths: Sequence[str] | None = None) -> list[Finding]:
    """Static SPMD lint over ``paths`` (default: the installed ``repro``)."""
    return lint_paths(paths)


def run_shapes(
    paths: Sequence[str] | None = None,
    *,
    budget: MemoryBudget | None = None,
) -> list[Finding]:
    """SHAPE pass over ``paths`` (default: ``repro.linalg`` +
    ``repro.distribution``)."""
    return shape_check_paths(paths, budget=budget)


def run_determinism(paths: Sequence[str] | None = None) -> list[Finding]:
    """DET taint pass over ``paths`` (default: the whole package)."""
    return determinism_check_paths(paths)


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


def run_plan_checks(paths: Sequence[str] | None = None) -> list[Finding]:
    """PLAN pass: AST lint plus ``verify_plan`` over reference plans."""
    findings = plan_lint_paths(paths)
    for plan in _reference_plans():
        findings.extend(verify_plan(plan))
    return findings


def run_threads(paths: Sequence[str] | None = None) -> list[Finding]:
    """LOCK pass over ``paths`` (default: the whole package)."""
    return threads_check_paths(paths)


def _exercise_lock_observer() -> DynamicChecker:
    """A short checked concurrency workload for ``DYN206``.

    Two writer threads race puts into a two-shard replicated store
    (primary lock -> replica locks -> checkpoint lock) while a
    producer/consumer pair runs the double-buffered ingest condition
    protocol — the lock topologies the observer exists to watch.
    """
    import tempfile
    import threading

    from repro.service.store import ReplicatedResultsStore
    from repro.stream.ingest import DoubleBuffer

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

        buffer = DoubleBuffer(capacity=4)

        def producer() -> None:
            for i in range(32):
                buffer.put(np.full(2, float(i)))
            buffer.close()

        consumed: list[np.ndarray] = []

        def consumer() -> None:
            consumed.extend(buffer.drain(poll_interval=0.001))

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(2)
        ] + [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not store.converged() or len(consumed) != 32:  # pragma: no cover
            raise RuntimeError("lock-observer exercise workload misbehaved")
    return observer.checker


def _exercise_alloc_observer(
    scan: "AllocScan", profile_out: str | None = None
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
    findings, _downgrades = cross_check(scan.sites, observer, scan.files)
    return findings


def run_alloc(
    paths: Sequence[str] | None = None,
    *,
    observe: bool = True,
    profile_out: str | None = None,
) -> list[Finding]:
    """ALLOC pass over ``paths`` (default: the whole package), plus —
    when ``observe`` — the DYN207 runtime twin and its static↔runtime
    cross-check.  ``profile_out`` writes the observation as JSONL (the
    CI allocation-profile artifact)."""
    from repro.analysis.alloc import alloc_scan

    scan = alloc_scan(paths)
    findings = list(scan.findings)
    if observe:
        findings.extend(_exercise_alloc_observer(scan, profile_out))
    return findings


def _exercise_collectives(nranks: int) -> DynamicChecker:
    """Every collective kind once, checked, on ``nranks`` ranks."""
    from repro.simmpi import LAPTOP, MIN, SUM, run_spmd

    checker = DynamicChecker()

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
    return checker


def _exercise_rma(nranks: int) -> DynamicChecker:
    """Fenced one-sided traffic on both distribution paths, checked."""
    from repro.distribution.kron_dist import DistributedKron
    from repro.distribution.randomized import RandomizedDistributor
    from repro.pfs import SimH5File
    from repro.simmpi import LAPTOP, run_spmd

    checker = DynamicChecker()
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
    return checker


def _exercise_fit(nranks: int) -> DynamicChecker:
    """A checked end-to-end distributed UoI_LASSO fit."""
    from repro.experiments._functional import mini_uoi_lasso_run

    checker = DynamicChecker()
    mini_uoi_lasso_run(nranks=nranks, n=64, p=8, checker=checker)
    return checker


def run_dynamic(*, nranks: int = 4) -> list[Finding]:
    """Run the checked workload battery; returns every finding."""
    findings: list[Finding] = []
    for exercise in (_exercise_collectives, _exercise_rma, _exercise_fit):
        checker = exercise(nranks)
        findings.extend(checker.findings)
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
    if mode in ("lint", "static", "all"):
        findings.extend(run_lint(paths))
    if mode in ("shapes", "static", "all"):
        findings.extend(run_shapes(paths, budget=budget))
    if mode in ("determinism", "static", "all"):
        findings.extend(run_determinism(paths))
    if mode in ("plan", "static", "all"):
        findings.extend(run_plan_checks(paths))
    if mode in ("threads", "static", "all"):
        findings.extend(run_threads(paths))
    if mode in ("alloc", "static", "all"):
        # "static" runs the AST pass alone; "alloc" and "all" add the
        # DYN207 runtime twin + cross-check.
        findings.extend(
            run_alloc(paths, observe=mode != "static", profile_out=profile_out)
        )
    if mode in ("threads", "dynamic", "all"):
        findings.extend(_exercise_lock_observer().findings)
    if mode in ("dynamic", "all"):
        findings.extend(run_dynamic(nranks=nranks))
    return findings
