"""SPMD launcher: run an MPI-style program on N simulated ranks.

:func:`run_spmd` is the simulated equivalent of
``mpiexec -n N python program.py``: it creates a world communicator,
one virtual clock and one thread per rank, runs
``fn(comm, *args, **kwargs)`` everywhere, and returns the rank-ordered
list of return values (plus the clocks, for timing reports).

Error handling mirrors a well-behaved MPI runtime: a rank that raises
aborts the whole job — every rank blocked in a collective or ``recv``
wakes up with :class:`~repro.simmpi.comm.SimAborted` — and every
primary exception is re-raised in the caller aggregated into
:class:`SpmdError` (rank-ordered ``failures``, first failure on
``.rank``/``.original``).

Injected faults are different: a rank terminated by
:class:`~repro.simmpi.comm.SimulatedRankFailure` (see
:mod:`repro.resilience.faults`) models a *node crash*, not a program
bug.  The dead rank is reported on
:attr:`SpmdResult.failed_ranks` and ``run_spmd`` returns normally, so
checkpoint/restart drivers can inspect the wreckage and resume.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.simmpi.clock import RankClock
from repro.simmpi.comm import (
    SimAborted,
    SimComm,
    SimulatedRankFailure,
    _Rendezvous,
)
from repro.simmpi.machine import MachineModel, LAPTOP
from repro.simmpi.trace import Tracer

__all__ = ["run_spmd", "SpmdError", "SpmdResult", "describe_failure"]


def describe_failure(exc: BaseException) -> str:
    """``repr`` of a rank failure plus any attached context notes.

    The execution engine annotates exceptions with PEP 678 notes
    carrying the backend name, stage, and subproblem keys of the work
    that was in flight (see
    :func:`repro.engine.annotate_failure`); folding them into
    the description means an :class:`SpmdError` message — and the
    ``failed_ranks`` tables built from it — pinpoints *where in the
    plan* a rank died, not just that it died.
    """
    notes = getattr(exc, "__notes__", None)
    if not notes:
        return repr(exc)
    return f"{exc!r} [{'; '.join(str(n) for n in notes)}]"


class SpmdError(RuntimeError):
    """Aggregates every primary exception raised by the simulated ranks.

    Attributes
    ----------
    failures:
        Rank-ordered ``[(rank, exception), ...]`` of every rank that
        raised a primary error (secondary :class:`SimAborted` unwinds
        are not failures).  Multi-rank faults are therefore fully
        diagnosable from one exception.
    rank, original:
        The lowest failing rank and its exception (the historical
        single-failure interface).

    The message includes each failure's exception notes (when the work
    ran under the execution engine these carry backend, stage, and
    subproblem position — see :func:`describe_failure`).
    """

    def __init__(self, failures: list[tuple[int, BaseException]]) -> None:
        if not failures:
            raise ValueError("SpmdError needs at least one failure")
        failures = sorted(failures, key=lambda f: f[0])
        if len(failures) == 1:
            rank, exc = failures[0]
            msg = f"rank {rank} failed: {describe_failure(exc)}"
        else:
            ranks = ", ".join(str(r) for r, _ in failures)
            details = "; ".join(
                f"rank {r}: {describe_failure(e)}" for r, e in failures
            )
            msg = f"{len(failures)} ranks failed ({ranks}): {details}"
        super().__init__(msg)
        self.failures = failures
        self.rank, self.original = failures[0]


@dataclass
class SpmdResult:
    """Everything a simulated job run produces.

    Attributes
    ----------
    values:
        Rank-ordered return values of the rank function.
    clocks:
        Rank-ordered virtual clocks (for timing breakdowns).
    trace:
        The shared :class:`~repro.simmpi.trace.Tracer` when the run
        was launched with ``trace=True``; otherwise ``None``.
    failed_ranks:
        ``{rank: SimulatedRankFailure}`` for every rank terminated by
        an injected fault.  Empty on a clean run.  When non-empty the
        surviving ranks unwound at their next blocking communication,
        so their ``values`` entries are ``None``.
    """

    values: list[Any]
    clocks: list[RankClock]
    trace: Tracer | None = None
    failed_ranks: dict[int, BaseException] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when every rank ran to completion (no injected deaths)."""
        return not self.failed_ranks

    @property
    def elapsed(self) -> float:
        """Modeled job time: the slowest rank's clock."""
        return max(c.now for c in self.clocks)

    def breakdown(self, how: str = "max") -> dict[str, float]:
        """Per-category time report (see :func:`merge_breakdowns`)."""
        from repro.simmpi.clock import merge_breakdowns

        return merge_breakdowns(self.clocks, how=how)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel = LAPTOP,
    seed: int | None = None,
    timing_noise: bool = False,
    trace: bool = False,
    fault_plan=None,
    checker=None,
    deadlock_timeout_s: float | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        World size.  Keep it modest (<= ~32): each rank is an OS
        thread on this machine; the large-scale numbers come from the
        analytic model in :mod:`repro.perf.scaling`, not from spawning
        100k threads.
    fn:
        The rank program.  Its first positional argument is the world
        :class:`~repro.simmpi.comm.SimComm`.
    machine:
        Machine model used for all cost accounting.
    seed:
        Base seed for per-rank noise RNGs (only consulted when
        ``timing_noise`` is on).
    timing_noise:
        Enable lognormal rank-to-rank jitter on collective completion
        times (Fig.-5-style variability).  Off by default so functional
        tests are deterministic.
    trace:
        Record every clock advance into a shared
        :class:`~repro.simmpi.trace.Tracer` (profiler-style timeline),
        returned on the result.
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan`.  Each rank
        gets a fresh injector from :meth:`FaultPlan.injector`; injected
        rank crashes terminate only that rank (reported on
        :attr:`SpmdResult.failed_ranks`) instead of raising.
    checker:
        Optional :class:`repro.analysis.dynamic.DynamicChecker`.  Every
        rank's communicator (and any window/sub-communicator built on
        it) reports collective contributions, RMA epoch accesses and
        deadlock aborts to it; findings accumulate on
        ``checker.findings``.  Pure observation — results are bitwise
        identical with and without a checker attached.
    deadlock_timeout_s:
        Seconds a rank may block in a collective or ``recv`` before
        the run is declared deadlocked (default
        :data:`repro.simmpi.comm.DEADLOCK_TIMEOUT_S`).  Tests that
        deliberately deadlock pass a sub-second value.

    Returns
    -------
    SpmdResult
        Return values and clocks for every rank, plus any injected
        rank deaths on ``failed_ranks``.

    Raises
    ------
    SpmdError
        If any rank raised an ordinary exception; aggregates every
        failing rank (``.failures``).
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if nranks > 512:
        raise ValueError(
            f"nranks={nranks} is unreasonable for the thread-based functional "
            "simulator; use repro.perf.scaling for large-scale modeling"
        )
    from repro.simmpi.comm import DEADLOCK_TIMEOUT_S

    rendezvous = _Rendezvous(
        nranks,
        timeout_s=(
            DEADLOCK_TIMEOUT_S if deadlock_timeout_s is None else deadlock_timeout_s
        ),
    )
    tracer = Tracer() if trace else None
    clocks = [RankClock(rank=r, tracer=tracer) for r in range(nranks)]
    values: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    injected: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def worker(rank: int) -> None:
        rng = None
        if timing_noise:
            rng = np.random.default_rng(
                (seed if seed is not None else 0) * 1_000_003 + rank
            )
        injector = fault_plan.injector(rank) if fault_plan is not None else None
        comm = SimComm(
            rendezvous, rank, nranks, clocks[rank], machine, rng,
            injector=injector, checker=checker,
        )
        try:
            values[rank] = fn(comm, *args, **kwargs)
        except SimAborted:
            # Secondary failure caused by another rank's abort; the
            # primary error is already recorded.
            pass
        except SimulatedRankFailure as exc:
            # Injected node crash: contain it.  Peers unwind with
            # SimAborted at their next blocking communication — exactly
            # when a real MPI job would discover the dead rank.
            with errors_lock:
                injected.append((rank, exc))
            rendezvous.abort(str(exc))
        except BaseException as exc:  # must propagate anything, incl. SystemExit
            with errors_lock:
                errors.append((rank, exc))
            rendezvous.abort(f"rank {rank} raised {exc!r}")

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if checker is not None:
        # Analyze RMA epochs that were never closed by a fence — an
        # un-fenced put/get conflict is still a race at job end.
        checker.finalize()

    if errors:
        errors.sort(key=lambda e: e[0])
        raise SpmdError(errors) from errors[0][1]
    return SpmdResult(
        values=values,
        clocks=clocks,
        trace=tracer,
        failed_ranks=dict(sorted(injected)),
    )
