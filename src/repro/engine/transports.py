"""In-process :class:`WorkerTransport` implementations.

The three in-process backends as transports under the
:class:`~repro.engine.coordinator.Coordinator`:

* :class:`SerialTransport` — inline: the chain runs on the calling
  thread and hooks fire mid-chain (the numerical reference cadence).
* :class:`MultiprocessTransport` — streaming: chains fan out over a
  ``ProcessPoolExecutor``; a worker process dying mid-subproblem
  (OOM-kill, ``os._exit``) breaks the pool and is surfaced as a
  :class:`~repro.simmpi.executor.SpmdError` naming the leased
  subproblem keys instead of hanging or leaking a bare
  ``BrokenProcessPool``.
* :class:`SimMpiTransport` — batched: one simulated SPMD launch per
  stage, chain ``i`` on rank ``i % nranks``, gather to root — the
  exact legacy standalone-simmpi placement, so results and failure
  shapes (``SpmdError`` per failed rank) are unchanged.

The out-of-process elastic transport lives in
:mod:`repro.engine.elastic`.

:class:`SerialExecutor`, :class:`MultiprocessExecutor` and
:class:`SimMpiExecutor` are the :data:`repro.engine.BACKENDS`
constructors: a ``Coordinator`` over the matching transport, nothing
more.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.coordinator import (
    Coordinator,
    Lease,
    Payload,
    TransportEvent,
    WorkerTransport,
)
from repro.engine.plan import Subproblem, UoIPlan, annotate_failure

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.simmpi.comm import SimComm
    from repro.simmpi.machine import Machine

__all__ = [
    "SerialTransport",
    "MultiprocessTransport",
    "SimMpiTransport",
    "SerialExecutor",
    "MultiprocessExecutor",
    "SimMpiExecutor",
    "run_chain_recorded",
]


def run_chain_recorded(
    plan: UoIPlan,
    stage: str,
    chain: list[Subproblem],
    recovered: dict[str, Payload],
    emit: Callable[[Subproblem, Payload], None],
    backend: str,
) -> dict:
    """Run one chain in a worker process; returns its telemetry snapshot.

    Solver instrumentation (admm.* counters, computation spans) fires
    in the *worker*; a fresh recorder captures it and the snapshot
    ships home with the results, so off-process runs keep the serial
    telemetry surface.  Shared by every out-of-process backend so they
    cannot drift in what they record or how a failure is attributed.
    """
    from repro.telemetry.recorder import (
        Recorder,
        export_snapshot,
        use_recorder,
    )

    recorder = Recorder()
    try:
        with use_recorder(recorder):
            plan.run_chain(stage, chain, recovered, emit)
    except BaseException as exc:
        annotate_failure(exc, backend, stage, chain)
        raise
    return export_snapshot(recorder)


class SerialTransport(WorkerTransport):
    """Run the chain right here, emitting per-task as it solves."""

    name = "serial"
    inline = True

    def run_inline(
        self,
        plan: UoIPlan,
        stage: str,
        chain: Sequence[Subproblem],
        recovered: dict[str, Payload],
        emit: Callable[[Subproblem, Payload], None],
    ) -> None:
        plan.run_chain(stage, list(chain), recovered, emit)


# ---------------------------------------------------------------------------
# multiprocess transport
# ---------------------------------------------------------------------------
# Worker-process state, installed once per pool via the initializer so
# the (potentially large) plan is pickled once, not per chain.
_MP_STATE: dict = {}


def _mp_init(blob: bytes) -> None:
    plan, stage = pickle.loads(blob)
    _MP_STATE["plan"] = plan
    _MP_STATE["stage"] = stage
    _MP_STATE["chains"] = plan.chains(stage)


def _mp_run_chain(
    chain_index: int, recovered: dict[str, Payload]
) -> tuple[dict[str, Payload], dict]:
    plan, stage = _MP_STATE["plan"], _MP_STATE["stage"]
    chain = _MP_STATE["chains"][chain_index]
    out: dict[str, Payload] = {}

    def emit(task: Subproblem, payload: Payload) -> None:
        out[task.key] = payload

    telemetry = run_chain_recorded(
        plan, stage, chain, recovered, emit, MultiprocessTransport.name
    )
    return out, telemetry


class MultiprocessTransport(WorkerTransport):
    """Streaming transport over a local ``ProcessPoolExecutor``.

    Chains are independent by contract, so they are farmed out to
    worker processes; hook dispatch stays in the parent (the
    coordinator replays it in deterministic chain order).  The plan is
    re-pickled per stage (workers need the state produced by earlier
    reductions, e.g. the support family before estimation).

    A worker that dies mid-subproblem breaks the pool; :meth:`collect`
    converts that into an ``"error"`` event carrying a
    :class:`~repro.simmpi.executor.SpmdError` whose failure names the
    leased chain's subproblem keys — the engine's one aggregated
    worker-death shape — rather than letting ``BrokenProcessPool``
    escape unattributed (or, on older pool implementations, hanging on
    the result).

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``min(os.cpu_count(), 8)``.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheapest for read-only numpy state), else ``spawn``.
    """

    name = "multiprocess"

    def __init__(
        self, max_workers: int | None = None, start_method: str | None = None
    ) -> None:
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.max_workers = max_workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._stage = ""
        self._slots: list[str] = []
        self._busy: dict[int, tuple[Future, Lease]] = {}

    # ------------------------------------------------------------ lifecycle
    def open(self, plan: UoIPlan, stage: str, n_pending: int) -> None:
        blob = pickle.dumps((plan, stage))
        ctx = multiprocessing.get_context(self.start_method)
        workers = max(1, min(self.max_workers, n_pending))
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_mp_init,
            initargs=(blob,),
        )
        self._stage = stage
        self._slots = [f"mp-{i}" for i in range(workers)]
        self._busy = {}

    def close(self) -> None:
        if self._pool is not None:
            # Same semantics as the legacy ``with pool:`` block: wait
            # for in-flight chains so no orphaned worker outlives the
            # stage (a broken pool returns immediately).
            self._pool.shutdown(wait=True)
            self._pool = None
        self._busy = {}

    # ----------------------------------------------------------- scheduling
    def workers(self) -> list[str]:
        return list(self._slots)

    def idle_workers(self) -> list[str]:
        taken = {lease.worker for _, lease in self._busy.values()}
        return [slot for slot in self._slots if slot not in taken]

    def dispatch(
        self, lease: Lease, chain_index: int, recovered: dict[str, Payload]
    ) -> None:
        assert self._pool is not None, "dispatch before open()"
        fut = self._pool.submit(_mp_run_chain, chain_index, recovered)
        self._busy[lease.id] = (fut, lease)

    def collect(self, timeout: float) -> TransportEvent:
        if not self._busy:
            time.sleep(min(timeout, 0.005))
            return TransportEvent(kind="idle")
        done, _ = wait(
            [fut for fut, _ in self._busy.values()],
            timeout=timeout,
            return_when=FIRST_COMPLETED,
        )
        if not done:
            return TransportEvent(kind="idle")
        # Deterministic pick among simultaneously-done futures.
        lease_id = min(
            lid for lid, (fut, _) in self._busy.items() if fut in done
        )
        fut, lease = self._busy.pop(lease_id)
        try:
            payloads, telemetry = fut.result()
        except BrokenProcessPool as exc:
            return TransportEvent(
                kind="error",
                lease_id=lease.id,
                worker=lease.worker,
                error=self._worker_death(lease, exc),
            )
        except BaseException as exc:  # noqa: B036 - transported verbatim
            return TransportEvent(
                kind="error", lease_id=lease.id, worker=lease.worker, error=exc
            )
        return TransportEvent(
            kind="result",
            lease_id=lease.id,
            worker=lease.worker,
            payloads=payloads,
            telemetry=telemetry,
        )

    def _worker_death(
        self, lease: Lease, exc: BrokenProcessPool
    ) -> BaseException:
        """Pool breakage -> ``SpmdError`` naming the leased subproblems.

        The pool cannot say which process died, so the failure is
        attributed to the first broken lease — its chain was running
        on *some* worker when the pool collapsed.
        """
        from repro.simmpi.executor import SpmdError

        inner: BaseException = RuntimeError(
            f"worker process died mid-subproblem ({exc}); "
            f"lost lease: {lease.describe()}"
        )
        keys = ", ".join(lease.keys)
        inner.add_note(
            f"engine backend={self.name} stage={self._stage}"
            f" subproblems [{keys}]"
        )
        return SpmdError([(lease.chain_index, inner)])


# ---------------------------------------------------------------------------
# simulated-MPI transport
# ---------------------------------------------------------------------------
class SimMpiTransport(WorkerTransport):
    """Batched transport over a fresh simulated SPMD world per stage.

    Chain placement is the legacy round-robin — chain ``i`` runs on
    rank ``i % nranks`` — and results are gathered to rank 0, so the
    coordinator sees exactly what the monolithic ``SimMpiExecutor``
    used to compute; an injected rank death surfaces as
    :class:`~repro.simmpi.executor.SpmdError` with per-rank failures.
    """

    name = "simmpi"
    batched = True

    def __init__(
        self, nranks: int = 2, machine: "Machine | None" = None
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.machine = machine

    def placement(self, chain_index: int) -> str:
        return f"rank{chain_index % self.nranks}"

    def run_batch(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        pending: list[int],
        recovered_by_chain: list[dict[str, Payload]],
    ) -> dict[str, Payload]:
        from repro.simmpi.executor import SpmdError, run_spmd
        from repro.simmpi.machine import LAPTOP

        backend = self.name

        def rank_program(comm: "SimComm") -> dict[str, Payload] | None:
            out: dict[str, Payload] = {}

            def emit(task: Subproblem, payload: Payload) -> None:
                out[task.key] = payload

            for ci in pending:
                if ci % comm.size != comm.rank:
                    continue
                chain = chains[ci]
                try:
                    plan.run_chain(stage, chain, recovered_by_chain[ci], emit)
                except BaseException as exc:
                    annotate_failure(exc, backend, stage, chain)
                    raise
            gathered = comm.gather(out, root=0)
            if comm.rank != 0:
                return None
            merged: dict[str, Payload] = {}
            for part in gathered:
                merged.update(part)
            return merged

        res = run_spmd(
            self.nranks,
            rank_program,
            machine=self.machine if self.machine is not None else LAPTOP,
        )
        if res.failed_ranks:
            raise SpmdError(sorted(res.failed_ranks.items()))
        merged = res.values[0]
        assert merged is not None
        return merged


# ---------------------------------------------------------------------------
# BACKENDS constructors
# ---------------------------------------------------------------------------
class SerialExecutor(Coordinator):
    """In-order, in-process execution — the reference backend."""

    def __init__(self) -> None:
        super().__init__(SerialTransport())


class MultiprocessExecutor(Coordinator):
    """Multi-core execution (arguments: :class:`MultiprocessTransport`)."""

    def __init__(
        self, max_workers: int | None = None, start_method: str | None = None
    ) -> None:
        super().__init__(MultiprocessTransport(max_workers, start_method))


class SimMpiExecutor(Coordinator):
    """A fresh simulated-MPI world per stage (arguments:
    :class:`SimMpiTransport`).  No restart loop of its own: resilience
    runs go through the distributed drivers, where each rank is a
    ``Coordinator`` over its own grid cell."""

    def __init__(
        self, nranks: int = 2, machine: "Machine | None" = None
    ) -> None:
        super().__init__(SimMpiTransport(nranks, machine))
