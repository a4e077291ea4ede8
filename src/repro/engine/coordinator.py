"""The engine's one executor: a coordinator over a pluggable transport.

Every backend is two layers:

* a **Coordinator** (this module) — the object
  :func:`~repro.engine.plan.run_plan` drives — that owns the
  orchestration invariants: grid ownership, the work queue of
  warm-start chains, lease-based assignment, completion tracking
  (optionally persisted to a
  :class:`~repro.resilience.checkpoint.CheckpointStore`), straggler
  speculation, and the deterministic hook replay that keeps results
  bitwise identical across backends; and
* a pluggable :class:`WorkerTransport` that only knows how to *run a
  chain somewhere* — in-process (serial), on a local process pool
  (multiprocess), on simulated MPI ranks (simmpi), or on out-of-process
  socket workers (:mod:`repro.engine.elastic`).

The unit of assignment is the warm-start **chain** (tasks in one chain
share bootstrap data and λ-path warm starts and must run in order on
one worker; chains are independent by the plan contract).  Each
dispatched chain holds a :class:`Lease`; the coordinator enforces that
active leases never overlap — two non-speculative leases covering the
same subproblem key violate the same disjoint-ownership invariant
PLAN404 proves for process grids, and are rejected through
:func:`repro.analysis.planver.verify_lease_disjointness` (PLAN405).

Transports come in three shapes, each driven differently but all
funnelled through the same lookup/replay path (which is what makes the
backends bit-identical):

* ``inline`` — the chain runs synchronously on the calling thread and
  hooks fire mid-chain (the serial reference, and each rank of the
  distributed drivers behind its grid's ``owns=`` predicate);
* ``batched`` — every pending chain is handed over at once (simmpi:
  one SPMD launch per stage, chain *i* on rank ``i % nranks``);
* streaming (default) — chains are dispatched as worker slots free
  up and completions arrive as :class:`TransportEvent`\\ s; workers may
  join and leave mid-stage (elastic), a departed worker's leases are
  requeued with their streamed partial results recovered from the
  buffer / checkpoint store, and stragglers past a telemetry-derived
  percentile are speculatively re-issued to idle workers.

Determinism: all of this only changes *where and when* chains run.
Plans are pure (randomness pre-drawn, ``run_chain`` deterministic),
results are keyed by subproblem, and hook replay happens in the
parent in chain order — so leases, reassignment and speculation are
invisible in the output bits.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.engine.hooks import HookList
from repro.engine.plan import Subproblem, UoIPlan, annotate_failure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dynamic import DynamicChecker
    from repro.resilience.checkpoint import CheckpointStore
    from repro.telemetry.recorder import Recorder

#: The engine's result currency: one checkpointable payload per task.
Payload = dict[str, np.ndarray]

__all__ = [
    "Payload",
    "Lease",
    "TransportEvent",
    "WorkerTransport",
    "SpeculationPolicy",
    "Coordinator",
    "lookup_chain",
]

#: Telemetry span/counter category for lease accounting.
_DISTRIBUTION = "distribution"


def lookup_chain(
    chain: Sequence[Subproblem], hooks: HookList
) -> dict[str, Payload]:
    """Recovered payloads for a chain (hook dispatch included)."""
    recovered: dict[str, Payload] = {}
    for task in chain:
        payload = hooks.lookup(task)
        if payload is not None:
            recovered[task.key] = payload
    return recovered


@dataclass
class Lease:
    """One outstanding assignment: a chain granted to one worker.

    ``speculative`` marks a duplicate re-issue of a straggling chain;
    a chain may hold one primary lease plus speculative copies, never
    two primaries (PLAN405).
    """

    id: int
    chain_index: int
    keys: tuple[str, ...]
    worker: str
    issued_at: float
    speculative: bool = False

    def describe(self) -> str:
        keys = ", ".join(self.keys)
        return f"chain {self.chain_index} [{keys}] leased to {self.worker}"


@dataclass
class TransportEvent:
    """One observation from a streaming transport.

    ``kind`` is one of ``"result"`` (a lease's chain finished;
    ``payloads`` carries the solved table unless it was streamed
    task-by-task), ``"task"`` (one streamed subproblem payload),
    ``"error"`` (an exception escaped plan code), ``"join"`` /
    ``"leave"`` (elastic fleet membership), ``"idle"`` (nothing
    happened within the poll tick).
    """

    kind: str
    lease_id: int | None = None
    worker: str | None = None
    key: str | None = None
    payloads: dict[str, Payload] | None = None
    error: BaseException | None = None
    #: worker-side recorder snapshot shipped with a ``"result"``
    #: (:func:`repro.telemetry.recorder.export_snapshot`) — solver
    #: counters/spans recorded in the worker process.
    telemetry: dict | None = None


class WorkerTransport:
    """Where chains run.  The coordinator owns everything else.

    Exactly one of the three shapes applies:

    * ``inline=True`` — implement :meth:`run_inline`;
    * ``batched=True`` — implement :meth:`run_batch`;
    * streaming (both False) — implement :meth:`open`,
      :meth:`idle_workers`, :meth:`dispatch`, :meth:`collect`,
      :meth:`close`.
    """

    #: Backend name used in failure attribution and CLI listings.
    name = "abstract"
    inline = False
    batched = False
    #: Streaming transports whose fleet can change mid-run.
    elastic = False

    # ------------------------------------------------------- inline shape
    def run_inline(
        self,
        plan: UoIPlan,
        stage: str,
        chain: Sequence[Subproblem],
        recovered: dict[str, Payload],
        emit: Callable[[Subproblem, Payload], None],
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------- batched shape
    def run_batch(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        pending: list[int],
        recovered_by_chain: list[dict[str, Payload]],
    ) -> dict[str, Payload]:
        raise NotImplementedError

    def placement(self, chain_index: int) -> str:
        """Worker label a batched transport assigns to a chain."""
        return self.name

    # ----------------------------------------------------- streaming shape
    def open(self, plan: UoIPlan, stage: str, n_pending: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def workers(self) -> list[str]:
        raise NotImplementedError

    def idle_workers(self) -> list[str]:
        raise NotImplementedError

    def dispatch(
        self, lease: Lease, chain_index: int, recovered: dict[str, Payload]
    ) -> None:
        raise NotImplementedError

    def collect(self, timeout: float) -> TransportEvent:
        raise NotImplementedError


@dataclass
class SpeculationPolicy:
    """When to re-issue a straggling lease to an idle worker.

    A lease is a straggler once its age exceeds
    ``max(min_seconds, factor * percentile(completed durations))``,
    with at least ``min_samples`` completed chains informing the
    percentile (the durations come from the coordinator's own lease
    telemetry).  ``enabled=False`` turns the policy off while keeping
    the accounting, which is what the straggler benchmark compares.
    """

    enabled: bool = True
    percentile: float = 95.0
    factor: float = 2.0
    min_seconds: float = 0.25
    min_samples: int = 3

    def threshold(self, durations: Sequence[float]) -> float | None:
        """Straggler age cutoff, or ``None`` while underinformed."""
        if not self.enabled or len(durations) < self.min_samples:
            return None
        pct = float(np.percentile(np.asarray(durations, dtype=float),
                                  self.percentile))
        return max(self.min_seconds, self.factor * pct)


class Coordinator:
    """Drive one stage of a plan over a :class:`WorkerTransport`.

    This is the engine's executor type: ``name`` (its transport's) and
    :meth:`run_stage` are all :func:`~repro.engine.plan.run_plan` uses.

    Parameters
    ----------
    transport:
        Where chains run.
    owns:
        Optional ownership predicate over :class:`Subproblem`.  Tasks it
        rejects are dropped at the top of :meth:`run_stage` — before any
        ``lookup`` — so this coordinator neither recovers, runs nor
        reports them.  The distributed drivers pass their
        :meth:`~repro.core.parallel.ProcessGrid.owns`, which makes each
        rank the engine of its own P_B x P_lambda cell while
        ``plan.chains()`` keeps enumerating the full grid.
    store:
        Optional :class:`CheckpointStore` backing completion tracking:
        streamed per-task payloads are persisted as they arrive, and a
        departed worker's requeued chain recovers its completed prefix
        from the buffer/store instead of recomputing it.
    speculation:
        Straggler policy for elastic transports (default: enabled with
        :class:`SpeculationPolicy` defaults).
    checker:
        Optional :class:`~repro.analysis.dynamic.DynamicChecker`; a
        stalled fleet (no progress within ``stall_timeout``) is
        reported through ``on_lease_stall`` (DYN205) before the run
        aborts — the worker-lease generalization of the DYN204
        deadlock report.
    stall_timeout:
        Seconds without any completion/partial/join before the run is
        declared stalled.
    tick:
        Streaming poll granularity in seconds.
    """

    #: Verify each plan before its first stage; read by ``run_plan``
    #: and set by ``Scheduler(verify=True)``.
    verify = False

    def __init__(
        self,
        transport: WorkerTransport,
        *,
        owns: Callable[[Subproblem], bool] | None = None,
        store: "CheckpointStore | None" = None,
        speculation: SpeculationPolicy | None = None,
        checker: "DynamicChecker | None" = None,
        stall_timeout: float = 120.0,
        tick: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if owns is not None and not (transport.inline or transport.batched):
            # Streaming workers re-enumerate plan.chains() themselves and
            # address chains by index; a filtered list would misalign.
            raise ValueError(
                "owns= needs an inline or batched transport, "
                f"not streaming {transport.name!r}"
            )
        self.transport = transport
        self.owns = owns
        self.store = store
        self.speculation = speculation or SpeculationPolicy()
        self.checker = checker
        self.stall_timeout = stall_timeout
        self.tick = tick
        self.clock = clock
        self._next_lease_id = 0
        #: Cumulative orchestration statistics (reset per coordinator).
        self.stats: dict[str, int] = {
            "leases": 0,
            "speculative": 0,
            "reassigned": 0,
            "joins": 0,
            "leaves": 0,
        }

    @property
    def name(self) -> str:
        """Backend name used in failure attribution and CLI listings."""
        return self.transport.name

    # ----------------------------------------------------------- helpers
    def _recorder(self) -> "Recorder | None":
        from repro.telemetry.recorder import current_recorder

        return current_recorder()

    def _now(self) -> float:
        rec = self._recorder()
        return rec.now() if rec is not None else self.clock()

    def _record_lease_span(
        self, lease: Lease, stage: str, end: float, outcome: str
    ) -> None:
        rec = self._recorder()
        if rec is None:
            return
        rec.add_span(
            f"lease:{lease.keys[0]}",
            _DISTRIBUTION,
            lease.issued_at,
            end,
            type="worker_lease",
            worker=lease.worker,
            stage=stage,
            chain=lease.chain_index,
            speculative=lease.speculative,
            outcome=outcome,
        )

    def _count(self, name: str, delta: float = 1.0) -> None:
        rec = self._recorder()
        if rec is not None:
            rec.count(name, delta)

    def _issue(
        self,
        chain_index: int,
        keys: tuple[str, ...],
        worker: str,
        active: dict[int, Lease],
        *,
        speculative: bool = False,
    ) -> Lease:
        """Create a lease, enforcing PLAN405 disjointness on issue."""
        lease = Lease(
            id=self._next_lease_id,
            chain_index=chain_index,
            keys=keys,
            worker=worker,
            issued_at=self._now(),
            speculative=speculative,
        )
        self._next_lease_id += 1
        from repro.analysis.planver import assert_disjoint_leases

        assert_disjoint_leases(list(active.values()) + [lease])
        active[lease.id] = lease
        self.stats["leases"] += 1
        if speculative:
            self.stats["speculative"] += 1
            self._count("engine.leases.speculative")
        self._count("engine.leases.issued")
        return lease

    # --------------------------------------------------------- entry point
    def run_stage(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        hooks: HookList,
    ) -> dict[str, Payload]:
        if self.owns is not None:
            owned = ([t for t in chain if self.owns(t)] for chain in chains)
            chains = [chain for chain in owned if chain]
        if self.transport.inline:
            return self._run_inline(plan, stage, chains, hooks)
        if self.transport.batched:
            return self._run_batched(plan, stage, chains, hooks)
        return self._run_streaming(plan, stage, chains, hooks)

    # ------------------------------------------------------------- inline
    def _run_inline(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        hooks: HookList,
    ) -> dict[str, Payload]:
        """Serial shape: lookup/run/hook per chain, in order, hooks
        firing at per-subproblem cadence (the reference semantics).

        No leases, no spans: there is exactly one "worker" — the
        calling thread — so lease accounting would be pure noise and
        the legacy serial telemetry profile must not change.
        """
        results: dict[str, Payload] = {}

        def emit(task: Subproblem, payload: Payload) -> None:
            results[task.key] = payload
            hooks.on_subproblem_done(task, payload, recovered=False)

        for chain in chains:
            recovered = lookup_chain(chain, hooks)
            for task in chain:
                if task.key in recovered:
                    results[task.key] = recovered[task.key]
                    hooks.on_subproblem_done(
                        task, recovered[task.key], recovered=True
                    )
            if len(recovered) == len(chain):
                continue
            try:
                self.transport.run_inline(plan, stage, chain, recovered, emit)
            except BaseException as exc:
                annotate_failure(exc, self.transport.name, stage, list(chain))
                raise
        return results

    # ------------------------------------------------------------ batched
    def _run_batched(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        hooks: HookList,
    ) -> dict[str, Payload]:
        """simmpi shape: one launch per stage, results gathered, hooks
        replayed in deterministic chain order by the coordinator."""
        recovered_by_chain, pending = self._lookup_all(chains, hooks)
        computed: dict[str, Payload] = {}
        if pending:
            active: dict[int, Lease] = {}
            leases = [
                self._issue(
                    ci,
                    tuple(t.key for t in chains[ci]),
                    self.transport.placement(ci),
                    active,
                )
                for ci in pending
            ]
            computed = self.transport.run_batch(
                plan, stage, chains, pending, recovered_by_chain
            )
            end = self._now()
            for lease in leases:
                self._record_lease_span(lease, stage, end, "completed")
        return self._replay(
            chains, hooks, recovered_by_chain, self._split(chains, computed)
        )

    # ---------------------------------------------------------- streaming
    def _run_streaming(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        hooks: HookList,
    ) -> dict[str, Payload]:
        recovered_by_chain, pending = self._lookup_all(chains, hooks)
        computed: dict[int, dict[str, Payload]] = {}
        telemetry_by_chain: dict[int, dict] = {}
        if pending:
            self.transport.open(plan, stage, len(pending))
            try:
                self._drive(
                    plan, stage, chains, pending, recovered_by_chain,
                    computed, telemetry_by_chain,
                )
            finally:
                self.transport.close()
            self._merge_worker_telemetry(telemetry_by_chain)
        return self._replay(chains, hooks, recovered_by_chain, computed)

    def _merge_worker_telemetry(
        self, telemetry_by_chain: dict[int, dict]
    ) -> None:
        """Fold worker-side recorder snapshots into the run's recorder.

        Merged in chain-index order — not completion order — so
        counter totals, gauge last-writes and span sequence are
        deterministic whatever the fleet did.
        """
        rec = self._recorder()
        if rec is None:
            return
        from repro.telemetry.recorder import merge_snapshot

        for ci in sorted(telemetry_by_chain):
            merge_snapshot(rec, telemetry_by_chain[ci])

    def _drive(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        pending: list[int],
        recovered_by_chain: list[dict[str, Payload]],
        computed: dict[int, dict[str, Payload]],
        telemetry_by_chain: dict[int, dict],
    ) -> None:
        """The streaming loop: assign → collect → account, until every
        pending chain has a completed result table."""
        queue: deque[int] = deque(pending)
        active: dict[int, Lease] = {}
        #: chain -> streamed per-task payloads (the completion tracker;
        #: mirrored to the checkpoint store when one is attached).
        partial: dict[int, dict[str, Payload]] = {ci: {} for ci in pending}
        #: lease id -> (lease, exception) for failed leases.  Errors
        #: are not raised on arrival: concurrent chains finish in
        #: wall-clock order, so the first error event is not always the
        #: first *issued* chain that failed.  We hold failures until no
        #: older lease is outstanding and raise the lowest lease id —
        #: the same attribution a serial in-order run would produce.
        errors: dict[int, tuple[Lease | None, BaseException]] = {}
        durations: list[float] = []
        todo = set(pending)
        last_progress = self.clock()

        def finish_chain(ci: int, table: dict[str, Payload]) -> None:
            computed[ci] = table
            todo.discard(ci)

        def raise_failure(lease: Lease | None, exc: BaseException) -> None:
            chain = (
                list(chains[lease.chain_index]) if lease is not None else None
            )
            if "engine backend=" not in "".join(
                getattr(exc, "__notes__", ())
            ):
                annotate_failure(exc, self.transport.name, stage, chain)
            raise exc

        while todo:
            # ---------------------------------------------- assignment
            idle = list(self.transport.idle_workers())
            while queue and idle and not errors:
                ci = queue.popleft()
                if ci in computed:
                    continue
                table = self._known_payloads(ci, chains[ci], partial)
                if len(table) == len(chains[ci]):
                    # Fully recovered from streamed partials (a worker
                    # died between its last task and its done frame).
                    finish_chain(ci, table)
                    continue
                worker = idle.pop(0)
                lease = self._issue(
                    ci, tuple(t.key for t in chains[ci]), worker, active
                )
                recovered = dict(recovered_by_chain[ci])
                recovered.update(table)
                self.transport.dispatch(lease, ci, recovered)
            # --------------------------------------------- speculation
            if not queue and idle and not errors:
                self._maybe_speculate(
                    chains, active, durations, computed, idle,
                    recovered_by_chain, partial,
                )
            # ------------------------------------------------- collect
            event = self.transport.collect(self.tick)
            now = self.clock()
            event_lease = -1 if event.lease_id is None else event.lease_id
            if event.kind == "task":
                lease = active.get(event_lease)
                if lease is not None and event.key is not None:
                    payload = (event.payloads or {}).get(event.key, {})
                    self._note_partial(lease.chain_index, event.key,
                                       payload, partial)
                    last_progress = now
            elif event.kind == "result":
                lease = active.pop(event_lease, None)
                if lease is None:
                    continue  # stale completion from a speculation loser
                ci = lease.chain_index
                table = dict(partial.get(ci, {}))
                if event.payloads:
                    table.update(event.payloads)
                if ci not in computed:
                    durations.append(self._now() - lease.issued_at)
                    finish_chain(ci, table)
                    if event.telemetry is not None:
                        telemetry_by_chain[ci] = event.telemetry
                self._record_lease_span(lease, stage, self._now(),
                                        "completed")
                # Siblings racing this chain are now moot, and so is
                # any held failure from an earlier attempt at it —
                # first successful result wins.
                for sibling in [
                    lease2
                    for lease2 in active.values()
                    if lease2.chain_index == ci
                ]:
                    active.pop(sibling.id, None)
                    self._record_lease_span(sibling, stage, self._now(),
                                            "superseded")
                for lid in [
                    lid
                    for lid, (failed, _) in errors.items()
                    if failed is not None and failed.chain_index == ci
                ]:
                    errors.pop(lid)
                last_progress = now
            elif event.kind == "error":
                exc = event.error or RuntimeError("worker error")
                lease = active.pop(event_lease, None)
                if lease is None:
                    # Stale: the lease was superseded by a sibling's
                    # result or reassigned after its worker left — the
                    # chain is done or re-running, either way this
                    # failure no longer matters.
                    continue
                self._record_lease_span(lease, stage, self._now(), "failed")
                errors[lease.id] = (lease, exc)
                last_progress = now
            elif event.kind == "leave":
                self.stats["leaves"] += 1
                self._count("engine.workers.left")
                for lost in [
                    lease2
                    for lease2 in active.values()
                    if lease2.worker == event.worker
                ]:
                    active.pop(lost.id, None)
                    self._record_lease_span(lost, stage, self._now(),
                                            "reassigned")
                    ci = lost.chain_index
                    still_leased = any(
                        lease2.chain_index == ci for lease2 in active.values()
                    )
                    if ci in todo and not still_leased and ci not in queue:
                        # Contained fault: requeue; the completed prefix
                        # is recovered from partial/store, not recomputed.
                        queue.appendleft(ci)
                        self.stats["reassigned"] += 1
                        self._count("engine.leases.reassigned")
                last_progress = now
            elif event.kind == "join":
                self.stats["joins"] += 1
                self._count("engine.workers.joined")
                last_progress = now
            # ------------------------------------------------- failure
            if errors:
                min_id = min(errors)
                if not any(
                    lease2.id < min_id for lease2 in active.values()
                ):
                    raise_failure(*errors[min_id])
            # --------------------------------------------------- stall
            if todo and now - last_progress > self.stall_timeout:
                if errors:
                    # An older lease hung while we were draining; the
                    # held failure beats a generic stall report.
                    raise_failure(*errors[min(errors)])
                self._report_stall(active, queue)

    def _maybe_speculate(
        self,
        chains: list[list[Subproblem]],
        active: dict[int, Lease],
        durations: list[float],
        computed: dict[int, dict[str, Payload]],
        idle: list[str],
        recovered_by_chain: list[dict[str, Payload]],
        partial: dict[int, dict[str, Payload]],
    ) -> None:
        threshold = self.speculation.threshold(durations)
        if threshold is None:
            return
        now = self._now()
        stragglers = sorted(
            (
                lease
                for lease in active.values()
                if not lease.speculative
                and now - lease.issued_at > threshold
                and lease.chain_index not in computed
                and sum(
                    1
                    for lease2 in active.values()
                    if lease2.chain_index == lease.chain_index
                )
                == 1
            ),
            key=lambda lease: lease.issued_at,
        )
        for lease in stragglers:
            if not idle:
                return
            worker = idle.pop(0)
            if worker == lease.worker:  # pragma: no cover - defensive
                continue
            ci = lease.chain_index
            duplicate = self._issue(
                ci, lease.keys, worker, active, speculative=True
            )
            recovered = dict(recovered_by_chain[ci])
            recovered.update(self._known_payloads(ci, chains[ci], partial))
            self.transport.dispatch(duplicate, ci, recovered)

    # ------------------------------------------------- completion tracking
    def _note_partial(
        self,
        chain_index: int,
        key: str,
        payload: Payload,
        partial: dict[int, dict[str, Payload]],
    ) -> None:
        table = partial.setdefault(chain_index, {})
        if key in table:
            return  # speculation duplicate: identical bits by purity
        table[key] = payload
        if self.store is not None:
            self.store.save(key, payload)

    def _known_payloads(
        self,
        chain_index: int,
        chain: list[Subproblem],
        partial: dict[int, dict[str, Payload]],
    ) -> dict[str, Payload]:
        """Streamed partials, topped up from the checkpoint store."""
        table = dict(partial.get(chain_index, {}))
        if self.store is not None:
            for task in chain:
                if task.key not in table and task.key in self.store:
                    loaded = self.store.load(task.key)
                    if loaded is not None:
                        table[task.key] = loaded
        return table

    def _report_stall(
        self, active: dict[int, Lease], queue: deque[int]
    ) -> None:
        stalled = {
            lease.worker: lease.describe() for lease in active.values()
        }
        workers = self.transport.workers()
        reason = (
            f"no progress within {self.stall_timeout:.3g}s: "
            f"{len(active)} active lease(s), {len(queue)} queued chain(s), "
            f"{len(workers)} connected worker(s)"
        )
        if self.checker is not None:
            self.checker.on_lease_stall(
                stalled or {"<fleet>": "no active leases"}, reason
            )
        raise RuntimeError(f"engine stage stalled — {reason}")

    # --------------------------------------------------------- replay path
    def _lookup_all(
        self, chains: list[list[Subproblem]], hooks: HookList
    ) -> tuple[list[dict[str, Payload]], list[int]]:
        recovered_by_chain: list[dict[str, Payload]] = []
        pending: list[int] = []
        for ci, chain in enumerate(chains):
            recovered = lookup_chain(chain, hooks)
            recovered_by_chain.append(recovered)
            if len(recovered) < len(chain):
                pending.append(ci)
        return recovered_by_chain, pending

    @staticmethod
    def _split(
        chains: list[list[Subproblem]], computed: dict[str, Payload]
    ) -> dict[int, dict[str, Payload]]:
        """Flat key->payload table -> per-chain tables (batched shape)."""
        out: dict[int, dict[str, Payload]] = {}
        for ci, chain in enumerate(chains):
            table = {
                t.key: computed[t.key] for t in chain if t.key in computed
            }
            if table:
                out[ci] = table
        return out

    @staticmethod
    def _replay(
        chains: list[list[Subproblem]],
        hooks: HookList,
        recovered_by_chain: list[dict[str, Payload]],
        computed: dict[int, dict[str, Payload]],
    ) -> dict[str, Payload]:
        """Deterministic hook replay + result assembly, in chain order.

        This is the invariant that makes every deferred backend bitwise
        identical to serial: whatever order chains completed in, hooks
        fire and results assemble in plan enumeration order.
        """
        results: dict[str, Payload] = {}
        for ci, chain in enumerate(chains):
            recovered = recovered_by_chain[ci]
            solved = computed.get(ci, {})
            for task in chain:
                if task.key in recovered:
                    results[task.key] = recovered[task.key]
                    hooks.on_subproblem_done(
                        task, recovered[task.key], recovered=True
                    )
                else:
                    results[task.key] = solved[task.key]
                    hooks.on_subproblem_done(
                        task, solved[task.key], recovered=False
                    )
        return results


