"""The ``elastic`` backend: out-of-process socket workers.

This is the engine's first backend whose compute does not live in the
parent process.  A :class:`WorkerHub` listens on localhost; worker
processes (``python -m repro workers join``) connect over the same
line-JSON framing the service front end speaks
(:class:`repro.wire.LineChannel`, ndarrays via the shared
:mod:`repro.wire` codec, so results cross the wire **bitwise**).

Protocol (one persistent connection per worker):

* worker → ``{"op": "join", "worker": <name>}``; hub →
  ``{"op": "welcome", "worker": <final name>}`` — the rank-join
  handshake; a worker may attach at any point, including mid-stage,
  and immediately receives the current stage frame.
* hub → ``{"op": "stage", "blob": <b64 pickle (plan, stage, chains)>}``
  once per stage (plans are pickled exactly as the multiprocess
  backend does; peers are spawned by this run and trusted).
* hub → ``{"op": "run", "lease": id, "chain": ci, "recovered": ...}``;
  worker streams ``{"op": "task", "lease", "key", "payload"}`` per
  solved subproblem and finishes with ``{"op": "done", "lease"}`` —
  or ``{"op": "error", "lease", "blob": <pickled exception>}``.
* a dropped connection is a **leave**: the coordinator requeues the
  worker's leased chains, topping up from streamed partials and the
  checkpoint store, so a mid-run kill is a contained fault.
* ``{"op": "inspect"}`` on a fresh connection returns fleet status
  (the ``repro workers inspect`` CLI).

:class:`ElasticExecutor` owns a hub plus a spawned local fleet and
plugs into the engine like any other backend; with
``REPRO_ENGINE_BACKEND=elastic`` the process-wide
:func:`shared_elastic_executor` fleet (``REPRO_ELASTIC_WORKERS``,
default 3) serves every fit in the process.  A
:class:`~repro.resilience.faults.FaultPlan` maps onto the fleet as
the straggler/crash testbed: ``delay(rank=r, seconds=s)`` makes
spawned worker *r* sleep ``s`` real seconds per chain and
``crash(rank=r, at_collective=k)`` makes it die on its *k*-th chain.
"""

from __future__ import annotations

import atexit
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import TYPE_CHECKING

from repro.analysis.dynamic import instrumented_lock, instrumented_rlock
from repro.engine.coordinator import (
    Coordinator,
    Lease,
    Payload,
    SpeculationPolicy,
    TransportEvent,
    WorkerTransport,
)
from repro.engine.hooks import HookList
from repro.engine.plan import Subproblem, UoIPlan
from repro.engine.transports import run_chain_recorded
from repro.wire import (
    LineChannel,
    decode_arrays,
    decode_blob,
    decode_payload_table,
    encode_arrays,
    encode_blob,
    encode_payload_table,
    error_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dynamic import DynamicChecker
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan

__all__ = [
    "WorkerHub",
    "ElasticTransport",
    "ElasticExecutor",
    "worker_main",
    "inspect_hub",
    "shared_elastic_executor",
    "reset_shared_executor",
]

#: Exit code a worker uses for an injected crash (looks like node death).
CRASH_EXIT_CODE = 17


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def worker_main(
    host: str,
    port: int,
    name: str,
    *,
    delay: float = 0.0,
    crash_at: int | None = None,
    crash_after: int | None = None,
) -> int:
    """Run one elastic worker until the hub closes or says stop.

    ``delay`` sleeps that many real seconds before each chain (the
    injected-straggler testbed); ``crash_at=k`` kills the process on
    *receiving* its k-th run frame (lease lost, chain recomputed
    elsewhere) and ``crash_after=k`` kills it after *streaming* its
    k-th chain's payloads but before the done frame (lease lost, chain
    completed from partials without recompute).
    """
    sock = socket.create_connection((host, port))
    chan = LineChannel(sock)
    chan.send({"op": "join", "worker": name})
    hello = chan.recv()
    if hello is None or hello.get("op") != "welcome":
        chan.close()
        return 1
    plan: UoIPlan | None = None
    stage = ""
    chains: list[list[Subproblem]] = []
    n_runs = 0
    try:
        while True:
            frame = chan.recv()
            if frame is None:
                return 0
            op = frame.get("op")
            if op == "stage":
                plan, stage, chains = decode_blob(frame["blob"])
            elif op == "run":
                lease_id = int(frame["lease"])
                ci = int(frame["chain"])
                n_runs += 1
                if crash_at is not None and n_runs >= crash_at:
                    os._exit(CRASH_EXIT_CODE)
                if delay > 0.0:
                    time.sleep(delay)
                try:
                    if plan is None:
                        raise RuntimeError("run before stage frame")
                    recovered = decode_payload_table(
                        frame.get("recovered", {})
                    )

                    def emit(task: Subproblem, payload: Payload) -> None:
                        chan.send(
                            {
                                "op": "task",
                                "lease": lease_id,
                                "key": task.key,
                                "payload": encode_arrays(payload),
                            }
                        )

                    telemetry = run_chain_recorded(
                        plan, stage, chains[ci], recovered, emit, "elastic"
                    )
                except BaseException as exc:  # noqa: B036 - shipped to hub
                    try:
                        blob = encode_blob(exc)
                    except Exception:
                        blob = encode_blob(
                            RuntimeError(f"{type(exc).__name__}: {exc}")
                        )
                    chan.send(
                        {"op": "error", "lease": lease_id, "blob": blob}
                    )
                else:
                    if crash_after is not None and n_runs >= crash_after:
                        os._exit(CRASH_EXIT_CODE)
                    chan.send(
                        {
                            "op": "done",
                            "lease": lease_id,
                            "telemetry": encode_blob(telemetry),
                        }
                    )
            elif op == "stop":
                return 0
    except OSError:
        return 0  # hub went away; departing is not an error
    finally:
        chan.close()


def inspect_hub(host: str, port: int) -> dict:
    """One-shot status query against a live hub (``workers inspect``)."""
    sock = socket.create_connection((host, port))
    chan = LineChannel(sock)
    try:
        chan.send({"op": "inspect"})
        reply = chan.recv()
    finally:
        chan.close()
    if reply is None:
        raise RuntimeError("hub closed the connection without replying")
    return reply


# ---------------------------------------------------------------------------
# hub (coordinator side)
# ---------------------------------------------------------------------------
class WorkerHub:
    """Accepts worker connections and funnels their frames to a queue.

    One reader thread per worker pushes ``(kind, worker, frame)``
    tuples into :attr:`events` — ``kind`` is ``"join"``, ``"frame"``
    or ``"leave"`` — which :class:`ElasticTransport` consumes.  The
    hub outlives individual stages and runs; it dies with the
    executor.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lsock = socket.create_server((host, port))
        self.host, self.port = self._lsock.getsockname()[:2]
        self.events: "queue.Queue[tuple[str, str, dict | None]]" = queue.Queue()
        self._lock = instrumented_lock("engine.elastic.hub")
        self._channels: dict[str, LineChannel] = {}
        self._stage_frame: dict | None = None
        self._closed = False
        self._joined = 0
        self._accepter = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accepter.start()

    # ----------------------------------------------------------- accept path
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._lsock.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-hub-reader",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        chan = LineChannel(conn)
        try:
            first = chan.recv()
        except (OSError, ValueError):
            chan.close()
            return
        if first is None:
            chan.close()
            return
        op = first.get("op")
        if op == "inspect":
            try:
                chan.send({"ok": True, **self.status()})
            except OSError:  # pragma: no cover - peer raced away
                pass
            chan.close()
            return
        if op != "join":
            try:
                chan.send(error_to_wire(RuntimeError(f"unknown op {op!r}")))
            except OSError:  # pragma: no cover - peer raced away
                pass
            chan.close()
            return
        with self._lock:
            name = str(first.get("worker") or f"w{self._joined}")
            while name in self._channels:
                name = f"{name}+"
            self._channels[name] = chan
            self._joined += 1
            stage_frame = self._stage_frame
        try:
            chan.send({"op": "welcome", "worker": name})
            if stage_frame is not None:
                chan.send(stage_frame)
        except OSError:
            with self._lock:
                self._channels.pop(name, None)
            chan.close()
            return
        self.events.put(("join", name, None))
        try:
            while True:
                frame = chan.recv()
                if frame is None:
                    break
                self.events.put(("frame", name, frame))
        except (OSError, ValueError):  # pragma: no cover - torn connection
            pass
        with self._lock:
            self._channels.pop(name, None)
        chan.close()
        self.events.put(("leave", name, None))

    # -------------------------------------------------------------- sending
    def workers(self) -> list[str]:
        with self._lock:
            return sorted(self._channels)

    def send(self, worker: str, frame: dict) -> None:
        """Best-effort send; a dead peer surfaces as a leave event."""
        with self._lock:
            chan = self._channels.get(worker)
        if chan is None:
            return
        try:
            chan.send(frame)
        except OSError:  # the reader thread will post the leave
            pass

    def broadcast_stage(self, frame: dict | None) -> None:
        """Set the stage frame late joiners receive; push to the fleet."""
        with self._lock:
            self._stage_frame = frame
        if frame is not None:
            for worker in self.workers():
                self.send(worker, frame)

    def status(self) -> dict:
        with self._lock:
            return {
                "port": self.port,
                "workers": sorted(self._channels),
                "joined_total": self._joined,
                "stage_loaded": self._stage_frame is not None,
            }

    def close(self) -> None:
        self._closed = True
        try:
            self._lsock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for worker in self.workers():
            self.send(worker, {"op": "stop"})
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for chan in channels:
            chan.close()


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------
class ElasticTransport(WorkerTransport):
    """Streaming transport over a :class:`WorkerHub` fleet."""

    name = "elastic"
    elastic = True

    def __init__(self, hub: WorkerHub) -> None:
        self.hub = hub
        self._busy: dict[int, str] = {}

    def open(self, plan: UoIPlan, stage: str, n_pending: int) -> None:
        blob = encode_blob((plan, stage, plan.chains(stage)))
        self.hub.broadcast_stage({"op": "stage", "blob": blob})

    def close(self) -> None:
        # The fleet persists across stages and runs; only the stage
        # frame is retired so late joiners don't get a stale plan.
        self.hub.broadcast_stage(None)

    def workers(self) -> list[str]:
        return self.hub.workers()

    def idle_workers(self) -> list[str]:
        busy = set(self._busy.values())
        return [w for w in self.hub.workers() if w not in busy]

    def dispatch(
        self, lease: Lease, chain_index: int, recovered: dict[str, Payload]
    ) -> None:
        self._busy[lease.id] = lease.worker
        self.hub.send(
            lease.worker,
            {
                "op": "run",
                "lease": lease.id,
                "chain": chain_index,
                "recovered": encode_payload_table(recovered),
            },
        )

    def collect(self, timeout: float) -> TransportEvent:
        try:
            kind, worker, frame = self.hub.events.get(timeout=timeout)
        except queue.Empty:
            return TransportEvent(kind="idle")
        if kind == "join":
            return TransportEvent(kind="join", worker=worker)
        if kind == "leave":
            for lease_id, busy_worker in list(self._busy.items()):
                if busy_worker == worker:
                    del self._busy[lease_id]
            return TransportEvent(kind="leave", worker=worker)
        assert frame is not None
        op = frame.get("op")
        if op == "task":
            key = str(frame["key"])
            return TransportEvent(
                kind="task",
                lease_id=int(frame["lease"]),
                worker=worker,
                key=key,
                payloads={key: decode_arrays(frame["payload"])},
            )
        if op == "done":
            lease_id = int(frame["lease"])
            self._busy.pop(lease_id, None)
            telemetry: dict | None = None
            if "telemetry" in frame:
                try:
                    telemetry = decode_blob(frame["telemetry"])
                except Exception:  # pragma: no cover - telemetry is best-effort
                    telemetry = None
            return TransportEvent(
                kind="result",
                lease_id=lease_id,
                worker=worker,
                telemetry=telemetry,
            )
        if op == "error":
            lease_id = int(frame["lease"])
            self._busy.pop(lease_id, None)
            try:
                error: BaseException = decode_blob(frame["blob"])
            except Exception:
                error = RuntimeError(
                    f"worker {worker} failed (undecodable error blob)"
                )
            return TransportEvent(
                kind="error", lease_id=lease_id, worker=worker, error=error
            )
        return TransportEvent(kind="idle")  # unknown frame: ignore


# ---------------------------------------------------------------------------
# executor + fleet management
# ---------------------------------------------------------------------------
class ElasticExecutor(Coordinator):
    """A :class:`Coordinator` that owns its worker fleet and a stage lock.

    Parameters
    ----------
    workers:
        Local worker processes to spawn lazily before the first stage
        (``spawn=False`` starts none: attach your own with
        ``repro workers join --port <hub.port>``).
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` mapped
        onto the spawned fleet — ``delay(rank=r, seconds=s)`` makes
        worker *r* sleep per chain, ``crash(rank=r, at_collective=k)``
        makes it die on its *k*-th chain (the straggler / node-death
        testbed).
    speculation:
        :class:`~repro.engine.coordinator.SpeculationPolicy`; default
        enabled.
    store:
        Optional :class:`CheckpointStore` for durable completion
        tracking (streamed payloads persisted; reassignment recovers
        from it).
    checker:
        Optional :class:`DynamicChecker` receiving DYN205
        worker-lease-stall findings.
    stall_timeout:
        Seconds without fleet progress before the run aborts.

    Runs are serialized on an internal lock: the executor (and the
    process-wide shared instance behind
    ``REPRO_ENGINE_BACKEND=elastic``) is safe to share across
    scheduler threads, one engine run at a time on the one fleet.
    """

    def __init__(
        self,
        workers: int = 3,
        *,
        faults: "FaultPlan | None" = None,
        speculation: SpeculationPolicy | None = None,
        store: "CheckpointStore | None" = None,
        checker: "DynamicChecker | None" = None,
        stall_timeout: float = 120.0,
        spawn: bool = True,
        join_timeout: float = 30.0,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.hub = WorkerHub()
        super().__init__(
            ElasticTransport(self.hub),
            store=store,
            speculation=speculation,
            checker=checker,
            stall_timeout=stall_timeout,
        )
        self.n_workers = workers
        self.faults = faults
        self.join_timeout = join_timeout
        self._spawn = spawn
        self._procs: list[subprocess.Popen] = []
        # stall_exempt: this lock intentionally serializes whole stages
        # (see run_stage), so long holds are by design, not a finding.
        self._lock = instrumented_rlock(
            "engine.elastic.executor", stall_exempt=True
        )
        self._fleet_started = False
        self._closed = False

    # ------------------------------------------------------------ the fleet
    def ensure_fleet(self) -> None:
        """Spawn the local fleet once (no-op when ``spawn=False``)."""
        if self._fleet_started or not self._spawn:
            return
        self._fleet_started = True
        for index in range(self.n_workers):
            self.spawn_worker(index)
        if self.n_workers:
            self._wait_for_workers(self.n_workers)

    def spawn_worker(self, index: int, name: str | None = None) -> str:
        """Spawn one local worker process joined to this hub."""
        if self._closed:
            raise RuntimeError("executor is shut down")
        name = name or f"ew{index}"
        args = [
            sys.executable,
            "-m",
            "repro",
            "workers",
            "join",
            "--host",
            self.hub.host,
            "--port",
            str(self.hub.port),
            "--name",
            name,
        ]
        delay = 0.0
        crash_at: int | None = None
        if self.faults is not None:
            delay = sum(
                d.seconds for d in self.faults.delays if d.rank == index
            )
            crash_at = min(
                (
                    c.at_collective
                    for c in self.faults.crashes
                    if c.rank == index and c.at_collective is not None
                ),
                default=None,
            )
        if delay > 0.0:
            args += ["--delay", str(delay)]
        if crash_at is not None:
            args += ["--crash-at", str(crash_at)]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(src)  # .../src
        prev = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + prev if prev else "")
        # A spawned worker must never build its own elastic fleet.
        env.pop("REPRO_ENGINE_BACKEND", None)
        proc = subprocess.Popen(
            args,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._procs.append(proc)
        return name

    def _wait_for_workers(self, count: int) -> None:
        deadline = time.monotonic() + self.join_timeout
        while time.monotonic() < deadline:
            if len(self.hub.workers()) >= count:
                return
            if all(p.poll() is not None for p in self._procs):
                break  # every spawned process already exited
            time.sleep(0.02)
        raise RuntimeError(
            f"elastic fleet failed to assemble: wanted {count} workers, "
            f"have {self.hub.workers()} after {self.join_timeout:.3g}s"
        )

    # ---------------------------------------------------------------- runs
    def run_stage(
        self,
        plan: UoIPlan,
        stage: str,
        chains: list[list[Subproblem]],
        hooks: HookList,
    ) -> dict[str, Payload]:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            self.ensure_fleet()
            # Intentional: the process-wide shared executor serializes
            # whole stages so concurrent fits multiplex one fleet
            # rather than racing for leases chain-by-chain.
            return super().run_stage(plan, stage, chains, hooks)  # repro: ignore[LOCK504]

    def utilization(self) -> dict[str, int]:
        """Fleet-lifetime orchestration counters (joins, leases, ...)."""
        return dict(self.stats)

    def shutdown(self) -> None:
        """Stop the fleet and close the hub (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Snapshot-and-swap under the lock; the slow wait/kill loop
            # then runs lock-free on the local list, so a concurrent
            # ensure_fleet() never sees a half-cleared roster.
            procs, self._procs = self._procs, []
        self.hub.close()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - slow exit
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------------------
# process-wide shared fleet (REPRO_ENGINE_BACKEND=elastic)
# ---------------------------------------------------------------------------
_SHARED: ElasticExecutor | None = None
_SHARED_LOCK = threading.Lock()


def shared_elastic_executor() -> ElasticExecutor:
    """The process-wide elastic executor behind ``default_executor()``.

    Spawning a fleet per fit would dominate small runs, so the whole
    process shares one executor (and thus one fleet); worker count
    comes from ``REPRO_ELASTIC_WORKERS`` (default 3).  The fleet is
    torn down atexit.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            workers = int(os.environ.get("REPRO_ELASTIC_WORKERS", "") or 3)
            _SHARED = ElasticExecutor(workers=workers)
            atexit.register(_SHARED.shutdown)
        return _SHARED


def reset_shared_executor() -> None:
    """Tear down the shared fleet (tests; safe when none exists)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.shutdown()
            _SHARED = None
