"""Checkpoint store for UoI subproblem state.

UoI's Map-Solve-Reduce structure makes the completed (bootstrap k,
penalty j) subproblem the natural checkpoint unit: selection stores the
solved coefficient vector (support masks *and* the warm-start chain
derive from it), estimation stores the OLS refit plus its held-out
loss.  A job killed mid-run therefore resumes by replaying its
bootstrap indices from the shared ``random_state``, skipping every
checkpointed subproblem, and re-entering the world collectives with
bitwise-identical state.

:class:`CheckpointStore` is the durable half: a directory of record
files written with the classic atomic write-rename protocol (write to
a temp file, ``os.replace`` into place) plus a versioned
``MANIFEST.json`` carrying a sha256 checksum per record — a crashed
writer can never leave a torn record behind, and a corrupted one is
detected at load.  A record is raw arrays, not an archive: a 4-byte
header length, a JSON header ``[[name, dtype, shape], ...]``, then each
array's C-order bytes (:func:`encode_record` / :func:`decode_record`,
the one record codec; the service's results store appends the same
payloads to one log per replica instead of writing record files).
Modeled write time is charged to the virtual clocks through the
:mod:`repro.pfs.lustre` cost model (checkpoints live on the same
striped filesystem Tier-1 reads from), so checkpoint cadence shows up
honestly in the paper-style DATA_IO bars —
``benchmarks/bench_ablation_checkpoint.py`` measures exactly that.

:class:`CheckpointSession` is the per-rank half: lookup / record /
flush bookkeeping with a configurable cadence (flush every N completed
subproblems).  Drivers no longer call it directly: checkpointing
attaches to the execution engine as :class:`CheckpointHook`, one
:class:`~repro.engine.hooks.EngineHook` that serves recovered payloads
through ``lookup``, records each solved subproblem as it completes,
and flushes at every stage boundary — before the stage's reduction
collectives, so solved state is durable when the run re-enters them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.dynamic import instrumented_rlock
from repro.pfs import lustre
from repro.simmpi.clock import RankClock, TimeCategory
from repro.simmpi.machine import MachineModel

__all__ = [
    "CheckpointCorruption",
    "CheckpointStore",
    "CheckpointPlan",
    "CheckpointSession",
    "CheckpointHook",
]

MANIFEST_NAME = "MANIFEST.json"
FORMAT_VERSION = 2


class CheckpointCorruption(RuntimeError):
    """A record is missing or its bytes do not match its checksum."""


def _safe_filename(key: str) -> str:
    """Filesystem-safe, collision-free file name for a record key."""
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", key)[:80]
    digest = hashlib.sha1(key.encode()).hexdigest()[:10]
    return f"{stem}-{digest}.rec"


def _replace_atomically(path: Path, data: bytes) -> None:
    """Temp file + ``os.replace``: a crash never leaves ``path`` torn."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_json(path: Path, obj: object) -> None:
    """Atomically replace ``path`` with ``obj`` as (sorted-key) JSON."""
    _replace_atomically(path, json.dumps(obj, sort_keys=True).encode())


def encode_record(arrays: dict[str, np.ndarray], key: str) -> bytes:
    """Record ``key``'s payload: a little-endian uint32 header length,
    the JSON header ``[[name, dtype.str, shape], ...]``, then each
    array's C-order bytes.  Object, structured and zero-width dtypes have
    no raw byte form and are refused with a ``ValueError`` naming the key."""
    if not arrays:
        raise ValueError(f"record {key!r} must contain at least one array")
    header, body = [], []
    for name, value in arrays.items():
        a = np.asarray(value)
        dt = a.dtype
        if dt.hasobject or not dt.itemsize or np.dtype(dt.str) != dt:
            raise ValueError(
                f"record {key!r}: array {name!r} has dtype {dt}, which has "
                f"no raw byte form (store numeric, bool or fixed-width string arrays)"
            )
        header.append([name, dt.str, list(a.shape)])
        body.append(a.tobytes())  # C order for any layout
    head = json.dumps(header).encode()
    return b"".join([struct.pack("<I", len(head)), head, *body])


def decode_record(payload: bytes, key: str) -> dict[str, np.ndarray]:
    """Writable arrays of an :func:`encode_record` payload, bitwise.

    A payload whose header does not parse, or whose byte count disagrees
    with the header's shapes, raises :class:`CheckpointCorruption`
    naming ``key`` — with no checksum to compare, this is the only
    guard against a truncated or damaged record.
    """
    where = f"record {key!r}"
    if len(payload) < 4:
        raise CheckpointCorruption(f"{where}: {len(payload)}-byte payload is truncated")
    (hlen,) = struct.unpack_from("<I", payload)
    start = 4 + hlen
    if start > len(payload):
        raise CheckpointCorruption(
            f"{where}: header length {hlen} runs past the {len(payload)}-byte payload"
        )
    try:
        layout = []
        for name, dtype, shape in json.loads(payload[4:start]):
            dt = np.dtype(dtype)
            if (
                not isinstance(name, str)
                or dt.str != dtype  # as encode_record writes it: no subarrays
                or dt.hasobject
                or not dt.itemsize
                or not all(isinstance(d, int) and d >= 0 for d in shape)
            ):
                raise ValueError(f"bad entry {[name, dtype, shape]!r}")
            layout.append((name, dt, tuple(shape), math.prod(shape)))
    except (ValueError, TypeError) as exc:
        raise CheckpointCorruption(f"{where}: header is damaged ({exc})") from exc
    nbytes = sum(count * dt.itemsize for _, dt, _, count in layout)
    if start + nbytes != len(payload):
        raise CheckpointCorruption(
            f"{where}: header describes {nbytes} array bytes, payload "
            f"holds {len(payload) - start}"
        )
    out, offset = {}, start
    for name, dt, shape, count in layout:
        out[name] = np.frombuffer(payload, dt, count, offset).reshape(shape).copy()
        offset += count * dt.itemsize
    return out


def write_record(records_dir: Path, key: str, payload: bytes) -> str:
    """Atomically store an encoded record under ``key``; returns its sha256."""
    _replace_atomically(records_dir / _safe_filename(key), payload)
    return hashlib.sha256(payload).hexdigest()


def read_record(
    records_dir: Path, key: str, sha256: str | None
) -> dict[str, np.ndarray]:
    """``key``'s arrays, re-hashed against ``sha256`` unless it is None; a
    mismatch or a missing file raises :class:`CheckpointCorruption`."""
    path = records_dir / _safe_filename(key)
    try:
        payload = path.read_bytes()
    except FileNotFoundError as exc:
        raise CheckpointCorruption(f"record {key!r}: {path} is missing") from exc
    if sha256 is not None and hashlib.sha256(payload).hexdigest() != sha256:
        raise CheckpointCorruption(f"record {key!r} fails its checksum (torn or rotted)")
    return decode_record(payload, key)


class CheckpointStore:
    """Directory-backed, atomically-updated store of named array records.

    Parameters
    ----------
    root:
        Directory the store lives in (created if missing).  An existing
        manifest is loaded, which is how a restarted job finds the
        records of the crashed one.

    Every mutation rewrites ``MANIFEST.json`` atomically with a
    monotonically increasing ``version``; every record file is written
    via temp-file + ``os.replace``.  All methods are thread-safe (the
    simulated ranks are threads sharing one store).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._records_dir = self.root / "records"
        self._records_dir.mkdir(parents=True, exist_ok=True)
        self._lock = instrumented_rlock("resilience.checkpoint.store")
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.exists():
            with open(manifest_path, "r", encoding="utf-8") as fh:
                self._manifest = json.load(fh)
            if self._manifest.get("format") != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint format "
                    f"{self._manifest.get('format')!r} in {manifest_path}"
                )
        else:
            self._manifest = {
                "format": FORMAT_VERSION,
                "version": 0,
                "meta": {},
                "records": {},
            }

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Manifest version (increments on every mutation)."""
        with self._lock:
            return int(self._manifest["version"])

    @property
    def meta(self) -> dict:
        with self._lock:
            return dict(self._manifest["meta"])

    def ensure_meta(self, meta: dict) -> None:
        """Pin run metadata; reject a resume under different parameters.

        The first call records ``meta`` (JSON-serializable values); any
        later call — typically from the restarted job — must present an
        identical dict, otherwise the checkpoints describe a *different*
        run and silently mixing them would corrupt results.  The error
        names each differing key with its stored and given value.
        """
        with self._lock:
            current = self._manifest["meta"]
            if not current:
                self._manifest["meta"] = dict(meta)
                self._manifest["version"] += 1
                write_json(self.root / MANIFEST_NAME, self._manifest)
            elif current != dict(meta):
                def shown(d: dict, k: str) -> str:
                    return repr(d[k]) if k in d else "(absent)"

                diffs = "; ".join(
                    f"{k}: stored {shown(current, k)}, given {shown(meta, k)}"
                    for k in sorted(current.keys() | meta.keys())
                    if shown(current, k) != shown(meta, k)
                )
                raise ValueError(
                    f"checkpoint store {self.root} was written by a different "
                    f"run ({diffs}); its records cannot serve this one: point "
                    f"the run at a fresh store root"
                )

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def save(self, key: str, arrays: dict[str, np.ndarray]) -> int:
        """Atomically persist one record; returns its payload bytes."""
        payload = encode_record(arrays, key)
        with self._lock:
            self._manifest["records"][key] = {
                "file": _safe_filename(key),
                "sha256": write_record(self._records_dir, key, payload),
                "nbytes": len(payload),
                "arrays": sorted(arrays),
            }
            self._manifest["version"] += 1
            write_json(self.root / MANIFEST_NAME, self._manifest)
        return len(payload)

    def load(self, key: str, *, verify: bool = True) -> dict[str, np.ndarray] | None:
        """Record arrays, or ``None`` if absent.

        With ``verify`` (default) the payload is re-hashed against the
        manifest checksum (see :func:`read_record`).
        """
        with self._lock:
            entry = self._manifest["records"].get(key)
            if entry is None:
                return None
            return read_record(
                self._records_dir, key, entry["sha256"] if verify else None
            )

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._manifest["records"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._manifest["records"])

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._manifest["records"])

    def nbytes(self, key: str) -> int:
        with self._lock:
            return int(self._manifest["records"][key]["nbytes"])

    def verify(self) -> list[str]:
        """Keys whose record is missing or fails its checksum."""
        bad = []
        for key in self.keys():
            try:
                self.load(key, verify=True)
            except CheckpointCorruption:
                bad.append(key)
        return bad

    def clear(self) -> None:
        """Drop every record (the manifest survives, version bumped)."""
        with self._lock:
            for entry in self._manifest["records"].values():
                try:
                    os.unlink(self._records_dir / entry["file"])
                except FileNotFoundError:
                    pass
            self._manifest["records"] = {}
            self._manifest["version"] += 1
            write_json(self.root / MANIFEST_NAME, self._manifest)


@dataclass
class CheckpointPlan:
    """How a UoI driver should checkpoint.

    Attributes
    ----------
    store:
        The shared :class:`CheckpointStore`.
    cadence:
        Flush every N completed subproblems (per writing rank).  ``1``
        persists each subproblem as it completes; larger values batch
        the manifest/filesystem traffic at the price of losing up to
        ``cadence - 1`` subproblems in a crash; ``0`` disables writing
        (resume-only).
    resume:
        Consult existing records before solving (skip checkpointed
        subproblems).
    charge_io:
        Charge the modeled write time of each flush to the writing
        rank's virtual clock (DATA_IO), via the Lustre cost model.
    """

    store: CheckpointStore
    cadence: int = 1
    resume: bool = True
    charge_io: bool = True

    def __post_init__(self) -> None:
        if self.cadence < 0:
            raise ValueError("cadence must be >= 0")


class CheckpointSession:
    """Per-rank checkpoint bookkeeping inside one driver invocation.

    ``plan=None`` makes every method a cheap no-op, so drivers call the
    hooks unconditionally.  ``writer`` is True on the rank that owns a
    subproblem's contribution (cell rank 0 in the distributed drivers);
    non-writers still :meth:`lookup` — they need the recovered state —
    but never touch the store's write path.

    Counters (for recovery reports): ``recovered`` lookups that hit,
    ``completed`` subproblems finished this run, ``saved`` records
    actually flushed.
    """

    def __init__(
        self,
        plan: CheckpointPlan | None,
        *,
        clock: RankClock | None = None,
        machine: MachineModel | None = None,
        writer: bool = True,
    ) -> None:
        self.plan = plan
        self.clock = clock
        self.machine = machine
        self.writer = writer
        self.recovered = 0
        self.completed = 0
        self.saved = 0
        self._buffer: list[tuple[str, dict[str, np.ndarray]]] = []

    @property
    def active(self) -> bool:
        return self.plan is not None

    def ensure_meta(self, meta: dict) -> None:
        if self.active:
            self.plan.store.ensure_meta(meta)

    def lookup(self, key: str) -> dict[str, np.ndarray] | None:
        """Recovered record for ``key``, or None (absent / resume off)."""
        if not self.active or not self.plan.resume:
            return None
        rec = self.plan.store.load(key)
        if rec is not None:
            self.recovered += 1
        return rec

    def record(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Note one completed subproblem; flush at the plan's cadence."""
        self.completed += 1
        if not self.active or self.plan.cadence < 1 or not self.writer:
            return
        self._buffer.append((key, arrays))
        if len(self._buffer) >= self.plan.cadence:
            self.flush()

    def flush(self) -> None:
        """Persist buffered records and charge the modeled write time."""
        if not self._buffer:
            return
        total_bytes = 0
        for key, arrays in self._buffer:
            total_bytes += self.plan.store.save(key, arrays)
            self.saved += 1
        self._buffer.clear()
        if self.plan.charge_io and self.clock is not None and self.machine is not None:
            self.clock.charge(
                TimeCategory.DATA_IO,
                lustre.parallel_read_time(
                    self.machine, total_bytes, 1, stripe_count=1
                ),
            )


class CheckpointHook:
    """Checkpoint/restart as an engine hook.

    One :class:`CheckpointHook` attached to
    :func:`repro.engine.run_plan` replaces the lookup /
    record / flush wiring the four legacy drivers each carried:

    * ``on_run_start`` pins the plan's metadata into the store
      (rejecting resumes under different parameters);
    * ``lookup`` serves recovered payloads, which the engine counts as
      completed-without-solving;
    * ``on_subproblem_done`` records each *solved* task at the
      session's cadence (recovered tasks are never re-written);
    * ``on_stage_end`` flushes, so every solved subproblem is durable
      before the stage's reduction collectives run.

    It satisfies the :class:`repro.engine.hooks.EngineHook` protocol
    structurally (no subclassing, keeping this package import-light).
    A hook wrapping ``checkpoint=None`` is a cheap no-op store-wise but
    still counts completed subproblems — that is where the estimators'
    ``completed_subproblems_`` attribute comes from on plain runs.

    Parameters mirror :class:`CheckpointSession`: ``clock`` /
    ``machine`` charge modeled write time, ``writer`` marks the one
    rank per cell that owns the write path.
    """

    def __init__(
        self,
        checkpoint: CheckpointPlan | None,
        *,
        clock: RankClock | None = None,
        machine: MachineModel | None = None,
        writer: bool = True,
    ) -> None:
        self.session = CheckpointSession(
            checkpoint, clock=clock, machine=machine, writer=writer
        )

    # ------------------------------------------------- hook protocol
    def on_run_start(self, plan, executor) -> None:
        self.session.ensure_meta(plan.meta())

    def lookup(self, task) -> dict[str, np.ndarray] | None:
        return self.session.lookup(task.key)

    def on_subproblem_done(self, task, payload, *, recovered: bool) -> None:
        if not recovered:
            self.session.record(task.key, payload)

    def on_stage_end(self, stage, plan) -> None:
        self.session.flush()

    def on_run_end(self, plan) -> None:
        pass

    # ------------------------------------------------------ counters
    @property
    def recovered(self) -> int:
        """Lookups served from the store."""
        return self.session.recovered

    @property
    def completed(self) -> int:
        """Subproblems solved by this run."""
        return self.session.completed
