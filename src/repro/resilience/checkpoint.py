"""Checkpoint store for UoI subproblem state.

UoI's Map-Solve-Reduce structure makes the completed (bootstrap k,
penalty j) subproblem the natural checkpoint unit: selection stores the
solved coefficient vector (support masks *and* the warm-start chain
derive from it), estimation stores the OLS refit plus its held-out
loss.  A job killed mid-run therefore resumes by replaying its
bootstrap indices from the shared ``random_state``, skipping every
checkpointed subproblem, and re-entering the world collectives with
bitwise-identical state.

:class:`RecordLog` is the one on-disk record layout, shared with the
service's results store (:mod:`repro.service.store`): an append-only
file of frames, each a sorted-key JSON header line carrying its
payload's sha256 and size, then the payload.  A frame commits when
complete; reopening scans the headers (seeking past every payload) and
cuts a torn tail frame, and every read re-hashes its payload against
its header.  A payload is raw arrays, not an archive: a 4-byte header
length, a JSON header ``[[name, dtype, shape], ...]``, then each
array's C-order bytes (:func:`encode_record` / :func:`decode_record`,
the one record codec).

:class:`CheckpointStore` is the durable half: one ``CHECKPOINT.log``
with a frame per save, plus a ``CHECKPOINT.json`` sidecar pinning the
format and the run metadata (written at creation and on the first
:meth:`~CheckpointStore.ensure_meta`, never per save).  A save is one
append, so its cost does not grow with the keys already stored; a
crash mid-save loses only that subproblem, which the resumed run
recomputes bitwise.  Modeled write time is charged to the virtual
clocks through the :mod:`repro.pfs.lustre` cost model (checkpoints
live on the same striped filesystem Tier-1 reads from), so checkpoint
cadence shows up honestly in the paper-style DATA_IO bars —
``benchmarks/bench_ablation_checkpoint.py`` measures exactly that.

:class:`CheckpointHook` is the per-rank half, attached to the execution
engine as one :class:`~repro.engine.hooks.EngineHook`: it serves
recovered payloads through ``lookup``, buffers each solved subproblem
at a configurable cadence (flush every N completed subproblems), and
flushes at every stage boundary — before the stage's reduction
collectives, so solved state is durable when the run re-enters them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
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
    "RecordLog",
    "CheckpointStore",
    "CheckpointPlan",
    "CheckpointHook",
]

SIDECAR_NAME = "CHECKPOINT.json"
LOG_NAME = "CHECKPOINT.log"
FORMAT_VERSION = 3


class CheckpointCorruption(RuntimeError):
    """A record is missing or its bytes do not match its checksum."""


def write_json(path: Path, obj: object) -> None:
    """Atomically replace ``path`` with ``obj`` as (sorted-key) JSON
    (temp file + ``os.replace``: a crash never leaves ``path`` torn)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(obj, sort_keys=True).encode())
    os.replace(tmp, path)


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


class RecordLog:
    """One append-only file of checksummed frames.

    A frame is a sorted-key JSON header line — the caller's fields plus
    the payload's ``sha256`` (``None`` for an empty payload, such as a
    replica tombstone) and ``size`` — followed by the payload bytes.
    The log has no lock of its own: each store serializes its appends
    and reads under its own lock.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        path.touch()  # up front, so no append ever creates a file

    def append(self, fields: dict, payload: bytes) -> dict:
        """Append one frame; returns its header plus the payload ``offset``."""
        header = {
            **fields,
            "sha256": hashlib.sha256(payload).hexdigest() if payload else None,
            "size": len(payload),
        }
        line = json.dumps(header, sort_keys=True).encode() + b"\n"
        with open(self.path, "ab") as fh:
            entry = {**header, "offset": fh.tell() + len(line)}
            fh.write(line + payload)
        return entry

    def scan(self) -> list[dict]:
        """Frame headers (plus payload offsets), seeking past every payload.
        A crash mid-append leaves at most one torn trailing frame (partial
        header or short payload): it is cut, so the next append starts
        afresh.  A damaged header before the tail raises
        :class:`CheckpointCorruption` naming its byte offset."""
        entries, whole = [], 0
        with open(self.path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            while (line := fh.readline()).endswith(b"\n"):
                try:
                    header = json.loads(line)
                    offset, size = whole + len(line), header["size"]
                    if not isinstance(size, int) or size < 0:
                        raise ValueError(f"bad payload size {size!r}")
                except (ValueError, KeyError, TypeError) as exc:
                    raise CheckpointCorruption(
                        f"{self.path}: frame header at byte {whole} is damaged"
                    ) from exc
                if offset + size > end:
                    break
                entries.append({**header, "offset": offset})
                whole = fh.seek(offset + size)
        if whole < end:
            os.truncate(self.path, whole)
        return entries

    def read(self, key: str, entry: dict) -> dict[str, np.ndarray]:
        """The arrays of the frame ``entry`` describes, verified against its
        header's checksum; a short read or a mismatch raises
        :class:`CheckpointCorruption`."""
        offset, size = entry["offset"], entry["size"]
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                payload = fh.read(size)
        except FileNotFoundError:
            payload = b""
        where = f"{self.path}: payload at byte {offset}"
        if len(payload) < size:
            raise CheckpointCorruption(f"{where}: {size - len(payload)} bytes missing")
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            raise CheckpointCorruption(f"{where} fails its checksum (torn or rotted)")
        return decode_record(payload, key)


def _read_format(path: Path) -> dict:
    """The JSON state pinned at ``path``, refused unless it is this format."""
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    if state.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {state.get('format')!r} in {path}"
        )
    return state


class CheckpointStore:
    """Log-backed store of named array records.

    Parameters
    ----------
    root:
        Directory the store lives in (created if missing).  Reopening
        folds the log's frame headers into the key index — the last
        frame for a key wins — which is how a restarted job finds the
        records of the crashed one.

    A save appends one frame to ``CHECKPOINT.log``; the
    ``CHECKPOINT.json`` sidecar is rewritten only when the run metadata
    is first pinned.  All methods are thread-safe (the simulated ranks
    are threads sharing one store).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = instrumented_rlock("resilience.checkpoint.store")
        sidecar = self.root / SIDECAR_NAME
        if not sidecar.exists():
            # An older layout pinned its format in a JSON file of another
            # name (format 2: one manifest beside per-key record files):
            # refuse that root rather than start a second store in it.
            for pinned in self.root.glob("*.json"):
                _read_format(pinned)
            write_json(sidecar, {"format": FORMAT_VERSION, "meta": {}})
        self._meta: dict = _read_format(sidecar)["meta"]
        self._log = RecordLog(self.root / LOG_NAME)
        #: key -> header of its last frame (sha256, size, payload offset).
        self._index = {entry["key"]: entry for entry in self._log.scan()}

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def meta(self) -> dict:
        with self._lock:
            return dict(self._meta)

    def ensure_meta(self, meta: dict) -> None:
        """Pin run metadata; reject a resume under different parameters.

        The first call records ``meta`` (JSON-serializable values); any
        later call — typically from the restarted job — must present an
        identical dict, otherwise the checkpoints describe a *different*
        run and silently mixing them would corrupt results.  The error
        names each differing key with its stored and given value.
        """
        with self._lock:
            current = self._meta
            if not current:
                self._meta = dict(meta)
                write_json(
                    self.root / SIDECAR_NAME,
                    {"format": FORMAT_VERSION, "meta": self._meta},
                )
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
        """Append one record (it supersedes any earlier one under ``key``);
        returns its payload bytes."""
        payload = encode_record(arrays, key)
        with self._lock:
            self._index[key] = self._log.append({"key": key}, payload)
        return len(payload)

    def load(self, key: str) -> dict[str, np.ndarray] | None:
        """Record arrays, checksum-verified, or ``None`` if absent."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                return None
            return self._log.read(key, entry)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._index)

    def nbytes(self, key: str) -> int:
        """Payload bytes of ``key``'s record."""
        with self._lock:
            return int(self._index[key]["size"])

    def verify(self) -> list[str]:
        """Keys whose record is missing or fails its checksum."""
        bad = []
        for key in self.keys():
            try:
                self.load(key)
            except CheckpointCorruption:
                bad.append(key)
        return bad


@dataclass
class CheckpointPlan:
    """How a UoI driver should checkpoint.

    Attributes
    ----------
    store:
        The shared :class:`CheckpointStore`; existing records are
        served instead of re-solving their subproblems.
    cadence:
        Flush every N completed subproblems (per writing rank).  ``1``
        persists each subproblem as it completes; larger values batch
        the filesystem traffic at the price of losing up to
        ``cadence - 1`` subproblems in a crash; ``0`` disables writing
        (resume-only).
    """

    store: CheckpointStore
    cadence: int = 1

    def __post_init__(self) -> None:
        if self.cadence < 0:
            raise ValueError("cadence must be >= 0")


class CheckpointHook:
    """Checkpoint/restart as an engine hook, one per rank per run.

    One :class:`CheckpointHook` attached to
    :func:`repro.engine.run_plan` does the lookup / record / flush
    bookkeeping the four legacy drivers each carried:

    * ``on_run_start`` pins the plan's metadata into the store
      (rejecting resumes under different parameters);
    * ``lookup`` serves recovered payloads, which the engine counts as
      completed-without-solving;
    * ``on_subproblem_done`` buffers each *solved* task and flushes at
      the checkpoint plan's cadence (recovered tasks are never
      re-written);
    * ``on_stage_end`` flushes, so every solved subproblem is durable
      before the stage's reduction collectives run.

    It satisfies the :class:`repro.engine.hooks.EngineHook` protocol
    structurally (no subclassing, keeping this package import-light).
    A hook wrapping ``checkpoint=None`` is a cheap no-op store-wise but
    still counts completed subproblems — that is where the estimators'
    ``completed_subproblems_`` attribute comes from on plain runs.

    Parameters
    ----------
    checkpoint:
        The :class:`CheckpointPlan`, or ``None`` for a plain run.
    clock, machine:
        When both are given, each flush charges its modeled write time
        to ``clock`` (DATA_IO) through the Lustre cost model.
    writer:
        True on the one rank per cell that owns a subproblem's write
        path (cell rank 0 in the distributed drivers); other ranks
        still look records up — they need the recovered state — but
        never write.

    Counters (for recovery reports): ``recovered`` lookups that hit,
    ``completed`` subproblems solved this run, ``saved`` records
    actually flushed.
    """

    def __init__(
        self,
        checkpoint: CheckpointPlan | None,
        *,
        clock: RankClock | None = None,
        machine: MachineModel | None = None,
        writer: bool = True,
    ) -> None:
        self.checkpoint = checkpoint
        self.clock = clock
        self.machine = machine
        self.writer = writer
        self.recovered = 0
        self.completed = 0
        self.saved = 0
        self._buffer: list[tuple[str, dict[str, np.ndarray]]] = []

    @property
    def active(self) -> bool:
        return self.checkpoint is not None

    # ------------------------------------------------- hook protocol
    def on_run_start(self, plan, executor) -> None:
        if self.checkpoint is not None:
            self.checkpoint.store.ensure_meta(plan.meta())

    def lookup(self, task) -> dict[str, np.ndarray] | None:
        if self.checkpoint is None:
            return None
        rec = self.checkpoint.store.load(task.key)
        if rec is not None:
            self.recovered += 1
        return rec

    def on_subproblem_done(self, task, payload, *, recovered: bool) -> None:
        if recovered:
            return
        self.completed += 1
        if self.checkpoint is None or self.checkpoint.cadence < 1 or not self.writer:
            return
        self._buffer.append((task.key, payload))
        if len(self._buffer) >= self.checkpoint.cadence:
            self._flush()

    def on_stage_end(self, stage, plan) -> None:
        self._flush()

    def on_run_end(self, plan) -> None:
        pass

    def _flush(self) -> None:
        """Persist buffered records and charge the modeled write time."""
        if self.checkpoint is None or not self._buffer:
            return
        total_bytes = 0
        for key, arrays in self._buffer:
            total_bytes += self.checkpoint.store.save(key, arrays)
            self.saved += 1
        self._buffer.clear()
        if self.clock is not None and self.machine is not None:
            self.clock.charge(
                TimeCategory.DATA_IO,
                lustre.parallel_read_time(
                    self.machine, total_bytes, 1, stripe_count=1
                ),
            )
