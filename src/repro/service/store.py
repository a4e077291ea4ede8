"""Replicated, idempotent results store for the UoI service.

The service's durable half: fit results and per-subproblem payloads
land in a :class:`ReplicatedResultsStore` — a set of *shards* (keys
hash-partitioned) each held by ``replication`` :class:`ReplicaNode`
peers, every peer one append-only log of checksummed frames.  The
replication protocol follows the distributed-database exemplar in
SNIPPETS.md (multi-leader LWW with logical clocks):

* **op_id** — every replicated write carries a unique identifier
  ``"<node>:<seq>"`` minted by the originating node from a local
  monotone sequence.
* **Version vectors** — each node keeps ``last_seen``, the highest
  counter applied per origin (plus an internal gap set so deliveries
  reordered *within* one origin are still each applied exactly once).
  An op whose counter was already applied is ignored, which makes
  :meth:`ReplicaNode.apply` **idempotent**: replaying a write stream —
  duplicates, reorderings and all — onto a fresh node reconstructs
  identical state.
* **LWW by Lamport clock** — nodes stamp writes from a
  :class:`LamportClock`; a key's visible value is the op with the
  largest ``(timestamp, origin)`` pair, a total order, so conflict
  resolution is deterministic and order-independent.  Deletions
  propagate as *tombstones* (ops with no arrays) under the same rule.

Replica state persists in two files, so a crashed node reopens exactly
where it stopped (crash-safe job resume in
:mod:`repro.service.scheduler` leans on this), and a put is one append
per replica — no file is created or renamed:

* **Log** — ``REPLICA.log``, a :class:`~repro.resilience.checkpoint.RecordLog`
  (the record log the checkpoint store runs on too) with one frame per
  applied op: a JSON header line ``{op_id, key, ts, deleted, sha256,
  size}``, then the op's ``size``-byte encoded record (none for a
  tombstone).  A frame commits when complete; every read re-hashes its
  payload against the header (a mismatch or a short read raises
  ``CheckpointCorruption``).  The log *is* the node's write stream, so
  anti-entropy replay works across restarts.
* **Snapshot** — the derived state (version vector, winner index with
  payload offsets, clock) goes atomically to ``REPLICA.json`` every
  :data:`SNAPSHOT_EVERY` applies, not per op (a full-index rewrite
  costs O(total keys)).  Reopening folds the frames it does not cover,
  reconstructing identical state after a crash anywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.dynamic import instrumented_lock, instrumented_rlock
from repro.resilience.checkpoint import (
    CheckpointCorruption,
    RecordLog,
    encode_record,
    write_json,
)

__all__ = [
    "LamportClock",
    "WriteOp",
    "ReplicaNode",
    "ReplicatedResultsStore",
    "parse_op_id",
]

REPLICA_STATE_NAME = "REPLICA.json"
LOG_NAME = "REPLICA.log"
TOPOLOGY_NAME = "STORE.json"
STATE_FORMAT = 5
#: Applies between REPLICA.json snapshots (reopen folds the frames after one).
SNAPSHOT_EVERY = 64


def parse_op_id(op_id: str) -> tuple[str, int]:
    """Split ``"<node>:<seq>"`` into its origin and counter."""
    origin, sep, seq = op_id.rpartition(":")
    if not sep or not origin:
        raise ValueError(f"malformed op_id {op_id!r} (expected '<node>:<seq>')")
    return origin, int(seq)


class LamportClock:
    """Logical clock: ``tick`` for local events, ``observe`` on receive."""

    def __init__(self, time: int = 0) -> None:
        self._time = int(time)
        self._lock = instrumented_lock("service.store.clock")

    @property
    def time(self) -> int:
        with self._lock:
            return self._time

    def tick(self) -> int:
        """Advance for a local event; returns the new timestamp."""
        with self._lock:
            self._time += 1
            return self._time

    def observe(self, ts: int) -> int:
        """Merge a remote timestamp (``max`` rule); returns the clock."""
        with self._lock:
            self._time = max(self._time, int(ts))
            return self._time


@dataclass(frozen=True)
class WriteOp:
    """One replicated write (``arrays=None`` is a delete tombstone)."""

    op_id: str
    key: str
    ts: int
    arrays: dict[str, np.ndarray] | None = field(repr=False, default=None)

    @property
    def origin(self) -> str:
        return parse_op_id(self.op_id)[0]

    @property
    def seq(self) -> int:
        return parse_op_id(self.op_id)[1]

    @cached_property
    def payload(self) -> bytes:
        """The arrays' encoded record, shared by every replica applying it."""
        return encode_record(self.arrays or {}, self.key)


def _digest_arrays(arrays: Mapping[str, np.ndarray]) -> str:
    """Stable content hash of a record's arrays (name/dtype/shape/bytes)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class ReplicaNode:
    """One replica: an append-only op log and a state snapshot.

    All mutations are serialized by an internal lock (worker threads
    of the service share the nodes).  Reopening the directory resumes
    with the same version vector, winner index and write stream (see
    the module docstring for the two on-disk files).
    """

    def __init__(self, root: str | os.PathLike, name: str) -> None:
        self.name = name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._log = RecordLog(self.root / LOG_NAME)
        self._lock = instrumented_rlock("service.store.replica")
        self._journal: list[dict] = []  # frame headers + payload offsets
        self._next_seq = 1
        self._last_seen: dict[str, int] = {}
        self._missing: dict[str, set[int]] = {}
        #: key -> winning op (origin, seq, ts, deleted, sha256, offset, size).
        self._index: dict[str, dict] = {}
        self.clock = LamportClock()
        self._since_snapshot = 0
        covered = 0
        state_path = self.root / REPLICA_STATE_NAME
        if state_path.exists():
            with open(state_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
            if state.get("format") != STATE_FORMAT:
                raise ValueError(
                    f"unsupported replica state format "
                    f"{state.get('format')!r} in {state_path}"
                )
            self._next_seq = int(state["next_seq"])
            self._last_seen = {k: int(v) for k, v in state["last_seen"].items()}
            self._missing = {
                k: set(int(s) for s in v) for k, v in state["missing"].items()
            }
            self._index = dict(state["index"])
            self.clock = LamportClock(int(state["clock"]))
            covered = int(state.get("journal", 0))
        self._journal = self._log.scan()
        for entry in self._journal[covered:]:
            self._fold(entry)
        if not state_path.exists():
            # Pin the format sidecar up front so a reopen can always
            # tell a fresh node from an incompatible one.
            self._save_state()

    # ------------------------------------------------------------ state
    def _fold(self, entry: dict) -> None:
        """Derive state from one frame header (apply and reopen paths)."""
        origin, seq = parse_op_id(entry["op_id"])
        self._mark_applied(origin, seq)
        self.clock.observe(entry["ts"])
        if origin == self.name:
            self._next_seq = max(self._next_seq, seq + 1)
        cur = self._index.get(entry["key"])
        if cur is None or (entry["ts"], origin) > (cur["ts"], cur["origin"]):
            won = {f: entry[f] for f in ("ts", "deleted", "sha256", "offset", "size")}
            self._index[entry["key"]] = {"origin": origin, "seq": seq, **won}

    def _state(self) -> dict:
        """Version vector, gap sets and winner index (dump sort_keys)."""
        return {
            "last_seen": self._last_seen,
            "missing": {k: sorted(v) for k, v in self._missing.items() if v},
            "index": self._index,
        }

    def _save_state(self) -> None:
        state = {
            **self._state(),
            "format": STATE_FORMAT,
            "name": self.name,
            "next_seq": self._next_seq,
            "clock": self.clock.time,
            "journal": len(self._journal),
        }
        write_json(self.root / REPLICA_STATE_NAME, state)
        self._since_snapshot = 0

    @property
    def last_seen(self) -> dict[str, int]:
        """The version vector: highest counter applied per origin."""
        with self._lock:
            return dict(self._last_seen)

    def _applied(self, origin: str, seq: int) -> bool:
        watermark = self._last_seen.get(origin, 0)
        if seq > watermark:
            return False
        return seq not in self._missing.get(origin, ())

    def _mark_applied(self, origin: str, seq: int) -> None:
        watermark = self._last_seen.get(origin, 0)
        if seq > watermark:
            if seq > watermark + 1:
                self._missing.setdefault(origin, set()).update(
                    range(watermark + 1, seq)
                )
            self._last_seen[origin] = seq
        else:
            gaps = self._missing.get(origin)
            if gaps is not None:
                gaps.discard(seq)
                if not gaps:
                    del self._missing[origin]

    # ------------------------------------------------------------ writes
    def local_write(
        self, key: str, arrays: dict[str, np.ndarray] | None
    ) -> WriteOp:
        """Originate a write (or a tombstone) on this node; returns the op.

        The returned op is what peers :meth:`apply`; applying it again
        anywhere — including here — is a suppressed duplicate.
        """
        with self._lock:
            seq, ts = self._next_seq, self.clock.time + 1
            op = WriteOp(f"{self.name}:{seq}", key, ts, arrays)
            if arrays is not None:
                op.payload  # noqa: B018 - a refused record mints no seq, ticks no clock
            self._next_seq = seq + 1
            self.clock.tick()  # == ts: this clock only moves under the node lock
            self.apply(op)
            return op

    def apply(self, op: WriteOp) -> bool:
        """Apply one replicated op; returns False for duplicates.

        Idempotency: the ``(origin, seq)`` of ``op.op_id`` is checked
        against the version vector first — an already-applied op is
        ignored.  Visibility: the op wins its key iff its
        ``(ts, origin)`` exceeds the current winner's (LWW).
        """
        origin, seq = parse_op_id(op.op_id)
        with self._lock:
            if self._applied(origin, seq):
                return False
            # The complete frame is the commit point: a torn one is cut on
            # reopen, the op was never applied, and replication redelivers.
            deleted = op.arrays is None
            entry = self._log.append(
                {"op_id": op.op_id, "key": op.key, "ts": op.ts, "deleted": deleted},
                b"" if deleted else op.payload,
            )
            self._journal.append(entry)
            self._fold(entry)
            self._since_snapshot += 1
            if self._since_snapshot >= SNAPSHOT_EVERY:
                self._save_state()
            return True

    # ------------------------------------------------------------- reads
    @property
    def log(self) -> list[WriteOp]:
        """Applied ops in arrival order — the node's write stream.

        Materialized from the durable log (payloads checksum-verified),
        so it survives process restarts and anti-entropy replay to a
        recovering peer still ships the full history after a reopen.
        """
        with self._lock:
            return [
                WriteOp(e["op_id"], e["key"], e["ts"],
                        None if e["deleted"] else self._log.read(e["key"], e))
                for e in self._journal
            ]

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The key's visible arrays, or None (absent / tombstoned)."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None or entry["deleted"]:
                return None
            return self._log.read(key, entry)

    def keys(self) -> list[str]:
        """Visible (non-tombstoned) keys, sorted."""
        with self._lock:
            return sorted(
                k for k, e in self._index.items() if not e["deleted"]
            )

    def state_digest(self) -> str:
        """Content hash of the node's replicated state.

        Covers the version vector, the per-key winner metadata and the
        winning array content — everything replication is responsible
        for — and deliberately *not* the op log, whose order is
        delivery-dependent, nor the payload checksums, offsets and sizes,
        which depend on the container encoding and the log layout rather
        than the arrays.  Two nodes converged iff digests match.
        """
        with self._lock:
            state = self._state()
            state["index"] = {
                k: {f: v for f, v in e.items() if f not in ("sha256", "offset", "size")}
                for k, e in self._index.items()
            }
            h = hashlib.sha256(json.dumps(state, sort_keys=True).encode())
            for key, entry in sorted(self._index.items()):
                if not entry["deleted"]:
                    h.update(_digest_arrays(self._log.read(key, entry)).encode())
            return h.hexdigest()


class ReplicatedResultsStore:
    """Sharded, replicated, idempotent store of named array records.

    Parameters
    ----------
    root:
        Directory holding the shard/replica tree (created if missing;
        reopening an existing root must match its pinned topology).
    nshards:
        Number of key-hash partitions.
    replication:
        Replica nodes per shard; every write is applied to all of them.

    Writes originate on a shard's primary (replica 0), which mints the
    ``op_id``, and fan out to the peers via :meth:`ReplicaNode.apply`.
    Reads try the primary first and fall back to peers, so a wiped
    replica, or one with a corrupt or missing record, degrades reads to
    its siblings instead of failing them.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        nshards: int = 2,
        replication: int = 2,
    ) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        topo_path = self.root / TOPOLOGY_NAME
        topo = {"format": STATE_FORMAT, "nshards": nshards, "replication": replication}
        if topo_path.exists():
            with open(topo_path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if existing.get("format") != STATE_FORMAT:
                raise ValueError(
                    f"store {self.root} is format {existing.get('format')!r}, this "
                    f"version reads format {STATE_FORMAT}: results are "
                    f"recomputable, so point store_root at a fresh directory"
                )
            if existing != topo:
                raise ValueError(
                    f"store {self.root} has topology {existing!r}, "
                    f"reopened with {topo!r}: resharding is not supported"
                )
        else:
            write_json(topo_path, topo)
        self.nshards = nshards
        self.replication = replication
        self.nodes: list[list[ReplicaNode]] = [
            [
                ReplicaNode(
                    self.root / f"shard{s}" / f"replica{r}", name=f"s{s}r{r}"
                )
                for r in range(replication)
            ]
            for s in range(nshards)
        ]

    # ---------------------------------------------------------- routing
    def shard_of(self, key: str) -> int:
        """Stable hash partition of ``key`` (sha1, not PYTHONHASHSEED)."""
        digest = hashlib.sha1(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.nshards

    def replicas(self, key: str) -> list[ReplicaNode]:
        return self.nodes[self.shard_of(key)]

    # ------------------------------------------------------------ writes
    def put(self, key: str, arrays: dict[str, np.ndarray]) -> str:
        """Replicated write; returns the op's ``op_id``."""
        if arrays is None:
            raise ValueError("put() needs arrays; use delete() for tombstones")
        return self._originate(key, dict(arrays))

    def delete(self, key: str) -> str:
        """Replicated tombstone; returns the op's ``op_id``."""
        return self._originate(key, None)

    def _originate(self, key: str, arrays: dict[str, np.ndarray] | None) -> str:
        replicas = self.replicas(key)
        op = replicas[0].local_write(key, arrays)
        for peer in replicas[1:]:
            peer.apply(op)
        return op.op_id

    # ------------------------------------------------------------- reads
    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The key's arrays from the first replica that can serve them;
        a damaged record's ``CheckpointCorruption`` surfaces only if no
        replica can."""
        error: CheckpointCorruption | None = None
        for node in self.replicas(key):
            try:
                value = node.get(key)
            except CheckpointCorruption as exc:
                error = error or exc
                continue
            if value is not None:
                return value
        if error is not None:
            raise error
        return None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> list[str]:
        out: set[str] = set()
        for shard in self.nodes:
            out.update(shard[0].keys())
        return sorted(out)

    # ------------------------------------------------------ replication
    def write_stream(self, shard: int | None = None) -> list[WriteOp]:
        """The applied-op stream of each shard's primary.

        This is what anti-entropy would ship to a recovering peer;
        :meth:`replay` consumes it.  ``shard=None`` concatenates every
        shard's stream.
        """
        shards = range(self.nshards) if shard is None else (shard,)
        out: list[WriteOp] = []
        for s in shards:
            out.extend(self.nodes[s][0].log)
        return out

    def replay(self, ops: Iterable[WriteOp]) -> int:
        """Apply a write stream to every replica of each op's shard.

        Duplicates are suppressed by the version vectors and conflicts
        resolve LWW, so replaying a stream — in any order, any number
        of times — onto a fresh store with the same topology
        reconstructs identical state (see :meth:`state_digest`).
        Returns the number of ops newly applied on the primaries.
        """
        applied = 0
        for op in ops:
            replicas = self.replicas(op.key)
            if replicas[0].apply(op):
                applied += 1
            for peer in replicas[1:]:
                peer.apply(op)
        return applied

    def state_digest(self) -> str:
        """Combined content hash over every replica (topology-ordered)."""
        h = hashlib.sha256()
        for shard in self.nodes:
            for node in shard:
                h.update(node.name.encode())
                h.update(node.state_digest().encode())
        return h.hexdigest()

    def converged(self) -> bool:
        """True iff every shard's replicas carry identical state."""
        for shard in self.nodes:
            digests = {node.state_digest() for node in shard}
            if len(digests) > 1:
                return False
        return True
