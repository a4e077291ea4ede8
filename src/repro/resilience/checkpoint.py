"""Checkpoint store for UoI subproblem state.

UoI's Map-Solve-Reduce structure makes the completed (bootstrap k,
penalty j) subproblem the natural checkpoint unit: selection stores the
solved coefficient vector (support masks *and* the warm-start chain
derive from it), estimation stores the OLS refit plus its held-out
loss.  A job killed mid-run therefore resumes by replaying its
bootstrap indices from the shared ``random_state``, skipping every
checkpointed subproblem, and re-entering the world collectives with
bitwise-identical state.

:class:`CheckpointStore` is the durable half: a directory of ``.npz``
records written with the classic atomic write-rename protocol (write to
a temp file, ``os.replace`` into place) plus a versioned
``MANIFEST.json`` carrying a sha256 checksum per record — a crashed
writer can never leave a torn record behind, and a corrupted one is
detected at load.  Modeled write time is charged to the virtual clocks
through the :mod:`repro.pfs.lustre` cost model (checkpoints live on the
same striped filesystem Tier-1 reads from), so checkpoint cadence shows
up honestly in the paper-style DATA_IO bars —
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
import io
import json
import os
import re
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
FORMAT_VERSION = 1


class CheckpointCorruption(RuntimeError):
    """A record's bytes do not match its manifest checksum."""


def _safe_filename(key: str) -> str:
    """Filesystem-safe, collision-free file name for a record key."""
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", key)[:80]
    digest = hashlib.sha1(key.encode()).hexdigest()[:10]
    return f"{stem}-{digest}.npz"


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
    # internals
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.root / MANIFEST_NAME)

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
        run and silently mixing them would corrupt results.
        """
        with self._lock:
            current = self._manifest["meta"]
            if not current:
                self._manifest["meta"] = dict(meta)
                self._manifest["version"] += 1
                self._write_manifest()
            elif current != dict(meta):
                raise ValueError(
                    f"checkpoint store {self.root} was written by a "
                    f"different run: stored meta {current!r} != {dict(meta)!r}"
                )

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def save(self, key: str, arrays: dict[str, np.ndarray]) -> int:
        """Atomically persist one record; returns its payload bytes."""
        if not arrays:
            raise ValueError("record must contain at least one array")
        buf = io.BytesIO()
        np.savez(buf, **{k: np.asarray(v) for k, v in arrays.items()})
        payload = buf.getvalue()
        checksum = hashlib.sha256(payload).hexdigest()
        fname = _safe_filename(key)
        with self._lock:
            tmp = self._records_dir / (fname + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._records_dir / fname)
            self._manifest["records"][key] = {
                "file": fname,
                "sha256": checksum,
                "nbytes": len(payload),
                "arrays": sorted(arrays),
            }
            self._manifest["version"] += 1
            self._write_manifest()
        return len(payload)

    def load(self, key: str, *, verify: bool = True) -> dict[str, np.ndarray] | None:
        """Record arrays, or ``None`` if absent.

        With ``verify`` (default) the payload is re-hashed against the
        manifest checksum and :class:`CheckpointCorruption` is raised on
        mismatch — a restart must never trust a torn or bit-rotted
        record.
        """
        with self._lock:
            entry = self._manifest["records"].get(key)
            if entry is None:
                return None
            path = self._records_dir / entry["file"]
            try:
                payload = path.read_bytes()
            except FileNotFoundError as exc:
                raise CheckpointCorruption(
                    f"record {key!r} listed in manifest but {path} is missing"
                ) from exc
            if verify and hashlib.sha256(payload).hexdigest() != entry["sha256"]:
                raise CheckpointCorruption(
                    f"record {key!r} fails its checksum (torn write or bit rot)"
                )
        with np.load(io.BytesIO(payload)) as npz:
            return {name: npz[name] for name in npz.files}

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
            self._write_manifest()


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
