"""Runtime SPMD checkers for the simulated MPI substrate.

A :class:`DynamicChecker` is handed to
:func:`repro.simmpi.run_spmd(checker=...) <repro.simmpi.run_spmd>` and
receives callbacks from the communication layer while the program
runs:

* **Collective matching** (``DYN201``/``DYN202``) — each rank's
  contribution carries its operation kind, reduce op, root, payload
  dtype/shape and call site, validated across ranks *before* the
  payloads are combined.
* **RMA epoch races** (``DYN203``) — one-sided accesses are checked
  pairwise for conflicting overlap at each fence (and at job end).
* **Deadlock reporting** (``DYN204``) — the runtime's timeout abort
  records every blocked rank and the call it waits in.
* **Lock-order observation** (``DYN206``) — a
  :class:`LockOrderObserver`, the runtime twin of the ``LOCK5xx``
  pass, wraps the locks production code creates through the
  ``instrumented_*`` factories (plain ``threading`` primitives when no
  observer is active) and reports observed order inversions and
  long-held-lock stalls.  Enable globally with ``REPRO_THREAD_CHECK=1``
  or per scope with :func:`use_lock_observer`.

The checker is pure observation: it never touches payloads, so runs
with a checker attached are bitwise identical to runs without
(asserted in ``tests/test_analysis_dynamic.py``).  The hooks are
consulted only when a checker is attached; the disabled-path cost is
one ``is None`` test per operation.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.analysis.findings import Finding
from repro.analysis.rules import finding

__all__ = [
    "DynamicChecker",
    "CollectiveMismatchError",
    "call_site",
    "LockOrderObserver",
    "instrumented_lock",
    "instrumented_rlock",
    "instrumented_condition",
    "use_lock_observer",
    "current_lock_observer",
]

#: Files whose frames are skipped when attributing a dynamic finding
#: to a user call site.
_INTERNAL_FILES = (
    os.path.join("simmpi", "comm.py"),
    os.path.join("simmpi", "window.py"),
    os.path.join("simmpi", "executor.py"),
    os.path.join("analysis", "dynamic.py"),
)


class CollectiveMismatchError(RuntimeError):
    """Raised at the mismatched collective when a checker detects that
    ranks posted different operation kinds to one sequence point."""


def call_site() -> tuple[str, int]:
    """``(file, line)`` of the innermost non-runtime caller frame."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(_INTERNAL_FILES):
            return filename, frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


def _describe_value(value: Any) -> dict:
    """Shape/dtype summary of a collective contribution."""
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape)}
    return {"dtype": type(value).__name__, "shape": None}


def _key_footprint(key: Any, length: int) -> tuple:
    """Normalize an RMA index key to ``(rows, cols)`` for overlap tests.

    ``rows`` is a frozenset of first-axis indices when the key is
    analyzable (int / slice / integer array, or a tuple whose first
    element is one), else ``None`` meaning *potentially everything*.
    ``cols`` is ``None`` (whole rows) or the ``repr`` of the trailing
    index components.
    """
    cols: str | None = None
    head = key
    if isinstance(key, tuple):
        head = key[0] if key else slice(None)
        if len(key) > 1:
            cols = repr(key[1:])
    rows: frozenset | None
    if isinstance(head, (int, np.integer)):
        idx = int(head)
        rows = frozenset({idx % length if length else idx})
    elif isinstance(head, slice):
        rows = frozenset(range(*head.indices(length)))
    elif isinstance(head, (list, np.ndarray)):
        arr = np.asarray(head)
        if arr.dtype == bool:
            rows = frozenset(np.flatnonzero(arr).tolist())
        elif np.issubdtype(arr.dtype, np.integer):
            rows = frozenset(int(i) % length if length else int(i) for i in arr.ravel())
        else:
            rows = None
    else:
        rows = None
    return rows, cols


def _footprints_conflict(a: tuple, b: tuple) -> bool:
    rows_a, cols_a = a
    rows_b, cols_b = b
    if rows_a is not None and rows_b is not None and not (rows_a & rows_b):
        return False
    if cols_a is not None and cols_b is not None and cols_a != cols_b:
        return False
    return True


class DynamicChecker:
    """Thread-safe collector of runtime SPMD findings.

    Parameters
    ----------
    raise_on_mismatch:
        When True (default), a collective *kind* mismatch (``DYN201``)
        raises :class:`CollectiveMismatchError` in the arriving rank
        after recording the finding — without this the runtime would
        combine unrelated payloads and fail somewhere far from the
        cause.  Argument-level mismatches (``DYN202``) and RMA races
        (``DYN203``) are recorded but never raise: the checked program
        runs to completion bitwise-identically.
    """

    def __init__(self, *, raise_on_mismatch: bool = True) -> None:
        self.raise_on_mismatch = raise_on_mismatch
        self.findings: list[Finding] = []
        self._lock = threading.Lock()
        #: (comm_id, seq) -> {rank: meta}; dropped after validation.
        self._slots: dict[tuple[int, int], dict[int, dict]] = {}
        #: (win_id, epoch) -> list of access records.
        self._epochs: dict[tuple[int, int], list[dict]] = {}
        self._analyzed: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- core
    def _emit(
        self,
        rule_id: str,
        message: str,
        site: tuple[str, int],
        **context: object,
    ) -> Finding:
        found = finding(rule_id, site[0], site[1], message, source="dynamic", **context)
        with self._lock:
            self.findings.append(found)
        return found

    def findings_for(self, rule_id: str) -> list[Finding]:
        with self._lock:
            return [f for f in self.findings if f.rule == rule_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self.findings)

    # ------------------------------------------------------ collectives
    def collective_meta(
        self,
        kind: str,
        value: Any = None,
        *,
        op: str | None = None,
        root: int | None = None,
        checked_value: bool = True,
    ) -> dict:
        """Build one rank's contribution record (called by ``SimComm``)."""
        meta: dict[str, Any] = {"kind": kind, "site": call_site()}
        if op is not None:
            meta["op"] = op
        if root is not None:
            meta["root"] = root
        if checked_value:
            meta.update(_describe_value(value))
        return meta

    def on_collective_contribution(
        self, comm_id: int, comm_size: int, seq: int, rank: int, meta: dict
    ) -> None:
        """Register one rank's contribution; validate on the last one."""
        with self._lock:
            slot = self._slots.setdefault((comm_id, seq), {})
            slot[rank] = meta
            if len(slot) < comm_size:
                return
            del self._slots[(comm_id, seq)]
        self._validate_slot(comm_id, seq, slot)

    def _validate_slot(self, comm_id: int, seq: int, metas: dict[int, dict]) -> None:
        by_rank = sorted(metas.items())
        kinds = {m["kind"] for _, m in by_rank}
        if len(kinds) > 1:
            per_rank = {r: m["kind"] for r, m in by_rank}
            sites = {r: f"{m['site'][0]}:{m['site'][1]}" for r, m in by_rank}
            found = self._emit(
                "DYN201",
                f"collective sequence mismatch at seq {seq}: ranks called "
                + ", ".join(f"rank {r}: {k}" for r, k in per_rank.items()),
                by_rank[0][1]["site"],
                seq=seq,
                kinds=per_rank,
                sites=sites,
            )
            if self.raise_on_mismatch:
                raise CollectiveMismatchError(
                    f"[{found.rule}] {found.message} "
                    f"(sites: {', '.join(f'{r}={s}' for r, s in sites.items())})"
                )
            return

        kind = by_rank[0][1]["kind"]
        for attr, label in (("op", "reduce op"), ("root", "root")):
            values = {m.get(attr) for _, m in by_rank}
            if len(values) > 1:
                self._emit(
                    "DYN202",
                    f"`{kind}` at seq {seq} called with mismatched {label}s "
                    f"across ranks: {sorted(map(str, values))}",
                    by_rank[0][1]["site"],
                    seq=seq,
                    kind=kind,
                    attribute=attr,
                    values={r: m.get(attr) for r, m in by_rank},
                )

        described = [(r, m) for r, m in by_rank if "dtype" in m]
        if described:
            dtypes = {m["dtype"] for _, m in described}
            shapes = {
                tuple(m["shape"]) if m["shape"] is not None else None
                for _, m in described
            }
            if len(dtypes) > 1 or len(shapes) > 1:
                self._emit(
                    "DYN202",
                    f"`{kind}` at seq {seq} called with mismatched "
                    f"contributions across ranks: dtypes={sorted(dtypes)}, "
                    f"shapes={sorted(map(str, shapes))}",
                    by_rank[0][1]["site"],
                    seq=seq,
                    kind=kind,
                    attribute="payload",
                    dtypes={r: m["dtype"] for r, m in described},
                    shapes={r: m["shape"] for r, m in described},
                )

    # -------------------------------------------------------------- rma
    def on_rma(
        self,
        win_id: int,
        epoch: int,
        origin: int,
        target: int,
        op: str,
        key: Any,
        buffer_len: int,
    ) -> None:
        """Record one one-sided access (called by ``Window``)."""
        record = {
            "origin": origin,
            "target": target,
            "op": op,
            "key": repr(key),
            "footprint": _key_footprint(key, buffer_len),
            "site": call_site(),
        }
        with self._lock:
            self._epochs.setdefault((win_id, epoch), []).append(record)

    def end_epoch(self, win_id: int, epoch: int) -> None:
        """Analyze one closed fence epoch (idempotent across ranks)."""
        with self._lock:
            if (win_id, epoch) in self._analyzed:
                return
            self._analyzed.add((win_id, epoch))
            accesses = self._epochs.pop((win_id, epoch), [])
        self._analyze_epoch(epoch, accesses)

    def finalize(self) -> None:
        """Analyze every epoch never closed by a fence (job end)."""
        for win_id, epoch in list(self._epochs):
            self.end_epoch(win_id, epoch)
        with self._lock:
            self._epochs.clear()

    def _analyze_epoch(self, epoch: int, accesses: list[dict]) -> None:
        writes = [a for a in accesses if a["op"] in ("put", "accumulate")]
        if not writes:
            return
        reported: set[tuple] = set()
        for w in writes:
            for other in accesses:
                if other is w:
                    continue
                if other["target"] != w["target"]:
                    continue
                if w["op"] == "accumulate" and other["op"] == "accumulate":
                    continue  # concurrent same-op accumulates are ordered
                if not _footprints_conflict(w["footprint"], other["footprint"]):
                    continue
                pair_id = (
                    frozenset(
                        (
                            (w["origin"], w["op"], w["key"]),
                            (other["origin"], other["op"], other["key"]),
                        )
                    ),
                    w["target"],
                )
                if pair_id in reported:
                    continue
                reported.add(pair_id)
                self._emit(
                    "DYN203",
                    f"RMA race in epoch {epoch}: `{w['op']}` from rank "
                    f"{w['origin']} conflicts with `{other['op']}` from rank "
                    f"{other['origin']} on target rank {w['target']} key "
                    f"{w['key']} — separate them with a fence",
                    w["site"],
                    epoch=epoch,
                    target=w["target"],
                    ops=sorted({w["op"], other["op"]}),
                    origins=sorted({w["origin"], other["origin"]}),
                    keys=sorted({w["key"], other["key"]}),
                    other_site=f"{other['site'][0]}:{other['site'][1]}",
                )

    # --------------------------------------------------------- deadlock
    def on_deadlock(self, blocked: dict[int, str], reason: str) -> None:
        """Record the runtime's deadlock report (called on timeout abort)."""
        description = "; ".join(
            f"rank {r} waiting in {call}" for r, call in sorted(blocked.items())
        )
        self._emit(
            "DYN204",
            f"deadlock: {reason} — blocked: {description or 'no ranks registered'}",
            ("<runtime>", 0),
            blocked={str(r): c for r, c in blocked.items()},
        )

    def on_lease_stall(self, stalled: dict[str, str], reason: str) -> None:
        """Record a coordinator fleet stall (DYN205).

        The worker-lease generalization of :meth:`on_deadlock`:
        ``stalled`` maps each worker name to a description of the
        lease it holds (chain + subproblem keys); called by the
        engine coordinator when no completion, partial, join or leave
        arrives within its stall timeout, right before the run aborts.
        """
        description = "; ".join(
            f"worker {w} holding {lease}"
            for w, lease in sorted(stalled.items())
        )
        self._emit(
            "DYN205",
            f"worker-lease stall: {reason} — "
            f"{description or 'no workers registered'}",
            ("<coordinator>", 0),
            stalled=dict(sorted(stalled.items())),
        )


# ---------------------------------------------------------------------------
# DYN206: runtime lock-order observation
# ---------------------------------------------------------------------------
class LockOrderObserver:
    """Observe the order in which threads take instrumented locks.

    Every :func:`instrumented_lock`/:func:`instrumented_rlock`
    acquisition is pushed onto a per-thread stack.  Taking ``B`` while
    holding ``A`` records the edge ``A -> B``; the first time the
    reverse edge is also observed, from any thread, a ``DYN206``
    finding names both sites (once per unordered pair).  A lock held
    longer than ``stall_threshold`` seconds emits a ``DYN206`` stall
    finding (once per lock name; ``stall_exempt=True`` locks are
    skipped).  Reentrant re-acquisition and same-name pairs (two
    replicas of one class) make no edges.  Pure observation: a run
    with the observer attached is bitwise identical to one without.
    """

    def __init__(
        self,
        checker: DynamicChecker | None = None,
        *,
        stall_threshold: float = 5.0,
    ) -> None:
        self.checker = checker if checker is not None else DynamicChecker()
        self.stall_threshold = stall_threshold
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (holder name, acquired name) -> first site observed.
        self._edges: dict[tuple[str, str], tuple[str, int]] = {}
        self._reported_pairs: set[frozenset[str]] = set()
        self._reported_stalls: set[str] = set()

    # ------------------------------------------------------------ state
    def _state(self) -> dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"held": [], "depth": {}, "t0": {}}
        return state

    def findings(self) -> list[Finding]:
        return self.checker.findings_for("DYN206")

    # ------------------------------------------------------ transitions
    def on_acquired(self, lock: "_ObservedLock") -> None:
        state = self._state()
        depth = state["depth"].get(lock, 0)
        if depth == 0:
            for prior in state["held"]:
                if prior is lock or prior.name == lock.name:
                    continue
                self._note_edge(prior, lock)
            state["held"].append(lock)
            state["t0"][lock] = time.monotonic()
        state["depth"][lock] = depth + 1

    def on_release(self, lock: "_ObservedLock") -> None:
        state = self._state()
        depth = state["depth"].get(lock, 0)
        if depth > 1:
            state["depth"][lock] = depth - 1
            return
        self._drop(state, lock)

    def on_wait_release(self, lock: "_ObservedLock") -> int:
        """Condition.wait is about to fully release ``lock``; the hold
        ends here (wait time must not count toward the stall check)."""
        state = self._state()
        depth = state["depth"].get(lock, 0)
        self._drop(state, lock)
        return depth

    def on_wait_acquire(self, lock: "_ObservedLock", depth: int) -> None:
        """Condition.wait re-acquired ``lock`` at its saved depth."""
        state = self._state()
        state["held"].append(lock)
        state["t0"][lock] = time.monotonic()
        state["depth"][lock] = max(1, depth)

    def _drop(self, state: dict[str, Any], lock: "_ObservedLock") -> None:
        state["depth"].pop(lock, None)
        if lock in state["held"]:
            state["held"].remove(lock)
        t0 = state["t0"].pop(lock, None)
        if t0 is None or lock.stall_exempt:
            return
        held_for = time.monotonic() - t0
        if held_for < self.stall_threshold:
            return
        with self._lock:
            if lock.name in self._reported_stalls:
                return
            self._reported_stalls.add(lock.name)
        self.checker._emit(
            "DYN206",
            f"long-held lock: `{lock.name}` held for {held_for:.2f}s "
            f"(threshold {self.stall_threshold:.2f}s) — every thread "
            "contending for it stalled for the full hold",
            call_site(),
            lock=lock.name,
            held_for=round(held_for, 3),
            threshold=self.stall_threshold,
        )

    # ------------------------------------------------------------ edges
    def _note_edge(self, holder: "_ObservedLock", acquired: "_ObservedLock") -> None:
        site = call_site()
        edge = (holder.name, acquired.name)
        reverse_site: tuple[str, int] | None = None
        with self._lock:
            self._edges.setdefault(edge, site)
            reverse_site = self._edges.get((acquired.name, holder.name))
            if reverse_site is not None:
                pair = frozenset(edge)
                if pair in self._reported_pairs:
                    return
                self._reported_pairs.add(pair)
        if reverse_site is None:
            return
        self.checker._emit(
            "DYN206",
            f"lock-order inversion observed: acquired `{acquired.name}` "
            f"while holding `{holder.name}`, but the opposite order was "
            f"also taken at {reverse_site[0]}:{reverse_site[1]} — two "
            "threads interleaving these paths deadlock",
            site,
            edge=[holder.name, acquired.name],
            reverse_site=f"{reverse_site[0]}:{reverse_site[1]}",
        )


class _ObservedLock:
    """``threading.Lock`` wrapper reporting transitions to an observer.

    Deliberately does *not* expose ``_release_save``/``_acquire_restore``
    /``_is_owned``: a ``Condition`` built over this wrapper falls back
    to routing its wait-release/re-acquire through :meth:`release` and
    :meth:`acquire`, which keeps observation consistent.
    """

    _factory = staticmethod(threading.Lock)

    def __init__(
        self, observer: LockOrderObserver, name: str, stall_exempt: bool
    ) -> None:
        self._inner = self._factory()
        self._observer = observer
        self.name = name
        self.stall_exempt = stall_exempt

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._observer.on_acquired(self)
        return acquired

    def release(self) -> None:
        self._observer.on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_ObservedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} {self._inner!r}>"


class _ObservedRLock(_ObservedLock):
    """``threading.RLock`` wrapper that also implements the protocol
    ``Condition`` captures at construction (``_release_save`` /
    ``_acquire_restore`` / ``_is_owned``) — a plain passthrough would
    bypass observation during ``wait()`` and count the wait as hold
    time."""

    _factory = staticmethod(threading.RLock)

    def _release_save(self) -> tuple[Any, int]:
        inner_state = self._inner._release_save()  # type: ignore[attr-defined]
        return inner_state, self._observer.on_wait_release(self)

    def _acquire_restore(self, state: tuple[Any, int]) -> None:
        inner_state, depth = state
        self._inner._acquire_restore(inner_state)  # type: ignore[attr-defined]
        self._observer.on_wait_acquire(self, depth)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()  # type: ignore[attr-defined]


# Scope-local observer (tests, `repro check threads`) layered over an
# optional process-global one gated by REPRO_THREAD_CHECK (CI).
_ACTIVE_OBSERVER: LockOrderObserver | None = None
_ENV_OBSERVER: LockOrderObserver | None = None
_OBSERVER_GUARD = threading.Lock()


def current_lock_observer() -> LockOrderObserver | None:
    """The observer new instrumented locks should report to, if any."""
    if _ACTIVE_OBSERVER is not None:
        return _ACTIVE_OBSERVER
    if os.environ.get("REPRO_THREAD_CHECK", "") not in ("", "0"):
        global _ENV_OBSERVER
        with _OBSERVER_GUARD:
            if _ENV_OBSERVER is None:
                _ENV_OBSERVER = LockOrderObserver()
            return _ENV_OBSERVER
    return None


@contextmanager
def use_lock_observer(
    observer: LockOrderObserver,
) -> Iterator[LockOrderObserver]:
    """Make ``observer`` the target of instrumented locks created in
    this scope (locks snapshot the observer at construction, so only
    objects *built* inside the scope are observed)."""
    global _ACTIVE_OBSERVER
    previous = _ACTIVE_OBSERVER
    _ACTIVE_OBSERVER = observer
    try:
        yield observer
    finally:
        _ACTIVE_OBSERVER = previous


def _instrumented(
    wrapper: type[_ObservedLock],
    name: str,
    observer: LockOrderObserver | None,
    stall_exempt: bool,
) -> Any:
    target = observer if observer is not None else current_lock_observer()
    if target is None:
        return wrapper._factory()
    return wrapper(target, name, stall_exempt)


def instrumented_lock(
    name: str,
    *,
    observer: LockOrderObserver | None = None,
    stall_exempt: bool = False,
) -> Any:
    """A ``threading.Lock``, wrapped for observation when an observer
    is active (explicitly passed, scoped via :func:`use_lock_observer`,
    or the ``REPRO_THREAD_CHECK`` global) — a *plain* lock otherwise,
    so the disabled path costs nothing."""
    return _instrumented(_ObservedLock, name, observer, stall_exempt)


def instrumented_rlock(
    name: str,
    *,
    observer: LockOrderObserver | None = None,
    stall_exempt: bool = False,
) -> Any:
    """Reentrant variant of :func:`instrumented_lock`."""
    return _instrumented(_ObservedRLock, name, observer, stall_exempt)


def instrumented_condition(
    name: str, *, observer: LockOrderObserver | None = None
) -> threading.Condition:
    """A ``threading.Condition`` over an instrumented reentrant lock
    (or a plain one when no observer is active)."""
    return threading.Condition(instrumented_rlock(name, observer=observer))
