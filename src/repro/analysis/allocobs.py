"""DYN207: runtime allocation observer — the ALLOC6xx twin.

Where :mod:`repro.analysis.alloc` predicts ndarray churn from the AST,
this module *measures* it on a real engine run and attributes it to
each (stage, bootstrap, λ) subproblem, exactly the static↔runtime
pairing the DYN206 lock observer gives the LOCK5xx pass:

* an :class:`AllocationObserver` is enabled globally with
  ``REPRO_ALLOC_CHECK=1`` or per-scope with
  :func:`use_alloc_observer`; while installed it (a) runs
  ``tracemalloc`` so every interval gets *net* retained bytes and the
  *peak* above its entry point — numpy data buffers are tracked, and
  per-iteration temporaries that never survive an interval still show
  up in the peak — and (b) wraps the numpy constructor family
  (``zeros``/``empty``/``ones``/``full``/``eye``/``kron``/``*_like`` +
  ``ascontiguousarray``) so each fresh buffer is attributed to the
  calling ``file:line``;
* an :class:`AllocationHook` attached to
  :func:`repro.engine.run_plan` slices the observation into
  per-subproblem intervals using the same between-consecutive-events
  timing model as :class:`repro.telemetry.hook.TelemetryHook`
  (``on_stage_end`` rebases, so reduction allocations land in a
  ``stage:`` record, never in the next task's);
* :func:`cross_check` closes the loop: a constructor site that is hot
  at runtime (called every subproblem, ≥ 1 MiB total) in a statically
  scanned module but carries neither a static finding nor an
  ``ALLOC`` suppression is a *precision bug* in the static pass and
  becomes a ``DYN207`` finding; a static site that never allocated at
  runtime is reported back as a downgrade candidate.

The observer is pure observation: wrapped constructors delegate to
the originals and return their results unchanged, so observed fits
are bitwise identical to unobserved ones (asserted in
``tests/test_analysis_allocobs.py``).  When no observer is active
nothing is patched and :func:`maybe_alloc_hook` returns ``None`` —
the disabled path costs one environment lookup per run.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.engine.hooks import EngineHook

__all__ = [
    "AllocationObserver",
    "AllocationHook",
    "use_alloc_observer",
    "current_alloc_observer",
    "maybe_alloc_hook",
    "cross_check",
    "PATCHED_CONSTRUCTORS",
]

#: numpy module-level callables wrapped while an observer is installed.
PATCHED_CONSTRUCTORS: tuple[str, ...] = (
    "zeros",
    "empty",
    "ones",
    "full",
    "eye",
    "identity",
    "kron",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "ascontiguousarray",
)

_THIS_FILE = os.path.abspath(__file__)

#: cross_check thresholds: a runtime site is *hot* when it allocated
#: at least once per subproblem on average — with a floor so a
#: one-task battery cannot trip it — and moved at least this much.
HOT_MIN_CALLS_PER_TASK = 8
HOT_MIN_BYTES = 1 << 20


def _caller_site() -> tuple[str, int]:
    """(abspath, line) of the nearest frame outside this module and
    outside numpy internals."""
    frame = sys._getframe(2)
    while frame is not None:
        path = frame.f_code.co_filename
        if (
            os.path.abspath(path) != _THIS_FILE
            and f"{os.sep}numpy{os.sep}" not in path
        ):
            return os.path.abspath(path), frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


class _SiteStats:
    __slots__ = ("calls", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.nbytes = 0

    def as_dict(self) -> dict[str, int]:
        return {"calls": self.calls, "bytes": self.nbytes}


class AllocationObserver:
    """Measures ndarray allocation behaviour while installed.

    Thread-safety: constructor wrappers may fire from worker threads
    (elastic backend); site accounting takes a plain lock.  Interval
    slicing (:meth:`begin_interval`/:meth:`end_interval`) happens on
    the engine's dispatching thread only, same as every engine hook.
    """

    def __init__(self) -> None:
        #: closed interval records, in dispatch order.
        self.records: list[dict[str, Any]] = []
        #: cumulative (file, line) -> stats across the whole install.
        self.sites: dict[tuple[str, int], _SiteStats] = {}
        self._lock = threading.Lock()
        self._installed = 0
        self._originals: dict[str, Any] = {}
        self._started_tracemalloc = False
        self._interval_sites: dict[tuple[str, int], _SiteStats] = {}
        self._net0: int = 0
        self._open = False

    # -------------------------------------------------------- install
    def install(self) -> None:
        """Start tracemalloc and wrap the constructor family
        (idempotent, reference-counted)."""
        with self._lock:
            self._installed += 1
            if self._installed > 1:
                return
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            for name in PATCHED_CONSTRUCTORS:
                original = getattr(np, name)
                self._originals[name] = original
                setattr(np, name, self._wrap(name, original))

    def uninstall(self) -> None:
        with self._lock:
            if self._installed == 0:
                return
            self._installed -= 1
            if self._installed:
                return
            for name, original in self._originals.items():
                setattr(np, name, original)
            self._originals.clear()
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False

    def _wrap(self, name: str, original: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            nbytes = getattr(result, "nbytes", 0)
            site = _caller_site()
            with self._lock:
                for table in (self.sites, self._interval_sites):
                    stats = table.get(site)
                    if stats is None:
                        stats = table[site] = _SiteStats()
                    stats.calls += 1
                    stats.nbytes += int(nbytes)
            return result

        wrapper.__name__ = name
        wrapper.__wrapped__ = original
        return wrapper

    # ------------------------------------------------------ intervals
    def begin_interval(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._net0 = tracemalloc.get_traced_memory()[0]
        else:
            self._net0 = 0
        with self._lock:
            self._interval_sites = {}
        self._open = True

    def end_interval(self, label: str, **meta: Any) -> dict[str, Any]:
        """Close the open interval into a record and return it."""
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            net = cur - self._net0
            peak_above = max(0, peak - self._net0)
        else:
            net, peak_above = 0, 0
        with self._lock:
            sites = {
                f"{path}:{line}": stats.as_dict()
                for (path, line), stats in sorted(
                    self._interval_sites.items()
                )
            }
            self._interval_sites = {}
        record: dict[str, Any] = {
            "label": label,
            **meta,
            "net_bytes": int(net),
            "peak_bytes": int(peak_above),
            "constructor_calls": sum(s["calls"] for s in sites.values()),
            "constructor_bytes": sum(s["bytes"] for s in sites.values()),
            "sites": sites,
        }
        self.records.append(record)
        self._open = False
        return record

    # -------------------------------------------------------- queries
    def subproblem_records(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "subproblem"]

    def site_totals(self) -> dict[tuple[str, int], dict[str, int]]:
        """Cumulative per-site constructor stats for the install."""
        with self._lock:
            return {site: s.as_dict() for site, s in self.sites.items()}

    def export_jsonl(self, path: str) -> None:
        """One JSON record per interval plus a final ``sites`` summary
        (the CI allocation-profile artifact)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write(
                json.dumps(
                    {
                        "label": "sites",
                        "sites": {
                            f"{p}:{ln}": s.as_dict()
                            for (p, ln), s in sorted(self.sites.items())
                        },
                    },
                    sort_keys=True,
                )
                + "\n"
            )


class AllocationHook(EngineHook):
    """Slices an :class:`AllocationObserver` into per-subproblem
    intervals (timing model documented in
    :mod:`repro.telemetry.hook`: between consecutive engine events on
    the dispatching thread; ``on_stage_end`` claims the reduction's
    allocations for a ``stage:`` record so they never bleed into the
    next task)."""

    def __init__(self, observer: AllocationObserver) -> None:
        self.observer = observer

    def on_run_start(self, plan: Any, executor: Any) -> None:
        self.observer.install()
        self.observer.begin_interval()

    def on_subproblem_done(
        self, task: Any, payload: Any, *, recovered: bool
    ) -> None:
        self.observer.end_interval(
            f"subproblem:{task.key}",
            type="subproblem",
            stage=task.stage,
            bootstrap=task.bootstrap,
            lam_index=task.lam_index,
            key=task.key,
            recovered=bool(recovered),
        )
        self.observer.begin_interval()

    def on_stage_end(self, stage: str, plan: Any) -> None:
        self.observer.end_interval(f"stage:{stage}", type="stage", stage=stage)
        self.observer.begin_interval()

    def on_run_end(self, plan: Any) -> None:
        self.observer.end_interval("run-tail", type="run-tail")
        self.observer.uninstall()


# ---------------------------------------------------------------------------
# enablement (same pattern as the DYN206 lock observer)
# ---------------------------------------------------------------------------
_ACTIVE_OBSERVER: AllocationObserver | None = None
_ENV_OBSERVER: AllocationObserver | None = None
_OBSERVER_GUARD = threading.Lock()


def current_alloc_observer() -> AllocationObserver | None:
    """Scope-local observer, else the ``REPRO_ALLOC_CHECK=1``
    process singleton, else ``None``."""
    global _ENV_OBSERVER
    if _ACTIVE_OBSERVER is not None:
        return _ACTIVE_OBSERVER
    if os.environ.get("REPRO_ALLOC_CHECK", "") not in ("", "0"):
        with _OBSERVER_GUARD:
            if _ENV_OBSERVER is None:
                _ENV_OBSERVER = AllocationObserver()
            return _ENV_OBSERVER
    return None


@contextmanager
def use_alloc_observer(
    observer: AllocationObserver,
) -> Iterator[AllocationObserver]:
    """Make ``observer`` current for the dynamic scope."""
    global _ACTIVE_OBSERVER
    previous = _ACTIVE_OBSERVER
    _ACTIVE_OBSERVER = observer
    try:
        yield observer
    finally:
        _ACTIVE_OBSERVER = previous


def maybe_alloc_hook() -> AllocationHook | None:
    """An :class:`AllocationHook` for the current observer, or
    ``None`` when allocation checking is disabled (the common case —
    callers splice the result into ``run_plan(..., hooks=...)`` and
    pay nothing)."""
    observer = current_alloc_observer()
    return AllocationHook(observer) if observer is not None else None


# ---------------------------------------------------------------------------
# static ↔ runtime cross-check
# ---------------------------------------------------------------------------
def cross_check(
    static_sites: set[tuple[str, int]],
    observer: AllocationObserver,
    scanned_files: set[str],
) -> tuple[list[Finding], list[tuple[str, int]]]:
    """Reconcile the static pass against a runtime observation.

    Parameters
    ----------
    static_sites:
        ``(abspath, line)`` of every static ALLOC finding *or*
        ``ALLOC`` suppression directive
        (:func:`repro.analysis.alloc.static_alloc_sites`) — a
        suppressed site is a *known* site.
    observer:
        A finished observation (records closed, site totals final).
    scanned_files:
        Absolute paths the static pass actually scanned; runtime
        sites elsewhere (tests, fixtures, numpy) are out of scope.

    Returns
    -------
    ``(findings, downgrades)``: DYN207 findings for runtime-hot
    constructor sites the static pass missed, and the static sites
    that never allocated at runtime (downgrade candidates — evidence
    for relaxing or suppressing the static finding, not a failure).
    """
    tasks = max(1, len(observer.subproblem_records()))
    threshold_calls = HOT_MIN_CALLS_PER_TASK * tasks
    findings: list[Finding] = []
    observed: set[tuple[str, int]] = set()
    rule = get_rule("DYN207")
    for (path, line), stats in sorted(observer.site_totals().items()):
        observed.add((path, line))
        if path not in scanned_files:
            continue
        if (path, line) in static_sites:
            continue
        if stats["calls"] < threshold_calls or stats["bytes"] < HOT_MIN_BYTES:
            continue
        findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                message=(
                    "runtime allocation hotspot with no static ALLOC "
                    f"finding or suppression: {stats['calls']} constructor "
                    f"calls / {stats['bytes']} bytes across {tasks} "
                    "subproblems — the static pass missed this site"
                ),
                file=path,
                line=line,
                source="dynamic",
                context={
                    "calls": stats["calls"],
                    "bytes": stats["bytes"],
                    "subproblems": tasks,
                },
            )
        )
    downgrades = sorted(
        site
        for site in static_sites
        if site not in observed and site[0] in scanned_files
    )
    return findings, downgrades
