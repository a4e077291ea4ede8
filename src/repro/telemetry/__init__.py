"""repro.telemetry — wall-clock spans, counters, and trace export.

Real-time observability for every UoI run: the :class:`Recorder`
primitives collect category-attributed wall-clock spans, the
:class:`TelemetryHook` times every (stage, bootstrap, λ) subproblem
through the engine's hook protocol, and :mod:`repro.telemetry.export`
turns a run into a JSONL manifest plus Chrome trace-event JSON.

Enable per-call (``UoILasso(...).fit(X, y, telemetry=True)``) or
process-wide via the ``REPRO_TELEMETRY`` environment variable (see
:func:`resolve_telemetry`).

Import structure: only :mod:`repro.telemetry.recorder` (dependency-
free) is imported eagerly, because the solver and I/O layers import it
at module scope — :mod:`repro.telemetry.hook` pulls in the engine,
which pulls in those same layers, so the hook/export names below are
resolved lazily (PEP 562) to keep the package cycle-free.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.telemetry.recorder import (
    CATEGORIES,
    COMMUNICATION,
    COMPUTATION,
    DATA_IO,
    DISTRIBUTION,
    Counter,
    Gauge,
    Recorder,
    Span,
    count,
    current_recorder,
    export_snapshot,
    gauge,
    merge_snapshot,
    span,
    use_recorder,
)

if TYPE_CHECKING:
    from repro.telemetry.hook import TelemetryHook as _TelemetryHook

__all__ = [
    "CATEGORIES",
    "COMPUTATION",
    "COMMUNICATION",
    "DISTRIBUTION",
    "DATA_IO",
    "Span",
    "Counter",
    "Gauge",
    "Recorder",
    "current_recorder",
    "use_recorder",
    "span",
    "count",
    "gauge",
    "export_snapshot",
    "merge_snapshot",
    "TelemetryHook",
    "StageStats",
    "chrome_trace",
    "validate_chrome_trace",
    "write_manifest",
    "read_manifest",
    "manifest_to_chrome",
    "diff_manifests",
    "export_run",
    "git_revision",
    "TELEMETRY_ENV",
    "resolve_telemetry",
]

_LAZY = {
    "TelemetryHook": "repro.telemetry.hook",
    "StageStats": "repro.telemetry.hook",
    "chrome_trace": "repro.telemetry.export",
    "validate_chrome_trace": "repro.telemetry.export",
    "write_manifest": "repro.telemetry.export",
    "read_manifest": "repro.telemetry.export",
    "manifest_to_chrome": "repro.telemetry.export",
    "diff_manifests": "repro.telemetry.export",
    "export_run": "repro.telemetry.export",
    "git_revision": "repro.telemetry.export",
}


def __getattr__(name: str) -> Any:
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module 'repro.telemetry' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(modname), name)
    globals()[name] = value
    return value


#: Environment variable consulted when ``telemetry=None`` is passed to a
#: driver.  Unset / ``""`` / ``"0"`` / ``"off"`` / ``"false"`` → disabled;
#: ``"1"`` / ``"on"`` / ``"true"`` → in-memory recording; any other value
#: → treated as an export directory path.
TELEMETRY_ENV = "REPRO_TELEMETRY"

_OFF = {"", "0", "off", "false", "no", "none"}
_ON = {"1", "on", "true", "yes"}


def resolve_telemetry(
    telemetry: Any = None, *, tid: int = 0, label: str | None = None
) -> _TelemetryHook | None:
    """Normalize a driver's ``telemetry=`` argument to a hook or ``None``.

    Accepted values:

    * ``None`` — consult :data:`TELEMETRY_ENV` (the default for every
      driver, so ``REPRO_TELEMETRY=1 repro run ...`` instruments any
      entry point without code changes);
    * ``False`` — disabled, regardless of the environment;
    * ``True`` — in-memory :class:`TelemetryHook` (no files written);
    * a ``str`` / ``os.PathLike`` — hook that exports its manifest and
      Chrome trace into that directory at ``on_run_end``;
    * a :class:`Recorder` — hook wrapping that recorder (share one
      recorder across several fits);
    * a :class:`TelemetryHook` — used as-is (``tid``/``label`` ignored).

    Returns the hook to append to the run's ``HookList``, or ``None``
    when telemetry is disabled.
    """
    if telemetry is None:
        env = os.environ.get(TELEMETRY_ENV, "").strip().lower()
        if env in _OFF:
            return None
        from repro.telemetry.hook import TelemetryHook

        if env in _ON:
            return TelemetryHook(tid=tid, label=label)
        return TelemetryHook(
            export_dir=os.environ[TELEMETRY_ENV], tid=tid, label=label
        )
    if telemetry is False:
        return None
    from repro.telemetry.hook import TelemetryHook

    if telemetry is True:
        return TelemetryHook(tid=tid, label=label)
    if isinstance(telemetry, TelemetryHook):
        return telemetry
    if isinstance(telemetry, Recorder):
        return TelemetryHook(telemetry, tid=tid, label=label)
    if isinstance(telemetry, (str, os.PathLike)):
        return TelemetryHook(export_dir=telemetry, tid=tid, label=label)
    raise TypeError(
        "telemetry must be None, bool, a path, a Recorder, or a "
        f"TelemetryHook; got {type(telemetry).__name__}"
    )
