"""Trace export: Chrome trace-event JSON and JSONL run manifests.

Two durable artifacts per telemetry-enabled run:

* **Run manifest** (``manifest-<kind>.jsonl``) — one JSON object per
  line: a ``run`` header (plan kind, backend, config meta, git rev,
  schema version), one ``span`` record per recorded interval
  (including every per-subproblem span), ``counter`` / ``gauge``
  records, and a closing ``summary`` with the per-stage aggregates and
  the four-category breakdown.  This is the machine-readable record
  ``repro trace summary`` and ``repro trace diff`` consume.
* **Chrome trace** (``trace-<kind>.json``) — the `trace-event format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  consumed by ``chrome://tracing`` / Perfetto: complete (``ph: "X"``)
  events with microsecond timestamps, one row (``tid``) per
  rank/thread.

:func:`validate_chrome_trace` is the structural schema check CI runs
on every exported trace: phase keys present, timestamps finite,
non-negative and per-row monotone.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.telemetry.recorder import CATEGORIES, Recorder

if TYPE_CHECKING:
    from repro.telemetry.hook import TelemetryHook

__all__ = [
    "MANIFEST_SCHEMA",
    "git_revision",
    "chrome_trace",
    "validate_chrome_trace",
    "write_manifest",
    "read_manifest",
    "diff_manifests",
    "export_run",
]

#: Manifest schema version (bump on incompatible format changes).
MANIFEST_SCHEMA = 1

_S_TO_US = 1e6


def git_revision() -> str | None:
    """Current git commit hash, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------
def chrome_trace(
    recorder: Recorder,
    *,
    tid: int = 0,
    pid: int = 0,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Recorder spans as a Chrome trace-event document.

    Spans become complete (``ph: "X"``) events with microsecond
    ``ts``/``dur``; counters and gauges land in ``otherData`` so the
    document stays loadable by ``chrome://tracing`` and Perfetto.
    """
    events: list[dict[str, Any]] = []
    for s in sorted(recorder.spans, key=lambda s: (s.start, s.end)):
        events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": s.start * _S_TO_US,
                "dur": s.duration * _S_TO_US,
                "pid": pid,
                "tid": int(s.attrs.get("tid", tid)),
                "args": {k: v for k, v in s.attrs.items() if k != "tid"},
            }
        )
    other: dict[str, Any] = {
        "counters": recorder.counter_values(),
        "gauges": recorder.gauge_values(),
    }
    if meta:
        other["meta"] = meta
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


_KNOWN_PHASES = set("BEXIiCbensTtfPNODMmVvRc(),")


def validate_chrome_trace(doc: Any) -> list[str]:
    """Structural schema errors in a trace-event document (empty = valid).

    Checks the shape CI gates on: a ``traceEvents`` list (or a bare
    event list), per-event ``name``/``ph``/``ts`` keys, known phase
    keys, finite non-negative timestamps and durations, and per-
    ``(pid, tid)`` monotonically non-decreasing start times.
    """
    errors: list[str] = []
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level 'traceEvents' missing or not a list"]
    elif isinstance(doc, list):
        events = doc
    else:
        return [f"trace document must be a dict or list, got {type(doc).__name__}"]

    last_ts: dict[tuple[Any, Any], float] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: missing or unknown phase key {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing event name")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            errors.append(f"{where}: ts must be a finite number >= 0, got {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                errors.append(
                    f"{where}: complete event dur must be a finite number >= 0, "
                    f"got {dur!r}"
                )
        row = (ev.get("pid", 0), ev.get("tid", 0))
        if row in last_ts and ts < last_ts[row]:
            errors.append(
                f"{where}: ts {ts} goes backwards on row pid/tid {row} "
                f"(previous {last_ts[row]})"
            )
        last_ts[row] = max(last_ts.get(row, 0.0), float(ts))
    return errors


# ---------------------------------------------------------------------------
# JSONL run manifest
# ---------------------------------------------------------------------------
def _json_default(obj: Any) -> Any:
    """Serialize numpy scalars and other non-JSON leaves."""
    for attr in ("item",):  # numpy scalars / 0-d arrays
        if hasattr(obj, attr):
            return obj.item()
    return str(obj)


def write_manifest(
    hook: TelemetryHook, path: str | os.PathLike[str]
) -> str:
    """Write one run's JSONL manifest from a :class:`TelemetryHook`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "run",
        "schema": MANIFEST_SCHEMA,
        "kind": hook.plan_kind,
        "backend": hook.backend,
        "label": hook.label,
        "tid": hook.tid,
        "git_rev": git_revision(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": hook.plan_meta,
        "planned": hook.plan_counts,
    }
    rec = hook.recorder
    with open(path, "w", encoding="utf-8") as fh:

        def emit(obj: dict[str, Any]) -> None:
            fh.write(json.dumps(obj, default=_json_default) + "\n")

        emit(header)
        for s in rec.spans:
            emit(
                {
                    "type": "span",
                    "name": s.name,
                    "cat": s.category,
                    "start": s.start,
                    "end": s.end,
                    "attrs": s.attrs,
                }
            )
        for name, value in sorted(rec.counter_values().items()):
            emit({"type": "counter", "name": name, "value": value})
        for name, value in sorted(rec.gauge_values().items()):
            emit({"type": "gauge", "name": name, "value": value})
        emit({"type": "summary", **hook.summary()})
    return str(path)


def read_manifest(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Parse a JSONL manifest into ``{run, spans, counters, gauges, summary}``."""
    run: dict[str, Any] | None = None
    summary: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = []
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            kind = obj.get("type")
            if kind == "run":
                run = obj
            elif kind == "span":
                spans.append(obj)
            elif kind == "counter":
                counters[obj["name"]] = obj["value"]
            elif kind == "gauge":
                gauges[obj["name"]] = obj["value"]
            elif kind == "summary":
                summary = obj
    if run is None:
        raise ValueError(f"{path}: no 'run' header record")
    if run.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {run.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA})"
        )
    return {
        "run": run,
        "spans": spans,
        "counters": counters,
        "gauges": gauges,
        "summary": summary or {},
    }


def manifest_to_chrome(manifest: dict[str, Any]) -> dict[str, Any]:
    """Rebuild a Chrome trace document from a parsed manifest."""
    tid = int(manifest["run"].get("tid", 0) or 0)
    events: list[dict[str, Any]] = []
    for s in sorted(manifest["spans"], key=lambda s: (s["start"], s["end"])):
        events.append(
            {
                "name": s["name"],
                "cat": s["cat"],
                "ph": "X",
                "ts": s["start"] * _S_TO_US,
                "dur": (s["end"] - s["start"]) * _S_TO_US,
                "pid": 0,
                "tid": int(s.get("attrs", {}).get("tid", tid)),
                "args": s.get("attrs", {}),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": manifest["counters"],
            "gauges": manifest["gauges"],
            "meta": manifest["run"].get("meta", {}),
        },
    }


def diff_manifests(
    a: dict[str, Any],
    b: dict[str, Any],
    *,
    labels: tuple[str, str] = ("a", "b"),
) -> str:
    """Human-readable comparison of two parsed manifests.

    Compares the headline aggregates two runs are usually diffed for:
    subproblem counts and seconds per stage, the four-category
    breakdown, and every counter present in either run.
    """
    la, lb = labels
    lines = [
        f"run {la}: kind={a['run'].get('kind')} backend={a['run'].get('backend')} "
        f"git={str(a['run'].get('git_rev'))[:10]}",
        f"run {lb}: kind={b['run'].get('kind')} backend={b['run'].get('backend')} "
        f"git={str(b['run'].get('git_rev'))[:10]}",
        "",
    ]

    def rows(
        title: str,
        keys: Sequence[str],
        geta: Callable[[str], Any],
        getb: Callable[[str], Any],
        fmt: Callable[[Any], str],
    ) -> list[str]:
        out = [title]
        width = max((len(k) for k in keys), default=0)
        for k in keys:
            va, vb = geta(k), getb(k)
            delta = (
                ""
                if va is None or vb is None
                else f"  delta {vb - va:+.4g}"
            )
            out.append(
                f"  {k:<{width}}  {la}={fmt(va)}  {lb}={fmt(vb)}{delta}"
            )
        return out

    fmt = lambda v: "-" if v is None else f"{v:.4g}"

    sa, sb = a.get("summary", {}), b.get("summary", {})
    stages = sorted(
        set(sa.get("stages", {})) | set(sb.get("stages", {}))
    )
    for metric in ("subproblems", "recovered", "seconds"):
        lines += rows(
            f"stage {metric}",
            stages,
            lambda s, m=metric: sa.get("stages", {}).get(s, {}).get(m),
            lambda s, m=metric: sb.get("stages", {}).get(s, {}).get(m),
            fmt,
        )
    lines += rows(
        "breakdown (s)",
        list(CATEGORIES),
        lambda c: sa.get("breakdown", {}).get(c),
        lambda c: sb.get("breakdown", {}).get(c),
        fmt,
    )
    counters = sorted(set(a["counters"]) | set(b["counters"]))
    if counters:
        lines += rows(
            "counters",
            counters,
            lambda k: a["counters"].get(k),
            lambda k: b["counters"].get(k),
            fmt,
        )
    ta = sa.get("total_seconds")
    tb = sb.get("total_seconds")
    if ta is not None and tb is not None:
        lines += ["", f"total seconds  {la}={ta:.4g}  {lb}={tb:.4g}  delta {tb - ta:+.4g}"]
    return "\n".join(lines)


def export_run(
    hook: TelemetryHook, export_dir: str | os.PathLike[str]
) -> list[str]:
    """Write a hook's manifest + Chrome trace into ``export_dir``.

    Files are named by plan kind (``manifest-<kind>.jsonl``,
    ``trace-<kind>.json``); a later run of the same kind into the same
    directory overwrites — give each run its own directory to keep
    both.  Returns the written paths.
    """
    export_dir = Path(export_dir)
    export_dir.mkdir(parents=True, exist_ok=True)
    kind = hook.plan_kind or "run"
    manifest_path = export_dir / f"manifest-{kind}.jsonl"
    trace_path = export_dir / f"trace-{kind}.json"
    write_manifest(hook, manifest_path)
    doc = chrome_trace(
        hook.recorder, tid=hook.tid, meta={"kind": kind, "backend": hook.backend}
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return [str(manifest_path), str(trace_path)]
