"""Aggregate every ``BENCH_*.json`` gate into one summary table.

Each benchmark in this directory writes a ``BENCH_<name>.json`` at the
repo root containing its measurements plus a ``gate`` object declaring
the threshold it must clear.  This script is the single CI entry point
that re-evaluates every gate from the artifacts alone (no re-timing):

    PYTHONPATH=src python benchmarks/run_all.py [-o BENCH_summary.json]

It walks each document for sections carrying a ``gate`` key (top-level
or nested, e.g. ``BENCH_stream.json``'s ``refit``), evaluates the gate
against its sibling measurements, prints a pass/fail table, optionally
writes the machine-readable summary, and exits non-zero if any gate
fails — so a regression in *any* benchmarked subsystem fails the build
even when only one benchmark was re-run.

Gate conventions (all existing BENCH files follow one of these):

* ``{"pass": bool}``           — the benchmark judged itself;
* ``{"min_<metric>": t}``      — a sibling scalar named ``<metric>``
  (exactly, or the unique scalar whose name contains it) must be
  ``>= t``;
* ``{"<metric>_max": t}``      — the scalar ``<metric>`` — found as a
  sibling or inside a sibling mapping — must be ``<= t``.

``config`` and ``seconds`` siblings are never gate targets: they hold
raw inputs and raw timings, and every gate is written against a
derived metric (speedup, overhead ratio, reduction).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sections(doc: Any, label: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(label, section)`` for every dict carrying a gate."""
    if not isinstance(doc, dict):
        return
    if isinstance(doc.get("gate"), dict):
        yield label, doc
    for key, value in doc.items():
        if key != "gate":
            yield from _sections(value, f"{label}.{key}")


#: Sibling namespaces holding raw inputs/timings — never gate targets.
_RAW_KEYS = ("gate", "config", "seconds")


def _find_scalar(section: dict[str, Any], metric: str) -> tuple[str, float] | None:
    """Locate the measured scalar a gate key refers to."""
    if _is_scalar(section.get(metric)):
        return metric, float(section[metric])
    named = [
        (key, float(value))
        for key, value in section.items()
        if key not in _RAW_KEYS and metric in key and _is_scalar(value)
    ]
    if len(named) == 1:
        return named[0]
    for key, value in section.items():
        if key in _RAW_KEYS or not isinstance(value, dict):
            continue
        if _is_scalar(value.get(metric)):
            return f"{key}.{metric}", float(value[metric])
    scalars = [
        (key, float(value))
        for key, value in section.items()
        if key not in _RAW_KEYS and _is_scalar(value)
    ]
    if len(scalars) == 1:
        return scalars[0]
    return None


def evaluate_gate(section: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per gate criterion: metric, measured, op, threshold, ok."""
    rows: list[dict[str, Any]] = []
    for key, threshold in section["gate"].items():
        if key == "pass":
            rows.append(
                {"metric": "pass", "measured": bool(threshold),
                 "op": "is", "threshold": True, "ok": bool(threshold)}
            )
            continue
        if key.startswith("min_"):
            metric, op = key[len("min_"):], ">="
        elif key.endswith("_max"):
            metric, op = key[: -len("_max")], "<="
        else:
            rows.append(
                {"metric": key, "measured": None, "op": "?",
                 "threshold": threshold, "ok": False,
                 "error": f"unrecognized gate key {key!r}"}
            )
            continue
        found = _find_scalar(section, metric)
        if found is None:
            rows.append(
                {"metric": metric, "measured": None, "op": op,
                 "threshold": threshold, "ok": False,
                 "error": f"no measured scalar for {metric!r}"}
            )
            continue
        name, measured = found
        ok = measured >= threshold if op == ">=" else measured <= threshold
        rows.append(
            {"metric": name, "measured": measured, "op": op,
             "threshold": threshold, "ok": ok}
        )
    return rows


def collect(root: Path) -> list[dict[str, Any]]:
    results: list[dict[str, Any]] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            results.append(
                {"file": path.name, "section": "-",
                 "rows": [{"metric": "-", "measured": None, "op": "?",
                           "threshold": None, "ok": False,
                           "error": f"unreadable: {exc}"}]}
            )
            continue
        sections = list(_sections(doc, path.stem.removeprefix("BENCH_")))
        if not sections:
            results.append(
                {"file": path.name, "section": "-",
                 "rows": [{"metric": "-", "measured": None, "op": "?",
                           "threshold": None, "ok": False,
                           "error": "no gate section"}]}
            )
            continue
        for label, section in sections:
            results.append(
                {"file": path.name, "section": label,
                 "rows": evaluate_gate(section)}
            )
    return results


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render(results: list[dict[str, Any]]) -> str:
    headers = ("benchmark", "metric", "measured", "gate", "status")
    table = []
    for entry in results:
        for row in entry["rows"]:
            gate = f"{row['op']} {_fmt(row['threshold'])}"
            status = "PASS" if row["ok"] else "FAIL"
            if row.get("error"):
                status = f"FAIL ({row['error']})"
            table.append(
                (entry["section"], row["metric"],
                 _fmt(row["measured"]), gate, status)
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="evaluate every BENCH_*.json gate"
    )
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="directory holding the BENCH_*.json artifacts",
    )
    parser.add_argument(
        "-o", "--out", type=Path, default=None, metavar="FILE",
        help="also write the summary as JSON (CI artifact)",
    )
    args = parser.parse_args(argv)
    results = collect(args.root)
    if not results:
        print(f"no BENCH_*.json artifacts under {args.root}", file=sys.stderr)
        return 2
    failed = sum(
        1 for entry in results for row in entry["rows"] if not row["ok"]
    )
    print(render(results))
    total = sum(len(entry["rows"]) for entry in results)
    print()
    print(f"gates: {total - failed}/{total} passed")
    if args.out is not None:
        summary = {
            "schema": 1,
            "gates_total": total,
            "gates_failed": failed,
            "results": results,
        }
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
