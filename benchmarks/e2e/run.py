#!/usr/bin/env python3
"""End-to-end benchmark runner: ``python3 benchmarks/e2e/run.py``.

One *round* of a workload is three child processes (``child.py``), each
of which sets up, warms up and then times operations for a third of
``--seconds``, so that ``setup_s`` is a median of three.  With several
workloads the rounds go round-robin
(A B C ... A B C ...), and every metric is reported as the median over
rounds next to its spread.

The benchmark contract's driver calls this file once per round::

    run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last line of standard output, one JSON object.  With no
``--workload`` every workload of ``BENCHMARK.json`` runs; see
``README.md`` for ``--check-repeat``, ``--out`` and ``--append``.

Metric names, units, bounds and the list of workloads are read from
``BENCHMARK.json`` at the root of the checkout: that file is the
registry, this program fills it in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from stats import percentile, quartile_spread, slot_minima, tail_percentile  # noqa: E402

#: One thread for BLAS: the box has two cores, one for the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Processes that share one round's timed window (and give its set-up samples).
CHILDREN = 3
#: A child that has not answered after this long is killed and counted failed.
CHILD_TIMEOUT_S = 170.0


def load_registry() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------
def refuse_repro_switches() -> None:
    """The library reads ``REPRO_*`` variables at a distance (backend,
    telemetry, plan verification, ...); any of them changes what is
    measured, so none may be set."""
    found = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if found:
        sys.exit(f"refusing to run with {', '.join(found)} set: unset them first")


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": 1,
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, min_ops: int, mode: str) -> dict:
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")  # the child's store directories
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--min-ops", str(min_ops), "--mode", mode,
        "--spawned-at", repr(time.time()), "--outdir", OUT, "--scratch", scratch,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{workload}/{mode} child timed out after {CHILD_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{workload}/{mode} child exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def one_round(workload: str, seed: int, seconds: float, min_ops: int) -> dict:
    """Untraced round: the five end-to-end numbers plus F1 and failures.

    The timed window is split over :data:`CHILDREN` processes, each with
    its own set-up and warm-up.  That gives three ``setup_s`` samples at
    no extra cost and spreads the operations over twice the wall-clock
    span, which matters on a box whose slow phases last seconds.
    """
    docs = []
    for _ in range(CHILDREN):
        doc = run_child(workload, seed, seconds / CHILDREN, -(-min_ops // CHILDREN), "measure")
        if "error" in doc:
            return doc
        docs.append(doc)
    ops = [t for d in docs for t in d["op_s"]]
    # The host takes CPU from this VM in bursts that only add time, so
    # the fastest repetition is the least-disturbed one (README, "noise").
    wall = min(ops)
    per_op = [row for d in docs for row in d["latencies"]]
    if per_op:
        lat = slot_minima(per_op)
        raw = len(lat) * len(per_op)
        tail_q = tail_percentile(raw)
        p50, tail = percentile(lat, 50), percentile(lat, tail_q)
    else:
        # one request per operation: its latency is the operation's wall
        lat, raw, tail_q, p50, tail = ops, len(ops), 50.0, wall, wall
    return {
        "metrics": {
            "wall_s": wall,
            "latency_p50_s": p50,
            "latency_p90_s": tail,
            "setup_s": statistics.median(d["setup_s"] for d in docs),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        },
        "selection_f1": docs[0]["selection_f1"],
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "errors": [e for d in docs for e in d["errors"]],
        "samples": {
            "ops": len(ops),
            "op_median_s": statistics.median(ops),
            "op_max_s": max(ops),
            "latency_requests": len(lat),
            "latency_raw": raw,
            "tail_percentile": tail_q,
            "setups": len(docs),
        },
        "versions": docs[0]["versions"],
    }


def traced_round(workload: str, seed: int, seconds: float, layer_names: list[str]) -> dict:
    doc = run_child(workload, seed, seconds, 1, "trace")
    if "error" in doc:
        return doc
    # a layer that is not on this workload's path did no work: 0
    doc["metrics"] = {name: float(doc["layers"].get(name, 0.0)) for name in layer_names}
    unknown = sorted(set(doc["layers"]) - set(layer_names))
    if unknown:
        return {"error": f"{workload}: metrics missing from BENCHMARK.json: {unknown}"}
    return doc


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
def run_protocol(args, registry: dict, names: list[str]) -> dict:
    """``rounds`` passes, round-robin over the workloads."""
    units = {m["name"]: m["unit"] for m in registry["end_to_end"] + registry["per_layer"]}
    layer_names = [m["name"] for m in registry["per_layer"]]
    rounds: dict[str, list[dict]] = {w: [] for w in names}
    for r in range(args.rounds):
        for w in names:
            if args.trace:
                doc = traced_round(w, args.seed, args.seconds, layer_names)
            else:
                doc = one_round(w, args.seed, args.seconds, args.ops)
            if "error" in doc:
                sys.exit(doc["error"])
            rounds[w].append(doc)
            if args.verbose:
                print(f"  round {r + 1}/{args.rounds} {w}: done", file=sys.stderr)
    return {
        "fingerprint": fingerprint(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "units": units,
        "workloads": {w: summarize(rounds[w]) for w in names},
    }


def summarize(docs: list[dict]) -> dict:
    metrics = {
        name: summary_of([d["metrics"][name] for d in docs]) for name in docs[0]["metrics"]
    }
    out = {
        "metrics": metrics,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "errors": [e for d in docs for e in d["errors"]],
        "rounds": len(docs),
        "versions": docs[-1]["versions"],
    }
    if "samples" in docs[0]:
        out["selection_f1"] = docs[-1]["selection_f1"]
        out["samples"] = {k: [d["samples"][k] for d in docs] for k in docs[0]["samples"]}
    else:
        last = docs[-1]
        for key in ("self_time_s", "breakdown_s", "traced_wall_s", "unattributed_s",
                    "machine_sizes", "trace_file", "n_spans"):
            out[key] = last[key]
    out["failed_frac"] = out["failed"] / out["attempted"]
    return out


def summary_of(values: list[float]) -> dict:
    doc = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        doc["spread"] = quartile_spread(values)
    return doc


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def print_report(doc: dict) -> None:
    fp = doc["fingerprint"]
    print(
        f"# e2e benchmark  rev {fp['git_rev']}  seed {fp['seed']}  "
        f"{fp['nproc']} x {fp['cpu_model']}  BLAS threads {fp['blas_threads']}"
    )
    units = doc["units"]
    for name, w in doc["workloads"].items():
        v = w["versions"]
        print(f"\n## {name}   (python {v['python']}, numpy {v['numpy']}, "
              f"scipy {v['scipy']}, {v['blas']})")
        if doc["trace"]:
            print_traced(name, w, units)
            continue
        s = w["samples"]
        for metric, m in w["metrics"].items():
            n = {
                "setup_s": f"{sum(s['setups'])} set-ups",
                "latency_p50_s": f"{sum(s['latency_raw'])} samples",
                "latency_p90_s": f"{sum(s['latency_raw'])} samples, "
                                 f"p{s['tail_percentile'][-1]:g}",
                "peak_rss_mb": f"{sum(s['setups'])} children",
            }.get(metric, f"{sum(s['ops'])} ops")
            spread = f"  spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"{metric:<16}{m['median']:>12.4f} {units[metric]:<4}{spread}  [{n}]")
        print(f"{'selection_f1':<16}{w['selection_f1']:>12.4f} 0-1")
        print(f"{'failed_frac':<16}{w['failed_frac']:>12.4f} ratio"
              f"  [{w['failed']} of {w['attempted']} operations]")
        print(f"  op median {statistics.median(s['op_median_s']):.4f} s, "
              f"slowest {max(s['op_max_s']):.4f} s")
        for e in w["errors"]:
            print(f"  ! {e}")


def print_traced(name: str, w: dict, units: dict) -> None:
    sizes = w["machine_sizes"]
    print(f"machine.* streamed a {sizes['buffer_bytes'] / 2**20:.0f} MiB buffer; "
          f"last-level cache {sizes['llc_bytes'] / 2**20:.0f} MiB")
    for metric, m in w["metrics"].items():
        print(f"{metric:<40}{m['median']:>16.6g} {units[metric]}")
    wall = w["traced_wall_s"]
    print(f"\ntraced operation {wall:.4f} s; unattributed {w['unattributed_s']:.4f} s "
          f"({w['unattributed_s'] / wall:.1%}); {w['n_spans']} spans -> {w['trace_file']}")
    print(f"{'self time by span':<36}{'s':>10}   | {'four-category split':<18}{'s':>10}")
    left = sorted(w["self_time_s"].items(), key=lambda kv: -kv[1])
    right = list(w["breakdown_s"].items())
    for i in range(max(len(left), len(right))):
        a = f"{left[i][0]:<36}{left[i][1]:>10.4f}" if i < len(left) else " " * 46
        b = f"{right[i][0]:<18}{right[i][1]:>10.4f}" if i < len(right) else ""
        print(f"{a}   | {b}")
    for e in w["errors"]:
        print(f"  ! {e}")


def contract_line(doc: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    (w,) = doc["workloads"].values()
    return json.dumps({
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {
            name: {"value": m["median"], "unit": doc["units"][name]}
            for name, m in w["metrics"].items()
        },
    })


def compare_repeats(first: dict, second: dict, registry: dict) -> int:
    """Both medians, their relative difference and the bound; count of
    pairs that disagree by more than their bound."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in registry["end_to_end"]}
    bad = 0
    print(f"\n{'workload':<16}{'metric':<16}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for name, w in first["workloads"].items():
        for metric, (bound, better) in bounds.items():
            a = w["metrics"][metric]["median"]
            b = second["workloads"][name]["metrics"][metric]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "" if abs(worse) <= bound else "  DISAGREE"
            bad += bool(flag)
            print(f"{name:<16}{metric:<16}{a:>12.4f}{b:>12.4f}{worse:>+9.3f}{bound:>8.2f}{flag}")
    return bad


def parse(argv: list[str] | None, registry: dict) -> tuple[argparse.Namespace, list[str]]:
    """Arguments, and the workloads they select, in first-named order."""
    known = [w["name"] for w in registry["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=known,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(registry["run_seconds"]),
                    help="timed window of one round")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: one traced pass per workload, per-layer metrics")
    ap.add_argument("--rounds", type=int, default=None,
                    help="passes per workload (default 1 for one workload, else 3)")
    ap.add_argument("--ops", type=int, default=6, help="fewest timed operations per round")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run the protocol twice and compare the medians with the bounds")
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--append", help="append one JSON line, keyed by git rev, here")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    names = list(dict.fromkeys(args.workload or known))
    if args.rounds is None:
        args.rounds = 1 if len(names) == 1 or args.trace else 3
    return args, names


def main() -> int:
    registry = load_registry()
    args, names = parse(None, registry)
    refuse_repro_switches()
    os.makedirs(OUT, exist_ok=True)

    doc = run_protocol(args, registry, names)
    print_report(doc)
    status = 0
    if args.check_repeat:
        second = run_protocol(args, registry, names)
        doc["repeat"] = second
        if compare_repeats(doc, second, registry):
            status = 3
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    if args.append:
        with open(args.append, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"git_rev": doc["fingerprint"]["git_rev"], **doc}) + "\n")
    if len(names) == 1:
        print(contract_line(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
