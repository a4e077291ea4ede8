"""One pass of one workload, in its own process.

``run.py`` starts this file with the BLAS thread variables already set
(so they are in the environment before numpy is imported) and reads the
single JSON line it prints last.  Two modes:

``measure``  set-up, one untimed warm-up operation, then timed
             operations until ``--seconds`` have passed (at least
             ``--min-ops``), tracing off.
``trace``    set-up, warm-up, untraced operations for reference, one
             operation with spans and telemetry on, then the layer
             replays; writes ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))


def pin_to_one_cpu() -> int | None:
    """Keep this process on one core: one for the program, one for the box.

    With the rank threads of ``dist_var`` free to float over two cores
    the same operation is bimodal (0.7 s or 1.9 s); on one core it is
    not.  The highest-numbered allowed CPU is taken because CPU 0
    serves the VM's interrupts.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=3)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--outdir", required=True, help="where trace-<workload>.json goes")
    ap.add_argument("--scratch", required=True, help="directory for the workload's files")
    args = ap.parse_args()

    cpu = pin_to_one_cpu()
    sys.path[:0] = [HERE, os.path.join(HERE, "..", "..", "src")]
    from layers import NO_TRACE, Tracer
    from stats import Tally
    from workloads import WORKLOADS, same_arrays

    os.makedirs(args.scratch, exist_ok=True)
    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.mode == "trace" else NO_TRACE
    workload = cls(cls.make_inputs(args.seed, tracer), args.scratch)
    tally = Tally()
    doc: dict = {"workload": args.workload, "mode": args.mode, "cpu": cpu}
    # -- warm-up: the reference output every later operation must repeat
    warm = tally.run(workload.op, lambda r: r.ok, "warm-up")
    doc["setup_s"] = time.time() - args.spawned_at
    if warm is None:
        raise RuntimeError(tally.errors[-1])

    def repeats(result) -> bool:
        return result.ok and same_arrays(result.arrays, warm.arrays)

    if args.mode == "measure":
        doc.update(measure(workload, warm, tally, repeats, args))
    else:
        doc.update(trace(workload, warm, tally, repeats, args, tracer))
    doc["selection_f1"] = workload.f1(warm)
    doc["versions"] = library_versions()
    doc["attempted"], doc["failed"], doc["errors"] = tally.attempted, tally.failed, tally.errors
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


def measure(workload, warm, tally, repeats, args) -> dict:
    op_s, latencies = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(op_s) < args.min_ops:
        result = tally.run(workload.op, repeats, "timed op")
        if result is not None:
            op_s.append(result.seconds)
            if result.latencies is not None:
                latencies.append(result.latencies)
    # the expensive check, once, on the output all the others repeated
    tally.run(lambda: warm, workload.verify, "reference check")
    return {"op_s": op_s, "latencies": latencies}


def trace(workload, warm, tally, repeats, args, tracer) -> dict:
    import layers
    from stats import self_time_by_name, self_times

    # untraced and traced operations alternate, so that the overhead
    # compares best with best under the same weather; the spans and
    # counts reported are the last traced pass's
    plain, traced_s, traced = [], [], None
    for tr in (layers.Tracer(), tracer):
        result = tally.run(workload.op, repeats, "untraced op")
        traced = tally.run(partial(workload.traced, tr), lambda rv: repeats(rv[0]), "traced op")
        if result is None or traced is None:
            raise RuntimeError("; ".join(tally.errors))
        plain.append(result.seconds)
        traced_s.append(traced[0].seconds)
    result, metrics = traced
    untraced_s = min(plain)
    rates, sizes = layers.machine_rates()
    metrics.update(rates)
    metrics.update(workload.replays(rates, untraced_s))
    metrics["telemetry.overhead_frac"] = min(traced_s) / untraced_s - 1.0
    metrics["quality.selection_f1"] = workload.f1(result)

    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s["name"] == "op")
    own = self_times(spans)
    wall = spans[root]["end"] - spans[root]["start"]
    metrics["trace.attributed_frac"] = 1.0 - own[root] / wall
    path = os.path.join(args.outdir, f"trace-{args.workload}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "clock": "perf_counter"})
    return {
        "layers": metrics,
        "machine_sizes": sizes,
        "traced_wall_s": wall,
        "untraced_wall_s": untraced_s,
        "unattributed_s": own[root],
        "self_time_s": self_time_by_name(spans),
        "breakdown_s": result.breakdown,
        "trace_file": path,
        "n_spans": len(spans),
    }


if __name__ == "__main__":
    sys.exit(main())
