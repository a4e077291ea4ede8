"""Command-line interface: ``python -m repro ...``.

Subcommands
-----------
``list``
    Show every experiment driver with its paper artifact.
``run <name>|all [--full] [--checkpoint-dir D] [--resume]``
    Run one experiment driver (or all of them) and print the rendered
    paper-style report.  ``--full`` uses the paper's full
    configurations where the driver distinguishes (slower).
    ``--checkpoint-dir`` / ``--resume`` are forwarded to drivers that
    support checkpoint/restart (currently ``resilience``): the first
    persists the checkpoint store, the second fast-forwards through
    recovered subproblems instead of recomputing them.
``faults [--nranks N] [--crash-rank R] [--at-frac F] [--cadence C]``
    Fault-injection demo: run the resilience driver, kill one rank at
    a fraction of the clean run's modeled time, restart from
    checkpoint, and report recovered-vs-lost virtual time.
``machine [name]``
    Print a machine-model calibration sheet (default: cori-knl).
``engine [--kind K] [--n N] [--p P] [--machine M] [--backend B]``
    Execution-engine dry run: list the pluggable backends, then
    enumerate the subproblem plan a fit of the given shape would run —
    warm-start chain counts, per-chain subproblem counts
    (run-length encoded as ``<chains>x<subproblems each>``),
    checkpoint-key patterns, and the estimated floating-point cost
    (with modeled seconds on the chosen machine) — without solving
    anything.  ``--backend B`` additionally solves a small fit on that
    backend and verifies the coefficients are bitwise identical to the
    serial reference (``elastic`` accepted).
``workers join|inspect --host H --port P ...``
    Elastic-backend worker processes: ``join`` connects a worker to a
    running :class:`~repro.engine.elastic.WorkerHub` and serves
    warm-start chains until the hub closes (``--delay`` /
    ``--crash-at`` / ``--crash-after`` are the fault-injection knobs
    the tests and the straggler benchmark use); ``inspect`` prints a
    hub's live status (workers, current stage) as JSON.
``serve [--demo N] [--workers W] [--max-batch B] [--no-batch] ...``
    Run the multi-tenant UoI fitting service: a line-JSON socket
    server multiplexing LASSO/VAR jobs over a bounded worker pool,
    with optional replicated results store (``--store DIR``) and
    telemetry manifest export (``--telemetry-dir DIR``).  ``--demo N``
    instead boots an ephemeral server, drives N concurrent mixed jobs
    through socket clients, and verifies every result is bitwise
    identical to a direct fit (the CI acceptance mode).
``check [lint|shapes|determinism|plan|threads|alloc|static|dynamic|all] ...``
    Correctness gate: the six static passes (SPMD lint, symbolic
    shape/memory interpretation, determinism taint, plan
    verification, lock-order/shared-state analysis, allocation/copy
    analysis) plus the dynamic (collective-matching / RMA-race /
    deadlock / lock-observation / allocation-observation) checker
    battery.  Exits 0 iff there are zero findings;
    ``--format human|json|sarif`` selects the stdout rendering, ``-o``
    additionally writes findings JSON (the CI artifact),
    ``--sarif-out`` writes SARIF 2.1.0 for GitHub code scanning, and
    ``--profile-out`` writes the DYN207 allocation profile as JSONL.
``stream run|replay|diff ...``
    Online Granger networks: ``run`` drives a rolling warm-started
    UoI_VAR fit over a live tick source (synthetic spike rates, the
    finance-panel replay, or a line-JSON socket feed), printing one
    line per fitted window and recording JSONL change events with
    ``--events``; ``replay`` renders a recorded event log as a
    per-window table; ``diff`` compares the Granger networks of any
    two recorded windows offline.
``trace record|summary|chrome|diff|validate ...``
    Telemetry tooling: ``record`` runs small telemetry-enabled fits
    and exports their manifests + Chrome traces; ``summary`` renders a
    manifest as the paper-style four-category breakdown table;
    ``chrome`` converts a manifest to Chrome trace-event JSON for
    chrome://tracing / Perfetto; ``diff`` compares two manifests;
    ``validate`` schema-checks an exported Chrome trace (used in CI).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import sys
from typing import Any, Sequence

from repro.simmpi.machine import CORI_KNL, LAPTOP

__all__ = ["main", "EXPERIMENTS"]

#: Driver name -> short description (order = run order for ``all``).
EXPERIMENTS = {
    "table1": "Table I — performance-analysis setup",
    "table2": "Table II — randomized vs conventional distribution",
    "fig2": "Fig. 2 — UoI_LASSO single-node breakdown",
    "fig3": "Fig. 3 — UoI_LASSO P_B x P_lambda parallelism",
    "fig4": "Fig. 4 — UoI_LASSO weak scaling",
    "fig5": "Fig. 5 — Allreduce T_min/T_max variability",
    "fig6": "Fig. 6 — UoI_LASSO strong scaling",
    "fig7": "Fig. 7 — UoI_VAR single-node breakdown",
    "fig8": "Fig. 8 — UoI_VAR algorithmic parallelism",
    "fig9": "Fig. 9 — UoI_VAR weak scaling",
    "fig10": "Fig. 10 — UoI_VAR strong scaling",
    "fig11": "Fig. 11 — S&P-50 Granger causal graph",
    "realdata": "§VI — real-data runtime analyses",
    "statcompare": "UoI vs LASSO/CV/MCP/SCAD/Ridge quality",
    "resilience": "fault injection + checkpoint/restart recovery",
    "engine": "cross-backend bitwise-equivalence demo",
}

_MACHINES = {"cori-knl": CORI_KNL, "laptop": LAPTOP}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IPDPS 2020 UoI scaling paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment drivers")

    run = sub.add_parser("run", help="run experiment driver(s)")
    run.add_argument(
        "name",
        choices=list(EXPERIMENTS) + ["all"],
        help="paper artifact to regenerate, or 'all'",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full configuration where applicable (slower)",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist checkpoints here (drivers that support restart)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir instead of starting fresh",
    )

    faults = sub.add_parser(
        "faults", help="fault-injection + checkpoint/restart demo"
    )
    faults.add_argument(
        "--nranks", type=int, default=4, help="simulated world size"
    )
    faults.add_argument(
        "--crash-rank", type=int, default=1, help="rank killed by the fault plan"
    )
    faults.add_argument(
        "--at-frac",
        type=float,
        default=0.5,
        help="kill time as a fraction of the clean run's modeled time",
    )
    faults.add_argument(
        "--cadence",
        type=int,
        default=1,
        help="checkpoint every N completed subproblems (0 disables writes)",
    )
    faults.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist the checkpoint store (temporary otherwise)",
    )

    mach = sub.add_parser("machine", help="print a machine-model calibration sheet")
    mach.add_argument(
        "name", nargs="?", default="cori-knl", choices=sorted(_MACHINES)
    )

    eng = sub.add_parser(
        "engine", help="list execution backends and dry-run a subproblem plan"
    )
    eng.add_argument(
        "--kind",
        choices=["lasso", "var", "both"],
        default="both",
        help="which plan(s) to enumerate",
    )
    eng.add_argument(
        "--n", type=int, default=128, help="synthetic sample count (rows)"
    )
    eng.add_argument(
        "--p", type=int, default=16, help="synthetic feature / series count"
    )
    eng.add_argument(
        "--machine",
        default="cori-knl",
        choices=sorted(_MACHINES),
        help="machine model used to convert FLOPs to modeled seconds",
    )
    eng.add_argument(
        "--backend",
        default=None,
        metavar="B",
        help="also solve a small fit on this backend and verify bitwise "
        "identity against the serial reference",
    )
    eng.add_argument(
        "--elastic-workers",
        type=int,
        default=2,
        help="fleet size when --backend elastic (default 2)",
    )

    workers = sub.add_parser(
        "workers", help="elastic-backend worker processes"
    )
    wsub = workers.add_subparsers(dest="workers_command", required=True)
    wjoin = wsub.add_parser(
        "join", help="connect a worker to a running hub and serve chains"
    )
    wjoin.add_argument("--host", required=True, help="hub address")
    wjoin.add_argument("--port", type=int, required=True, help="hub port")
    wjoin.add_argument(
        "--name", default=None, help="requested worker name (hub may uniquify)"
    )
    wjoin.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="straggler injection: sleep this many seconds before each chain",
    )
    wjoin.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="K",
        help="fault injection: die on receiving the K-th run frame",
    )
    wjoin.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="K",
        help="fault injection: die after streaming the K-th chain's "
        "subproblems but before reporting it done",
    )
    winspect = wsub.add_parser("inspect", help="print a hub's status as JSON")
    winspect.add_argument("--host", required=True, help="hub address")
    winspect.add_argument("--port", type=int, required=True, help="hub port")

    serve = sub.add_parser(
        "serve", help="run the multi-tenant UoI fitting service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="scheduler worker threads"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=4,
        help="max compatible jobs multiplexed into one shared engine run",
    )
    serve.add_argument(
        "--no-batch",
        action="store_true",
        help="disable cross-job batching (one engine run per job)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="root of the replicated results store (enables durability)",
    )
    serve.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="export the service telemetry manifest here on exit",
    )
    serve.add_argument(
        "--demo",
        type=int,
        default=None,
        metavar="N",
        help="acceptance mode: drive N concurrent mixed LASSO/VAR jobs "
        "through socket clients and verify bitwise identity vs direct fits",
    )

    check = sub.add_parser(
        "check",
        help="run the correctness gate (static passes + dynamic checkers)",
    )
    check.add_argument(
        "mode",
        nargs="?",
        choices=[
            "lint",
            "shapes",
            "determinism",
            "plan",
            "threads",
            "alloc",
            "static",
            "dynamic",
            "all",
        ],
        default="all",
        help="which checkers to run "
        "(static = lint+shapes+determinism+plan+threads+alloc; "
        "default: all)",
    )
    check.add_argument(
        "--path",
        action="append",
        default=None,
        metavar="PATH",
        dest="paths",
        help="check these files/directories instead of each pass's default "
        "tree (repeatable)",
    )
    check.add_argument(
        "--nranks", type=int, default=4, help="world size for the dynamic battery"
    )
    check.add_argument(
        "--rank-budget-gib",
        type=float,
        default=None,
        metavar="GIB",
        help="per-rank memory budget for the shapes pass (default 4 GiB)",
    )
    check.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help="findings output format on stdout",
    )
    check.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="also write findings as JSON to FILE (CI artifact)",
    )
    check.add_argument(
        "--sarif-out",
        default=None,
        metavar="FILE",
        help="also write findings as SARIF 2.1.0 to FILE (GitHub "
        "code-scanning upload)",
    )
    check.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="write the DYN207 allocation observation as JSONL (one "
        "record per subproblem; alloc/all modes only)",
    )

    stream = sub.add_parser(
        "stream", help="online Granger networks over live tick streams"
    )
    ssub = stream.add_subparsers(dest="stream_command", required=True)

    srun = ssub.add_parser(
        "run", help="rolling warm-started UoI_VAR fit over a tick source"
    )
    srun.add_argument(
        "--source", choices=["spikes", "finance", "socket"], default="spikes",
        help="tick source: synthetic spike rates, finance-panel "
        "replay, or a line-JSON socket feed",
    )
    srun.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="socket source address (with --source socket)",
    )
    srun.add_argument("--p", type=int, default=8, help="series dimension")
    srun.add_argument("--seed", type=int, default=0, help="source seed")
    srun.add_argument(
        "--ticks", type=int, default=None,
        help="stop the source after this many ticks",
    )
    srun.add_argument("--order", type=int, default=1, help="VAR order d")
    srun.add_argument(
        "--window", type=int, default=80, help="sliding window capacity"
    )
    srun.add_argument(
        "--cadence", type=int, default=5, help="ticks between re-fits"
    )
    srun.add_argument(
        "--max-windows", type=int, default=4, help="stop after K windows"
    )
    srun.add_argument("--q", type=int, default=16, help="lambda grid size")
    srun.add_argument(
        "--b1", type=int, default=8, help="selection bootstraps B1"
    )
    srun.add_argument(
        "--b2", type=int, default=5, help="estimation bootstraps B2"
    )
    srun.add_argument(
        "--backend", default="serial",
        help="engine backend (serial | multiprocess | simmpi | elastic)",
    )
    srun.add_argument(
        "--cold", action="store_true",
        help="disable cross-window warm starts (results are identical; "
        "only the per-window cost changes)",
    )
    srun.add_argument(
        "--verify", action="store_true",
        help="re-fit every window cold on the serial backend and assert "
        "bitwise-identical supports and coefficients",
    )
    srun.add_argument(
        "--events", default=None, metavar="FILE",
        help="append per-window change events to this JSONL file",
    )

    sreplay = ssub.add_parser(
        "replay", help="render a recorded event log as a per-window table"
    )
    sreplay.add_argument("events", help="events JSONL path (from run --events)")

    sdiff = ssub.add_parser(
        "diff", help="diff the networks of two recorded windows"
    )
    sdiff.add_argument("events", help="events JSONL path (from run --events)")
    sdiff.add_argument(
        "--base", type=int, default=None, metavar="W",
        help="base window index (default: first recorded)",
    )
    sdiff.add_argument(
        "--target", type=int, default=None, metavar="W",
        help="target window index (default: last recorded)",
    )

    trace = sub.add_parser("trace", help="telemetry manifests and Chrome traces")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    trec = tsub.add_parser(
        "record", help="run small telemetry-enabled fits and export traces"
    )
    trec.add_argument(
        "-o", "--out", required=True, metavar="DIR",
        help="export directory for manifests and Chrome traces",
    )
    trec.add_argument(
        "--kind", choices=["lasso", "var", "both"], default="both",
        help="which estimator(s) to run",
    )
    trec.add_argument("--n", type=int, default=96, help="sample count (rows)")
    trec.add_argument(
        "--p", type=int, default=10, help="feature / series count"
    )

    tsum = tsub.add_parser(
        "summary", help="render a run manifest as a breakdown table"
    )
    tsum.add_argument("manifest", nargs="+", help="manifest-*.jsonl path(s)")

    tchrome = tsub.add_parser(
        "chrome", help="convert a manifest to Chrome trace-event JSON"
    )
    tchrome.add_argument("manifest", help="manifest-*.jsonl path")
    tchrome.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="output path (default: stdout)",
    )

    tdiff = tsub.add_parser("diff", help="compare two run manifests")
    tdiff.add_argument("manifest_a", help="baseline manifest")
    tdiff.add_argument("manifest_b", help="comparison manifest")

    tval = tsub.add_parser(
        "validate", help="schema-check Chrome trace-event JSON file(s)"
    )
    tval.add_argument("trace", nargs="+", help="trace-*.json path(s)")
    return parser


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for name, desc in EXPERIMENTS.items():
        print(f"{name:<{width}}  {desc}")
    return 0


def _cmd_run(name: str, full: bool, extra: dict[str, Any] | None = None) -> int:
    names = list(EXPERIMENTS) if name == "all" else [name]
    for n in names:
        module = importlib.import_module(f"repro.experiments.{n}")
        kwargs: dict[str, Any] = {"fast": not full}
        if extra:
            # Forward only the options this driver understands, so
            # e.g. --checkpoint-dir reaches `resilience` without every
            # paper driver having to grow the parameter.
            accepted = inspect.signature(module.run).parameters
            kwargs.update({k: v for k, v in extra.items() if k in accepted})
        result = module.run(**kwargs)
        print(result.render())
        print()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.resilience import run as run_resilience

    result = run_resilience(
        fast=True,
        checkpoint_dir=args.checkpoint_dir,
        nranks=args.nranks,
        crash_rank=args.crash_rank,
        at_frac=args.at_frac,
        cadence=args.cadence,
    )
    print(result.render())
    return 0 if result.data["bitwise_identical"] else 1


def _rle_chain_lengths(chains: list) -> str:
    """Run-length encode per-chain subproblem counts.

    ``"48x1"`` reads "48 warm-start chains of 1 subproblem each";
    heterogeneous plans yield a comma list in chain order, e.g.
    ``"3x12,1x4"``.
    """
    lengths = [len(chain) for chain in chains]
    runs: list[tuple[int, int]] = []  # (chain count, subproblems per chain)
    for length in lengths:
        if runs and runs[-1][1] == length:
            runs[-1] = (runs[-1][0] + 1, length)
        else:
            runs.append((1, length))
    return ",".join(f"{count}x{length}" for count, length in runs)


def _cmd_engine(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.config import UoILassoConfig, UoIVarConfig
    from repro.engine import BACKENDS, LassoPlan, VarPlan

    machine = _MACHINES[args.machine]

    print("execution backends (fit(executor=...) / REPRO_ENGINE_BACKEND)")
    width = max(len(n) for n in BACKENDS)
    for name in sorted(BACKENDS):
        _, desc = BACKENDS[name]
        print(f"  {name:<{width}}  {desc}")
    print()

    # The dry run only *enumerates* the plan — nothing is solved — so
    # the default UoI configurations are fine at any shape.
    rng = np.random.default_rng(0)
    plans = []
    if args.kind in ("lasso", "both"):
        X = rng.standard_normal((args.n, args.p))
        y = X @ rng.standard_normal(args.p)
        plans.append(LassoPlan(UoILassoConfig(), X, y))
    if args.kind in ("var", "both"):
        plans.append(VarPlan(UoIVarConfig(), rng.standard_normal((args.n, args.p))))

    for plan in plans:
        info = plan.describe()
        flops = plan.estimate_flops()
        total = sum(flops.values())
        print(f"plan {info['kind']}  ({info['subproblems']} subproblems)")
        for stage, s in info["stages"].items():
            chains = plan.chains(stage)
            first_key = chains[0][0].key
            secs = flops[stage] / (machine.gemm_gflops * 1e9)
            print(
                f"  {stage:<10} chains={s['chains']:<3} "
                f"subproblems={s['subproblems']:<4} "
                f"per-chain={_rle_chain_lengths(chains):<8} "
                f"keys={first_key},...  "
                f"~{flops[stage] / 1e9:.3f} GFLOP"
                f" (~{secs:.3g}s modeled on {machine.name})"
            )
        print(
            f"  {'total':<10} ~{total / 1e9:.3f} GFLOP"
            f" (~{total / (machine.gemm_gflops * 1e9):.3g}s modeled)"
        )
        print()

    if args.backend is not None:
        return _engine_backend_check(args.backend, args.elastic_workers)
    return 0


def _engine_backend_check(backend: str, elastic_workers: int) -> int:
    """Solve a small LASSO fit on ``backend`` and compare to serial."""
    import numpy as np

    from repro.core.config import UoILassoConfig
    from repro.core.uoi_lasso import UoILasso
    from repro.datasets import make_sparse_regression
    from repro.engine import BACKEND_ALIASES, make_executor

    name = BACKEND_ALIASES.get(backend, backend)
    ds = make_sparse_regression(
        96, 10, n_informative=3, snr=15.0, rng=np.random.default_rng(7)
    )
    cfg = UoILassoConfig(
        n_lambdas=5,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=2,
        random_state=12,
    )
    reference = UoILasso(cfg).fit(ds.X, ds.y).coef_
    # A private fleet of the requested size, not the process-wide one.
    kwargs = {"workers": elastic_workers} if name == "elastic" else {}
    executor = make_executor(name, **kwargs)
    try:
        candidate = UoILasso(cfg).fit(ds.X, ds.y, executor=executor).coef_
    finally:
        if name == "elastic":
            executor.shutdown()
    identical = bool(np.array_equal(reference, candidate))
    print(f"backend {name}: bitwise identical to serial = {identical}")
    return 0 if identical else 1


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.engine.elastic import inspect_hub, worker_main

    if args.workers_command == "join":
        return worker_main(
            args.host,
            args.port,
            args.name,
            delay=args.delay,
            crash_at=args.crash_at,
            crash_after=args.crash_after,
        )
    if args.workers_command == "inspect":
        import json

        print(json.dumps(inspect_hub(args.host, args.port), sort_keys=True))
        return 0
    raise AssertionError(f"unhandled workers command {args.workers_command!r}")


def _summarize_manifest(path: str) -> None:
    """Print one manifest's header, stage table, breakdown and counters."""
    from repro.perf.report import BreakdownRow, format_breakdown_table
    from repro.telemetry import read_manifest

    man = read_manifest(path)
    run, summary = man["run"], man["summary"]
    print(f"manifest {path}")
    print(
        f"  kind={run.get('kind')}  backend={run.get('backend')}  "
        f"label={run.get('label')}  git={str(run.get('git_rev'))[:10]}  "
        f"created={run.get('created_utc')}"
    )
    stages = summary.get("stages", {})
    if stages:
        width = max(len(s) for s in stages)
        for stage, st in stages.items():
            print(
                f"  {stage:<{width}}  subproblems={st['subproblems']:<5} "
                f"solved={st['solved']:<5} recovered={st['recovered']:<5} "
                f"{st['seconds']:.4f}s"
            )
    row = BreakdownRow(
        label=run.get("label") or run.get("kind") or "run",
        seconds=summary.get("breakdown", {}),
        extra={"backend": str(run.get("backend"))},
    )
    print()
    print(format_breakdown_table([row], title="runtime breakdown"))
    counters = man["counters"]
    if counters:
        print()
        width = max(len(k) for k in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]:.6g}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import Service, ServiceServer, run_demo

    if args.demo is not None:
        summary = run_demo(
            args.demo,
            workers=args.workers,
            batching=not args.no_batch,
            max_batch=args.max_batch,
            store_root=args.store,
            telemetry_dir=args.telemetry_dir,
        )
        print(
            f"demo: {summary['done']}/{summary['jobs']} jobs done, "
            f"bitwise identical to direct fits: {summary['identical']}"
        )
        for row in summary["per_job"]:
            if "error" in row:
                print(f"  {row['kind']:<5} ERROR {row['error']}")
            else:
                print(
                    f"  {row['job_id']:<4} {row['kind']:<5} "
                    f"state={row['state']:<9} events={row['events']:<3} "
                    f"identical={row['identical']}"
                )
        if summary["manifest"]:
            print(f"manifest: {summary['manifest']}")
        ok = summary["done"] == summary["jobs"] and summary["identical"]
        return 0 if ok else 1

    service = Service(
        workers=args.workers,
        batching=not args.no_batch,
        max_batch=args.max_batch,
        store_root=args.store,
    )
    with service, ServiceServer(service, args.host, args.port) as server:
        host, port = server.address
        print(f"repro service listening on {host}:{port}")
        print("protocol: one JSON line per request; ops: submit, status, "
              "jobs, results, cancel, stream, ping")
        try:
            while True:
                import time as _time

                _time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            if args.telemetry_dir is not None:
                path = service.export_manifest(
                    f"{args.telemetry_dir}/service_manifest.jsonl"
                )
                print(f"manifest: {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.check import run_check
    from repro.analysis.findings import findings_to_json, format_findings
    from repro.analysis.sarif import findings_to_sarif
    from repro.analysis.shapes import MemoryBudget

    budget = None
    if args.rank_budget_gib is not None:
        budget = MemoryBudget(per_rank_bytes=args.rank_budget_gib * 2**30)
    findings = run_check(
        args.mode,
        paths=args.paths,
        nranks=args.nranks,
        budget=budget,
        profile_out=args.profile_out,
    )
    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        print(findings_to_sarif(findings))
    else:
        print(format_findings(findings))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(findings_to_json(findings))
            fh.write("\n")
        print(f"wrote {args.out} ({len(findings)} finding(s))")
    if args.sarif_out is not None:
        with open(args.sarif_out, "w", encoding="utf-8") as fh:
            fh.write(findings_to_sarif(findings))
            fh.write("\n")
        print(f"wrote {args.sarif_out} ({len(findings)} finding(s), SARIF)")
    return 1 if findings else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        import numpy as np

        from repro.core.config import UoILassoConfig, UoIVarConfig
        from repro.core.uoi_lasso import UoILasso
        from repro.core.uoi_var import UoIVar
        from repro.datasets import make_sparse_regression, make_sparse_var

        exported: list[str] = []
        if args.kind in ("lasso", "both"):
            ds = make_sparse_regression(
                args.n, args.p, n_informative=3, snr=15.0,
                rng=np.random.default_rng(11),
            )
            cfg = UoILassoConfig(
                n_lambdas=5, n_selection_bootstraps=4,
                n_estimation_bootstraps=3, random_state=5,
            )
            model = UoILasso(cfg).fit(ds.X, ds.y, telemetry=args.out)
            exported += model.telemetry_.exported
        if args.kind in ("var", "both"):
            vds = make_sparse_var(
                min(args.p, 6), args.n, rng=np.random.default_rng(12)
            )
            vcfg = UoIVarConfig()
            vcfg = vcfg.with_(
                lasso=vcfg.lasso.with_(
                    n_lambdas=4, n_selection_bootstraps=3,
                    n_estimation_bootstraps=3, random_state=5,
                )
            )
            vmodel = UoIVar(vcfg).fit(vds.series, telemetry=args.out)
            exported += vmodel.telemetry_.exported
        for path in exported:
            print(path)
        for path in exported:
            if "manifest-" in path:
                print()
                _summarize_manifest(path)
        return 0

    if args.trace_command == "summary":
        for i, path in enumerate(args.manifest):
            if i:
                print()
            _summarize_manifest(path)
        return 0

    if args.trace_command == "chrome":
        import json

        from repro.telemetry import manifest_to_chrome, read_manifest

        doc = manifest_to_chrome(read_manifest(args.manifest))
        if args.out is None:
            print(json.dumps(doc))
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            print(f"wrote {args.out} ({len(doc['traceEvents'])} events)")
        return 0

    if args.trace_command == "diff":
        from repro.telemetry import diff_manifests, read_manifest

        print(
            diff_manifests(
                read_manifest(args.manifest_a),
                read_manifest(args.manifest_b),
                labels=("a", "b"),
            )
        )
        return 0

    if args.trace_command == "validate":
        import json

        from repro.telemetry import validate_chrome_trace

        bad = 0
        for path in args.trace:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            errors = validate_chrome_trace(doc)
            n = len(doc.get("traceEvents", doc)) if not errors else 0
            if errors:
                bad += 1
                print(f"{path}: INVALID")
                for err in errors:
                    print(f"  {err}")
            else:
                print(f"{path}: ok ({n} events)")
        return 1 if bad else 0

    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _stream_source(args: argparse.Namespace):
    """Build the tick source for ``stream run``."""
    from repro.stream import FinanceReplaySource, SocketSource, SpikeRateSource

    if args.source == "spikes":
        return SpikeRateSource(
            args.p, order=args.order, seed=args.seed, max_ticks=args.ticks
        )
    if args.source == "finance":
        n_days = (
            5 * (args.ticks + 1) if args.ticks is not None else 504
        )
        return FinanceReplaySource(args.p, n_days=n_days, seed=args.seed)
    if not args.connect or ":" not in args.connect:
        raise SystemExit("--source socket requires --connect HOST:PORT")
    host, port = args.connect.rsplit(":", 1)
    return SocketSource.connect(host, int(port))


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream.diff import read_events

    if args.stream_command == "run":
        import numpy as np

        from repro.core.config import UoILassoConfig, UoIVarConfig
        from repro.engine import named_executor
        from repro.stream import DiffLog, StreamConfig, run_rolling

        config = StreamConfig(
            var=UoIVarConfig(
                order=args.order,
                lasso=UoILassoConfig(
                    n_lambdas=args.q,
                    n_selection_bootstraps=args.b1,
                    n_estimation_bootstraps=args.b2,
                    solver="cd",
                    # Generous sweep budget: warm/cold identity needs
                    # every cd solve to reach tolerance, and sweeps on
                    # ill-conditioned windows can crawl (cd counts full
                    # sweeps, so this is a cap, not a cost).
                    max_iter=20000,
                    random_state=args.seed,
                ),
            ),
            window=args.window,
            cadence=args.cadence,
            max_windows=args.max_windows,
            warm=not args.cold,
            verify=args.verify,
        )

        def on_window(fit) -> None:
            d = fit.diff
            change = (
                "first network"
                if d is None
                else f"+{len(d.gained)}/-{len(d.lost)} edges  "
                f"stability {d.stability:.2f}  drift {d.drift:.3f}"
            )
            mode = "warm" if fit.warm else "cold"
            retry = f"  retries {fit.retries}" if fit.retries else ""
            stuck = (
                f"  NONCONVERGED {fit.nonconverged} (raise max_iter)"
                if fit.nonconverged
                else ""
            )
            print(
                f"window {fit.index:3d}  t={fit.t_end:<6d} {mode}  "
                f"{fit.seconds:6.2f}s  {change}{retry}{stuck}"
            )

        log = DiffLog(args.events) if args.events else None
        try:
            outputs = run_rolling(
                _stream_source(args),
                config,
                executor=named_executor(args.backend),
                diff_log=log,
                on_window=on_window,
            )
        finally:
            if log is not None:
                log.close()
        n_edges = int(np.count_nonzero(outputs.coef))
        print(
            f"fitted {len(outputs)} windows over {outputs.windows[-1].t_end} "
            f"ticks; final network has {n_edges} edges"
            + (f"; events -> {args.events}" if args.events else "")
        )
        if args.verify:
            print(
                "verify: every window bitwise-identical to a cold batch fit"
            )
        return 0

    events = read_events(args.events)
    if not events:
        print(f"no events in {args.events}")
        return 1

    if args.stream_command == "replay":
        print(f"{'window':>6} {'t_end':>7} {'edges':>6} {'+':>4} {'-':>4} "
              f"{'stability':>9} {'drift':>8}")
        for e in events:
            print(
                f"{e['window']:>6} {e.get('t_end', '-'):>7} "
                f"{len(e.get('edges', [])):>6} "
                f"{len(e.get('gained', [])):>4} {len(e.get('lost', [])):>4} "
                f"{e.get('stability', float('nan')):>9.2f} "
                f"{e.get('drift', float('nan')):>8.3f}"
            )
        return 0

    # stream diff: compare any two recorded windows by their edge lists.
    by_window = {e["window"]: e for e in events if "edges" in e}
    if not by_window:
        print("events carry no edge lists; re-record with stream run --events")
        return 1
    base_idx = args.base if args.base is not None else min(by_window)
    target_idx = args.target if args.target is not None else max(by_window)
    for idx in (base_idx, target_idx):
        if idx not in by_window:
            print(f"window {idx} not in event log (has {sorted(by_window)})")
            return 1
    base = {tuple(e) for e in by_window[base_idx]["edges"]}
    target = {tuple(e) for e in by_window[target_idx]["edges"]}
    union = base | target
    stability = 1.0 if not union else len(base & target) / len(union)
    print(
        f"windows {base_idx} -> {target_idx}: {len(base)} -> {len(target)} "
        f"edges, stability {stability:.2f}"
    )
    for label, edges in (
        ("gained", sorted(target - base)),
        ("lost", sorted(base - target)),
    ):
        print(f"  {label} ({len(edges)}):")
        for lag, i, j in edges:
            print(f"    {j} -> {i} @ lag {lag}")
    return 0


def _cmd_machine(name: str) -> int:
    machine = _MACHINES[name]
    print(f"machine model: {machine.name}")
    for field in dataclasses.fields(machine):
        print(f"  {field.name:<20} {getattr(machine, field.name)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.name,
            args.full,
            {"checkpoint_dir": args.checkpoint_dir, "resume": args.resume},
        )
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "machine":
        return _cmd_machine(args.name)
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "workers":
        return _cmd_workers(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
