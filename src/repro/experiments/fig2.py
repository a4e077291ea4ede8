"""Fig. 2 — UoI_LASSO single-node runtime breakdown + roofline.

The paper's Fig. 2 runs a ≈16 GB dataset on one KNL node (68 cores)
with B1 = B2 = 5, q = 8 and reports a stacked breakdown: ~90%
computation, <10% communication (99% of it the ADMM Allreduce), small
Distribution and Data-I/O bars.  Alongside, Section IV-A.1 reports the
Intel-Advisor roofline points (gemm 30.83 GFLOPS @ AI 3.59, gemv 1.12
@ 0.32, trsv 0.011 @ 0.075, all DRAM-bound).

This driver prints (a) the analytic single-node breakdown at the exact
paper configuration, (b) the roofline classification of every kernel,
and (c) a functional mini-run breakdown demonstrating the same
computation-dominant proportions from real execution.
"""

from __future__ import annotations

from repro.experiments._functional import mini_uoi_lasso_run
from repro.experiments.base import ExperimentResult
from repro.perf.plots import stacked_bars
from repro.perf.report import format_breakdown_table
from repro.perf.roofline import classify, paper_kernel_points, roofline_attainable
from repro.perf.scaling import UoiLassoScalingParams, uoi_lasso_model

__all__ = ["run"]


def run(fast: bool = True) -> ExperimentResult:
    """Regenerate Fig. 2 (modeled breakdown + roofline + functional check)."""
    params = UoiLassoScalingParams(data_gb=16, cores=68, b1=5, b2=5, q=8)
    row = uoi_lasso_model(params)
    total = row.total
    comp_share = row.get("computation") / total

    lines = [format_breakdown_table([row], title="single node, 16GB, B1=B2=5, q=8 (model)")]
    lines.append(stacked_bars([row]))
    lines.append(f"computation share: {comp_share:.1%} (paper: ~90%)")
    lines.append("")
    lines.append(f"{'kernel':<22}{'GFLOPS':>9}{'AI':>7}{'roof @ AI':>11}{'bound':>15}")
    roofline = {}
    for pt in paper_kernel_points():
        if not pt.kernel.startswith("uoi_lasso"):
            continue
        verdict = classify(pt)
        roof = roofline_attainable(pt.intensity)
        roofline[pt.kernel] = verdict
        lines.append(
            f"{pt.kernel:<22}{pt.gflops:>9.3f}{pt.intensity:>7.2f}"
            f"{roof:>11.1f}{verdict:>15}"
        )

    # 120 rows per core x 60 features: large enough that the solves,
    # which stop on tolerance after a few dozen iterations, outweigh the
    # fixed modeled file-open latency as they do at the paper's 16 GB.
    nranks = 4 if fast else 8
    func = mini_uoi_lasso_run(nranks=nranks, n=120 * nranks, p=60)
    fb = func["breakdown"]
    func_total = sum(fb.values())
    lines.append("")
    lines.append(
        "functional mini-run (4 ranks, real execution): "
        + ", ".join(f"{k} {v / func_total:.1%}" for k, v in fb.items())
    )

    return ExperimentResult(
        name="fig2",
        title="UoI_LASSO single-node runtime breakdown",
        report="\n".join(lines),
        data={
            "model": row.seconds,
            "computation_share": comp_share,
            "roofline": roofline,
            "functional": fb,
        },
        paper_reference=(
            "Fig. 2: ~90% computation, <10% communication (99% from "
            "MPI_Allreduce); kernels all DRAM-memory-bound."
        ),
    )
