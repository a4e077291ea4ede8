"""Performance modeling, accounting and reporting.

* :mod:`repro.perf.flops` — flop/byte counts for the kernels the
  paper's roofline analysis covers (gemm, gemv, triangular solve,
  Cholesky) and helpers that charge their modeled
  time to a rank's virtual clock.
* :mod:`repro.perf.roofline` — the roofline model itself: arithmetic
  intensity, attainable GFLOPS, memory- vs compute-bound
  classification (regenerates the paper's Intel-Advisor numbers).
* :mod:`repro.perf.report` — time-breakdown tables in the style of the
  paper's runtime bar charts (Figs. 2, 3, 7, 8).
* :mod:`repro.perf.scaling` — the analytic weak/strong-scaling drivers
  that evaluate the very same cost models used by the functional
  simulator at the paper's core counts (Tables I-II, Figs. 4-6, 9-10).
"""

from repro.perf.flops import (
    gemm_flops,
    gemv_flops,
    cholesky_flops,
    trsv_flops,
    charge_gemm,
    charge_gemv,
    charge_cholesky,
    charge_trsv,
)
from repro.perf.roofline import RooflinePoint, roofline_attainable, classify
from repro.perf.report import BreakdownRow, format_breakdown_table
from repro.perf.plots import stacked_bars, log_lines

__all__ = [
    "gemm_flops",
    "gemv_flops",
    "cholesky_flops",
    "trsv_flops",
    "charge_gemm",
    "charge_gemv",
    "charge_cholesky",
    "charge_trsv",
    "RooflinePoint",
    "roofline_attainable",
    "classify",
    "BreakdownRow",
    "format_breakdown_table",
    "stacked_bars",
    "log_lines",
]
