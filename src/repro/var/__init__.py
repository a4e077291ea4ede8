"""Vector-autoregression substrate.

Everything UoI_VAR needs around the core solver:

* :mod:`repro.var.model` — the VAR(d) process itself (eq. 6):
  simulation with Gaussian disturbances, the companion-matrix
  stability criterion, and coefficient bookkeeping.
* :mod:`repro.var.lag` — the multivariate least-squares rearrangement
  (eqs. 7-8): response matrix ``Y``, lagged design ``X``, and the
  partition of a fitted ``vec B`` back into ``(A_1, ..., A_d)`` and
  the intercept (Algorithm 2, line 31).
* :mod:`repro.var.granger` — Granger-causal network extraction: edge
  ``j -> i`` exists when some lag's ``A_l[i, j]`` is nonzero; exports
  a ``networkx.DiGraph`` like the paper's Fig. 11.
"""

from repro.var.model import VARProcess, companion_matrix, spectral_radius, is_stable
from repro.var.lag import (
    build_lag_matrices,
    partition_coefficients,
    stack_coefficients,
)
from repro.var.order import OrderSelection, information_criterion, select_order
from repro.var.forecast import Forecast, forecast, forecast_intervals
from repro.var.diagnostics import Diagnosis, LjungBoxResult, diagnose, ljung_box, residuals
from repro.var.granger import (
    granger_adjacency,
    granger_digraph,
    edge_list,
    network_summary,
)

__all__ = [
    "VARProcess",
    "companion_matrix",
    "spectral_radius",
    "is_stable",
    "build_lag_matrices",
    "partition_coefficients",
    "stack_coefficients",
    "OrderSelection",
    "Forecast",
    "forecast",
    "forecast_intervals",
    "Diagnosis",
    "LjungBoxResult",
    "diagnose",
    "ljung_box",
    "residuals",
    "information_criterion",
    "select_order",
    "granger_adjacency",
    "granger_digraph",
    "edge_list",
    "network_summary",
]
