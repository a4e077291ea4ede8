"""Statistical evaluation metrics.

The UoI framework's selling points are *selection* quality (low false
positives and false negatives — eq. 3's intersection) and *estimation*
quality (low bias, low variance — eq. 4's union average).  These
modules quantify both so the statistical-comparison benchmarks can
reproduce the paper's claims against LASSO / Ridge / MCP / SCAD.
"""

from repro.metrics.selection import (
    SelectionReport,
    selection_report,
)
from repro.metrics.graph import (
    edge_jaccard,
)
from repro.metrics.estimation import (
    mean_squared_error,
    coefficient_bias,
    estimation_report,
    EstimationReport,
)

__all__ = [
    "SelectionReport",
    "selection_report",
    "edge_jaccard",
    "mean_squared_error",
    "coefficient_bias",
    "estimation_report",
    "EstimationReport",
]
