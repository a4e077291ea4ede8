"""Coefficient-estimation and prediction metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mean_squared_error",
    "coefficient_bias",
    "EstimationReport",
    "estimation_report",
]


def mean_squared_error(true: np.ndarray, estimated: np.ndarray) -> float:
    """Mean squared difference between two same-shape arrays."""
    true = np.asarray(true, dtype=float)
    estimated = np.asarray(estimated, dtype=float)
    if true.shape != estimated.shape:
        raise ValueError(f"shape mismatch: {true.shape} vs {estimated.shape}")
    return float(np.mean((true - estimated) ** 2))


def coefficient_bias(true: np.ndarray, estimated: np.ndarray) -> float:
    """Mean signed error on the *true support* — LASSO's shrinkage bias
    lives here; UoI's OLS re-estimation removes most of it."""
    true = np.asarray(true, dtype=float).reshape(-1)
    estimated = np.asarray(estimated, dtype=float).reshape(-1)
    if true.shape != estimated.shape:
        raise ValueError(f"shape mismatch: {true.shape} vs {estimated.shape}")
    mask = true != 0
    if not mask.any():
        return 0.0
    # Signed toward zero: positive bias means magnitudes are shrunk.
    return float(np.mean((np.abs(true) - np.abs(estimated))[mask]))


@dataclass(frozen=True)
class EstimationReport:
    """Coefficient-quality summary.

    Attributes
    ----------
    mse:
        Mean squared coefficient error.
    bias:
        Shrinkage bias on the true support (positive = shrunk).
    max_abs_error:
        Worst single-coefficient error.
    """

    mse: float
    bias: float
    max_abs_error: float


def estimation_report(true: np.ndarray, estimated: np.ndarray) -> EstimationReport:
    """Bundle the coefficient-quality metrics for one estimate."""
    true = np.asarray(true, dtype=float)
    estimated = np.asarray(estimated, dtype=float)
    return EstimationReport(
        mse=mean_squared_error(true, estimated),
        bias=coefficient_bias(true, estimated),
        max_abs_error=float(np.max(np.abs(true - estimated))) if true.size else 0.0,
    )
