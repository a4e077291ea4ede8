"""Support-recovery (model selection) metrics.

Given a true support and an estimated support (boolean masks of equal
length, or coefficient vectors thresholded at zero), compute the
confusion counts and the derived rates the UoI papers report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SelectionReport",
    "selection_report",
]


def _as_mask(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype == bool:
        return x.reshape(-1)
    return (x != 0).reshape(-1)


@dataclass(frozen=True)
class SelectionReport:
    """Confusion counts and rates for one support estimate.

    Attributes
    ----------
    tp, fp, tn, fn:
        Confusion counts over features.
    precision, recall, f1:
        Standard derived scores (1.0 conventions when undefined on an
        empty side).
    exact:
        Whether the estimated support equals the truth exactly.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    exact: bool


def selection_report(true: np.ndarray, estimated: np.ndarray) -> SelectionReport:
    """Compare an estimated support against the truth.

    Both arguments may be boolean masks or coefficient vectors (any
    nonzero counts as selected).  Shapes must match after flattening.
    """
    t = _as_mask(true)
    e = _as_mask(estimated)
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch: true {t.shape} vs estimated {e.shape}")
    tp = int(np.sum(t & e))
    fp = int(np.sum(~t & e))
    tn = int(np.sum(~t & ~e))
    fn = int(np.sum(t & ~e))
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return SelectionReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        exact=bool(np.array_equal(t, e)),
    )


