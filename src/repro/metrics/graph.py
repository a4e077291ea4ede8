"""Network-level comparison metrics for inferred Granger graphs.

Beyond per-edge confusion counts
(:mod:`repro.metrics.selection`), network inference is judged on
graph-level structure: edge-set overlap.  Used by the application
examples to score recovered networks against the planted ground
truth.
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_jaccard"]


def _as_adjacency(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"adjacency must be square, got {W.shape}")
    return W != 0


def edge_jaccard(
    true: np.ndarray,
    estimated: np.ndarray,
    *,
    include_diagonal: bool = False,
) -> float:
    """Jaccard similarity of the two directed edge sets.

    ``|E_true ∩ E_est| / |E_true ∪ E_est|``; 1.0 when both graphs are
    empty (vacuously identical).
    """
    a = _as_adjacency(true)
    b = _as_adjacency(estimated)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not include_diagonal:
        off = ~np.eye(a.shape[0], dtype=bool)
        a, b = a & off, b & off
    union = int(np.sum(a | b))
    if union == 0:
        return 1.0
    return float(np.sum(a & b)) / union


