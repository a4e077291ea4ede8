"""Model selection: the *intersection* step (paper eq. 3).

For every regularization value λ_j, the LASSO support is computed on
each of the ``B1`` selection bootstraps, and the candidate support is
their intersection

    S_j = ∩_{k=1..B1} S_j^k

which strips the false positives individual LASSO fits admit.  The
family ``S = [S_1 ... S_q]`` then feeds model estimation.  Supports
are represented as boolean masks of length ``p`` (feature count), and
per-bootstrap collections as ``(q, p)`` mask matrices — the same
representation the distributed driver AND-reduces across ranks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "intersect_supports",
    "family_from_counts",
    "support_family",
]


def intersect_supports(masks: np.ndarray, *, frac: float = 1.0) -> np.ndarray:
    """Intersection over the leading (bootstrap) axis.

    Parameters
    ----------
    masks:
        ``(B, p)`` or ``(B, q, p)`` boolean array of per-bootstrap
        supports.
    frac:
        *Soft-intersection* threshold in ``(0, 1]``: a feature
        survives when it appears in at least ``ceil(frac * B)``
        bootstraps.  ``frac = 1.0`` (default) is the paper's strict
        intersection (eq. 3); smaller values trade false-negative risk
        against false positives, the generalization offered by the
        reference PyUoI package's ``selection_frac``.

    Returns
    -------
    numpy.ndarray
        ``(p,)`` or ``(q, p)`` intersected mask(s).
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim not in (2, 3):
        raise ValueError(f"masks must be (B, p) or (B, q, p), got {masks.shape}")
    B = masks.shape[0]
    if B < 1:
        raise ValueError("need at least one bootstrap")
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac must lie in (0, 1], got {frac}")
    if frac == 1.0:
        return np.logical_and.reduce(masks, axis=0)
    threshold = int(np.ceil(frac * B))
    return masks.sum(axis=0) >= threshold


def family_from_counts(counts: np.ndarray, n_bootstraps: int, *, frac: float = 1.0) -> np.ndarray:
    """Thresholded intersection from per-feature selection *counts*.

    The distributed drivers cannot AND masks directly — each cell only
    solves its owned (bootstrap, λ) pairs — so they SUM-reduce integer
    counts of how many bootstraps kept each feature and threshold here:
    a feature survives when counted in at least ``ceil(frac * B1)``
    bootstraps (``frac = 1.0`` is the paper's strict intersection,
    eq. 3).  Checkpoint recovery reuses the same reduction when folding
    recovered selection records back into a family.

    Parameters
    ----------
    counts:
        ``(q, p)`` (or any-shaped) integer selection counts.
    n_bootstraps:
        ``B1``, the number of bootstraps counted.
    frac:
        Soft-intersection threshold in ``(0, 1]``.
    """
    counts = np.asarray(counts)
    if n_bootstraps < 1:
        raise ValueError("n_bootstraps must be >= 1")
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac must lie in (0, 1], got {frac}")
    if np.any(counts < 0) or np.any(counts > n_bootstraps):
        raise ValueError(f"counts must lie in [0, {n_bootstraps}]")
    return counts >= int(np.ceil(frac * n_bootstraps))


def support_family(
    betas: np.ndarray,
    *,
    tol: float = 0.0,
    frac: float = 1.0,
) -> np.ndarray:
    """Per-λ intersected supports from raw bootstrap estimates.

    Parameters
    ----------
    betas:
        ``(B1, q, p)`` LASSO estimates (bootstrap x λ x feature).
    tol:
        Magnitude below which a coefficient counts as zero.
    frac:
        Soft-intersection threshold (see :func:`intersect_supports`).

    Returns
    -------
    numpy.ndarray
        ``(q, p)`` boolean family ``S = [S_1 ... S_q]``.
    """
    betas = np.asarray(betas)
    if betas.ndim != 3:
        raise ValueError(f"betas must be (B1, q, p), got {betas.shape}")
    return intersect_supports(np.abs(betas) > tol, frac=frac)


