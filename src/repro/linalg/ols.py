"""Ordinary least squares, optionally restricted to a support.

UoI model estimation (Algorithm 1 line 18, Algorithm 2 line 24) fits
the *unbiased* OLS estimator on each candidate support produced by the
selection stage.  The paper implements OLS as LASSO-ADMM with λ = 0 so
the same distributed solver serves both stages; serially, one Gram per
bootstrap serves every support, with the SVD solve :func:`ols` as fallback.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from repro.telemetry.recorder import count as _tcount

__all__ = ["ols", "ols_on_support", "ols_from_gram", "ols_family_columns"]

#: Smallest ``dpocon`` estimate of ``1 / cond_1(G[S, S])`` solved by Cholesky.
#: A column duplicated plus noise ``e`` matches the SVD to 1e-9 at ``e = 1e-3``
#: (estimate ~1e-7) but only ~1e-7 at ``e = 1e-4`` (~1e-9): the sweep test.
GRAM_RCOND_MIN = 1e-8


def ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``min_b ||y - Xb||^2``.

    Uses an SVD-based solve (``numpy.linalg.lstsq``) so rank-deficient
    designs — common when a bootstrap drops rows — are handled without
    blowing up.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    _tcount("ols.solves")
    _tcount("ols.rows", X.shape[0])
    return beta


def _support_index(support: np.ndarray, p: int) -> np.ndarray:
    """Column indices of a boolean mask or a distinct integer index array."""
    support = np.asarray(support)
    if support.dtype == bool:
        if support.shape != (p,):
            raise ValueError(f"boolean support shape {support.shape} != ({p},)")
        return np.flatnonzero(support)
    if support.size and support.dtype.kind not in "iu":
        raise ValueError(f"support indices must be integers, got {support.dtype}")
    idx = support.astype(np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= p):
        raise ValueError(f"support indices out of range for p={p}")
    if np.unique(idx).size != idx.size:
        raise ValueError("support indices must be distinct")
    return idx


def ols_on_support(X: np.ndarray, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    """OLS of ``y`` on ``X`` (``(n, p)``) with coefficients outside
    ``support`` — a boolean mask of length ``p`` or distinct integer
    indices — pinned to zero: a ``(p,)`` vector, dense in the support.
    An empty support gives the zero vector (the intercept-free null
    model)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    idx = _support_index(support, X.shape[1])
    beta = np.zeros(X.shape[1])
    if idx.size:
        beta[idx] = ols(X[:, idx], np.asarray(y, dtype=float))
    else:
        _tcount("ols.empty_supports")
    return beta


def _solve_support(
    G: np.ndarray, C: np.ndarray, idx: np.ndarray, X: np.ndarray, Y: np.ndarray,
    cols: list[int],
) -> list[np.ndarray] | np.ndarray:
    """OLS on the non-empty support ``idx`` for columns ``cols`` of ``Y``
    by one factor of ``G[S, S]`` (``G = X'X``, ``C = X'Y``) and one
    multi-RHS ``dpotrs``, column-wise bitwise single solves.  ``|S|``
    above the rows of ``X``, a failed ``dpotrf`` or a ``dpocon`` estimate
    below :data:`GRAM_RCOND_MIN` falls back to :func:`ols` per column."""
    if idx.size <= X.shape[0]:
        # Two 1-D takes: the same C-ordered bytes as G[idx[:, None], idx],
        # without the 2-D fancy-index machinery.
        G_S = G.take(idx, 0).take(idx, 1)
        L, info = dpotrf(G_S, lower=1)
        if info == 0 and dpocon(L, np.linalg.norm(G_S, 1), "L")[0] >= GRAM_RCOND_MIN:
            _tcount("ols.factorizations")
            _tcount("ols.solves", len(cols))
            if len(cols) == 1:  # the same solve, without a 2-D gather
                return [dpotrs(L, C[idx, cols[0]], lower=1)[0]]
            return dpotrs(L, C[idx[:, None], cols], lower=1)[0].T
    _tcount("ols.gram_fallbacks", len(cols))
    return [ols(X[:, idx], Y[:, c]) for c in cols]


def ols_from_gram(
    G: np.ndarray, c: np.ndarray, support: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """:func:`ols_on_support` from ``G = X'X``, ``c = X'y`` by Cholesky,
    with the SVD fallback of :func:`ols_family_columns`."""
    idx = _support_index(support, G.shape[0])
    beta = np.zeros(G.shape[0])
    if idx.size:
        (beta[idx],) = _solve_support(G, c[:, None], idx, X, y[:, None], [0])
    else:
        _tcount("ols.empty_supports")
    return beta


def ols_family_columns(X: np.ndarray, Y: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Per-support OLS of a ``(q, kdim * p)`` family, column-decomposed.

    Slice ``c`` of row ``j`` fits ``Y[:, c]`` on that slice's support
    (UoI_LASSO is ``p = 1``).  One Gram over the union of all supports
    serves every solve, and one factor of ``G[S, S]`` every column
    whose slices hold support ``S``.  ``ols.solves`` counts one per
    column and distinct support, ``ols.factorizations`` one per factor.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    family = np.asarray(family, dtype=bool)
    if X.ndim != 2 or Y.ndim != 2 or family.shape[1:] != (X.shape[1] * Y.shape[1],):
        raise ValueError(f"X {X.shape}, Y {Y.shape}, family {family.shape}")
    masks = family.reshape(len(family), Y.shape[1], X.shape[1])
    union = masks.any(axis=(0, 1))
    XU = X[:, union]
    G, C = XU.T @ XU, XU.T @ Y
    out = np.zeros(masks.shape)
    cells: dict[bytes, dict[int, list[int]]] = {}  # support -> column -> rows
    for j, row in enumerate(masks[:, :, union]):
        for c, mask in enumerate(row):
            cells.setdefault(mask.tobytes(), {}).setdefault(c, []).append(j)
    columns = np.flatnonzero(union)
    for key, by_col in cells.items():
        idx = np.flatnonzero(np.frombuffer(key, dtype=bool))
        if not idx.size:
            _tcount("ols.empty_supports", len(by_col))
            continue
        fits = _solve_support(G, C, idx, XU, Y, list(by_col))
        at = columns[idx]
        for (c, rows), beta in zip(by_col.items(), fits):
            for j in rows:
                out[j, c, at] = beta
    return out.reshape(family.shape)
