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
    """OLS with coefficients outside ``support`` pinned to zero.

    Parameters
    ----------
    X:
        ``(n, p)`` design matrix.
    y:
        ``(n,)`` response.
    support:
        Either a boolean mask of length ``p`` or an array of distinct
        integer indices selecting the free coefficients.

    Returns
    -------
    numpy.ndarray
        Full-length ``(p,)`` coefficient vector, dense in the support
        and exactly zero elsewhere.  An empty support yields the zero
        vector (the intercept-free null model).
    """
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


def ols_from_gram(
    G: np.ndarray, c: np.ndarray, support: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """:func:`ols_on_support` from ``G = X'X``, ``c = X'y`` by Cholesky.

    A support wider than ``X`` has rows, a failed ``dpotrf`` or a
    ``dpocon`` estimate below :data:`GRAM_RCOND_MIN` falls back to
    :func:`ols` on ``X[:, S]`` (bitwise :func:`ols_on_support`),
    counted as ``ols.gram_fallbacks``.
    """
    idx = _support_index(support, G.shape[0])
    if 0 < idx.size <= X.shape[0]:
        G_S = G[idx[:, None], idx]
        L, info = dpotrf(G_S, lower=1)
        if info == 0 and dpocon(L, np.linalg.norm(G_S, 1), "L")[0] >= GRAM_RCOND_MIN:
            _tcount("ols.solves")
            beta = np.zeros(G.shape[0])
            beta[idx] = dpotrs(L, c[idx], lower=1)[0]
            return beta
    if idx.size:
        _tcount("ols.gram_fallbacks")
    return ols_on_support(X, y, idx)


def ols_family_columns(X: np.ndarray, Y: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Per-support OLS of a ``(q, kdim * p)`` family, column-decomposed.

    Slice ``c`` of row ``j`` fits ``Y[:, c]`` on that slice's support
    (UoI_LASSO is ``p = 1``).  One Gram over the union of all supports
    serves every solve; a support repeated for a column is solved once.
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
    cache: dict[tuple[int, bytes], np.ndarray] = {}
    for j, row in enumerate(masks):
        for c, mask in enumerate(row):
            key = (c, mask.tobytes())
            if key not in cache:
                cache[key] = ols_from_gram(G, C[:, c], mask[union], XU, Y[:, c])
            out[j, c, union] = cache[key]
    return out.reshape(family.shape)
