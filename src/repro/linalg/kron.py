"""``vec`` / ``I ⊗ X`` machinery for the VAR-to-LASSO rearrangement.

The paper's eq. (9) rewrites the multivariate least-squares problem
``Y = X B + E`` as a single univariate-response problem

    vec Y = (I ⊗ X) vec B + vec E

where ``vec`` stacks columns.  The lifted design ``I_p ⊗ X`` is block
diagonal with ``p`` copies of ``X`` — this is the "problem-size
explosion" (≈ p³) that motivates the paper's distributed Kronecker
product: an ``(N-d) x (d p)`` data matrix becomes a
``p(N-d) x d p^2`` lifted design.

Two representations are provided:

* :func:`identity_kron` — explicit materialization (dense or
  ``scipy.sparse``), faithful to the paper's implementation, used by
  the distributed-Kronecker code path and the sparsity analysis
  (sparsity of the lifted design is ``1 - 1/p`` for dense input).
* :func:`kron_lasso_columnwise` — the algebraic observation that the
  LASSO on ``(I ⊗ X)`` separates into ``p`` independent column
  problems; this is the "communication-avoiding" alternative the
  paper's discussion hints at, and an ablation benchmark compares the
  two.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse

__all__ = [
    "vec",
    "identity_kron",
    "kron_sparsity",
    "kron_lasso_columnwise",
]


def _as_float(a: np.ndarray) -> np.ndarray:
    """Float array preserving single precision.

    float32 stays float32 (the lifted design is ≈ p³ the data size, so
    halving its memory matters at paper scale); everything else
    normalizes to float64.  Every entry point in this module funnels
    through this, so the dtype a caller hands in is the dtype the
    whole ``I ⊗ X`` pipeline computes in — previously float32 input
    was silently upcast by ``dtype=float`` coercions and the float64
    default of ``np.eye``, doubling memory mid-pipeline.
    """
    a = np.asarray(a)
    if a.dtype == np.float32:
        return a
    return np.asarray(a, dtype=np.float64)


def vec(Y: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: ``vec(Y)[i + m*j] = Y[i, j]``."""
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError(f"vec expects a 2-D matrix, got shape {Y.shape}")
    return Y.reshape(-1, order="F").copy()


def identity_kron(X: np.ndarray, p: int, *, sparse: bool = True):
    """Materialize ``I_p ⊗ X`` (the paper's lifted design).

    Parameters
    ----------
    X:
        ``(m, k)`` block to repeat on the diagonal.
    p:
        Number of diagonal blocks (the VAR dimension).
    sparse:
        Return ``scipy.sparse.csr_matrix`` (default, matching the
        paper's Eigen-Sparse implementation) or a dense ndarray.
    """
    X = _as_float(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if sparse:
        return scipy.sparse.block_diag([scipy.sparse.csr_matrix(X)] * p, format="csr")
    return np.kron(np.eye(p, dtype=X.dtype), X)


def kron_sparsity(p: int) -> float:
    """Sparsity of ``I_p ⊗ X`` for a dense ``X``: ``1 - 1/p`` (paper §IV-B)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return 1.0 - 1.0 / p


def kron_lasso_columnwise(
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    solver: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
) -> np.ndarray:
    """Solve the LASSO on ``(I ⊗ X, vec Y)`` column by column.

    Because ``I_p ⊗ X`` is block diagonal and the L1 penalty is
    separable, the big LASSO decomposes exactly into ``p`` independent
    problems ``min_b ||Y[:, j] - X b||^2 + lam ||b||_1``.

    Parameters
    ----------
    X:
        ``(m, k)`` common design block.
    Y:
        ``(m, p)`` multivariate response.
    lam:
        Penalty level shared by all columns.
    solver:
        Any ``solver(X, y, lam) -> beta`` (e.g.
        :func:`repro.linalg.lasso_admm` or
        :func:`repro.linalg.lasso_cd`).

    Returns
    -------
    numpy.ndarray
        ``vec B`` of length ``k * p``, identical (in exact arithmetic)
        to solving the materialized lifted problem.
    """
    X = _as_float(X)
    Y = _as_float(Y)
    if X.dtype != Y.dtype:
        # One float32 operand would silently upcast the whole solve.
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
        raise ValueError(f"Y shape {Y.shape} incompatible with X {X.shape}")
    cols = [
        np.asarray(solver(X, Y[:, j], lam), dtype=X.dtype)
        for j in range(Y.shape[1])
    ]
    return np.concatenate(cols)
