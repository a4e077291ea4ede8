"""Cyclic coordinate-descent LASSO.

Solves the same objective as :mod:`repro.linalg.admm` (paper eq. 2):

    ||y - X b||^2 + lam * ||b||_1

Its covariance-update form (``precomputed=``) is the production solver
of the streaming path: ``var_path_columns`` runs it for every window of
a :class:`repro.stream.RollingRefitter` and for ``UoIVar(solver="cd")``,
where the warm/cold identity needs solves that stop *on* the tolerance.
Its residual form serves ``UoILasso(solver="cd")``, the "plain LASSO"
statistical baselines, and the tests that cross-check ADMM against a
structurally different algorithm.

Both forms keep every per-coordinate scalar — the recurrence for
``rho_j``, the soft-threshold, the coordinate change and the stopping
test — in Python floats held in lists.  Python floats and numpy
float64 scalars are the same IEEE doubles, so this is the same
arithmetic in the same order as a numpy-scalar loop, without numpy's
per-scalar dispatch (which was most of a small solve's time).
"""

from __future__ import annotations

from typing import Sequence, cast

import numpy as np

from repro.telemetry.recorder import count as _tcount, gauge as _tgauge

__all__ = ["lasso_cd", "precompute_gram"]

#: Largest Gram dimension for which the covariance-update row update
#: ``G beta += G[j] * delta`` runs as a Python loop over list rows.
#: Above it the row update is one in-place numpy operation.  Both forms
#: give the same bits; the choice is speed only.  On a warm-started
#: 6-lambda path the list row is ~2x faster than the numpy row at
#: kdim 4, the two tie at kdim 24, and the list row is ~2x slower at
#: kdim 64 (crossover table in EXPERIMENTS.md, "Measured: coordinate
#: descent on Python floats").
LIST_ROW_MAX_KDIM = 24


def precompute_gram(
    X: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram cache for covariance-update coordinate descent.

    Returns ``(gram, zeros, col_sq)`` where ``gram = X'X`` and
    ``col_sq`` is its diagonal; replace the middle element with
    ``X.T @ y`` for each response and pass the triple as
    ``precomputed`` to :func:`lasso_cd`.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    gram = X.T @ X
    return gram, np.zeros(X.shape[1]), np.diag(gram).copy()


def lasso_cd(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    *,
    beta0: np.ndarray | None = None,
    max_iter: int = 2000,
    tol: float = 1e-9,
    precomputed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Solve ``argmin_b ||y - Xb||^2 + lam ||b||_1`` by coordinate descent.

    Parameters
    ----------
    X:
        ``(n, p)`` design matrix.
    y:
        ``(n,)`` response.
    lam:
        Penalty level, >= 0.
    beta0:
        Optional warm start.
    max_iter:
        Maximum number of full sweeps.
    tol:
        Stop when the max absolute coordinate change in a sweep is
        below ``tol``.
    precomputed:
        Optional ``(gram, Xty, col_sq)`` triple from
        :func:`precompute_gram`, switching the solver to glmnet-style
        *covariance updates*: each coordinate update costs ``O(p)``
        against the cached ``X'X`` instead of ``O(n)`` against the
        residual — a large win when many responses or many penalties
        share one design with ``p << n``.

    Notes
    -----
    For coordinate ``j`` with residual ``r`` (excluding ``j``'s own
    contribution), the single-coordinate problem

        min_b  ||r - x_j b||^2 + lam |b|

    has the closed form ``b = S_{lam/2}(x_j' r) / (x_j' x_j)``.
    Columns with zero norm keep a zero coefficient.

    An *active-set* strategy (standard in glmnet-style solvers) keeps
    the cost proportional to the solution's sparsity: after each full
    sweep, inner sweeps cycle only over the currently-nonzero
    coordinates until they stabilize, then one more full sweep checks
    whether any inactive coordinate violates its KKT condition; the
    solve ends only when a full sweep changes nothing beyond ``tol``.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")

    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if beta.shape != (p,):
        raise ValueError(f"beta0 shape {beta.shape} != ({p},)")

    half_lam = 0.5 * lam
    # The iterate, as Python floats; written back to an array on return.
    b = beta.tolist()
    all_indices = range(p)

    if precomputed is not None:
        gram, Xty, col_sq = precomputed
        if gram.shape != (p, p) or Xty.shape != (p,) or col_sq.shape != (p,):
            raise ValueError("precomputed triple has inconsistent shapes")
        # Covariance updates: rho_j = x_j'y - x_j'X beta + G_jj beta_j.
        xty = Xty.tolist()
        cs = col_sq.tolist()
        gram_beta = gram @ beta
        rows: list[list[float]] | None
        gb: list[float]
        if p <= LIST_ROW_MAX_KDIM:
            rows = gram.tolist()
            gb = gram_beta.tolist()
        else:
            # Reads through a float64 buffer's memoryview are Python
            # floats; the row update stays one numpy operation on the
            # same buffer, and nothing writes through the view.
            rows = None
            gb = cast("list[float]", memoryview(gram_beta))

        def sweep(indices: Sequence[int]) -> float:
            max_delta = 0.0
            for j in indices:
                cj = cs[j]
                if cj == 0.0:
                    continue
                old = b[j]
                rho_j = xty[j] - gb[j] + cj * old
                z = abs(rho_j) - half_lam
                new = 0.0 if z <= 0.0 else (z if rho_j > 0 else -z) / cj
                if new != old:
                    step = new - old
                    if rows is None:
                        np.add(gram_beta, gram[j] * step, out=gram_beta)
                    else:
                        row = rows[j]
                        for i in all_indices:
                            gb[i] += row[i] * step
                    b[j] = new
                    delta = abs(step)
                    if delta > max_delta:
                        max_delta = delta
            return max_delta

    else:
        cols = list(X.T)  # the column views X[:, j]
        cs = np.einsum("ij,ij->j", X, X).tolist()
        resid = y - X @ beta

        def sweep(indices: Sequence[int]) -> float:
            max_delta = 0.0
            for j in indices:
                cj = cs[j]
                if cj == 0.0:
                    continue
                old = b[j]
                col = cols[j]
                rho_j = float(col.dot(resid)) + cj * old
                # soft_threshold: np.sign(rho) * np.maximum(|rho| - k, 0),
                # where np.sign(+-0.0) is +0.0 and NaN propagates; a
                # negative rho below the threshold gives -0.0.
                m = abs(rho_j) - half_lam
                if m <= 0.0:
                    m = 0.0
                new = (m if rho_j > 0 else -m if rho_j < 0 else 0.0 * m) / cj
                if new != old:
                    np.add(resid, col * (old - new), out=resid)
                    b[j] = new
                    delta = abs(new - old)
                    if delta > max_delta:
                        max_delta = delta
            return max_delta

    sweeps_left = max_iter
    converged = False
    delta = np.inf
    while sweeps_left > 0:
        # Full sweep: updates everything and discovers new actives.
        delta = sweep(all_indices)
        sweeps_left -= 1
        if delta < tol:
            converged = True
            break
        # Inner sweeps over the active set only.
        while sweeps_left > 0:
            active = [j for j, v in enumerate(b) if v != 0.0]
            if not active:
                break
            delta = sweep(active)
            sweeps_left -= 1
            if delta < tol:
                break

    _tcount("cd.solves")
    _tcount("cd.sweeps", max_iter - sweeps_left)
    if converged:
        _tcount("cd.converged")
    else:
        # The solve stopped where the sweep budget ran out, not at the
        # tolerance — the returned point then depends on ``beta0``.
        # Anything relying on start-independence (notably the streaming
        # warm/cold identity) watches this counter.
        _tcount("cd.nonconverged")
    _tgauge("cd.last_delta", delta)
    return np.array(b)
