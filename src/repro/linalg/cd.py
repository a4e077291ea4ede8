"""Cyclic coordinate-descent LASSO for paper eq. 2, ``||y - X b||^2 + lam * ||b||_1``.

:func:`lasso_cd_path` is the covariance form: from the Gram ``G = X'X``
and ``X'y`` alone, one call solves one response column's λ path.  It
serves ``var_path_columns`` (every :class:`repro.stream.RollingRefitter`
window and ``UoIVar(solver="cd")``, where the warm/cold identity needs
solves that stop *on* the tolerance) and the distributed VAR driver's
whole columns.  The residual form :func:`lasso_cd` serves
``UoILasso(solver="cd")``, the "plain LASSO" baselines, and the tests
that cross-check ADMM.

Both keep every per-coordinate scalar — the ``rho_j`` recurrence, the
soft-threshold, the coordinate change and the stopping test — in Python
floats held in lists: the same IEEE doubles, so the same arithmetic in
the same order as a numpy-scalar loop, without numpy's per-scalar
dispatch.  Between full sweeps the residual form sweeps the nonzero
coordinates until they settle; the covariance form takes one exact
active-set step (feature-sign search), ~1.9 sweeps per solve on
``stream_rolling``'s correlated lags instead of ~78.  Only a full sweep
declares convergence.
"""

from __future__ import annotations

from typing import Callable, Sequence, cast

import numpy as np

from scipy.linalg.lapack import dpotrf, dpotrs

from repro.telemetry.recorder import count as _tcount, gauge as _tgauge

__all__ = ["lasso_cd", "lasso_cd_path"]

#: Largest Gram dimension for which the covariance row update
#: ``G beta += G[j] * delta`` is a Python loop over list rows; above it,
#: one in-place numpy operation.  Same bits, speed only: the list row is
#: ~2x faster at kdim 4, ties at 24 and is ~2x slower at 64
#: (EXPERIMENTS.md, "Measured: coordinate descent on Python floats").
LIST_ROW_MAX_KDIM = 24


def _descend(
    sweep: Callable[[Sequence[int]], float],
    exact_step: Callable[[], int | None] | None,
    b: list[float], max_iter: int, tol: float, tally: list[int],
) -> float:
    """The outer loop of both kernels on the iterate ``b``: a full sweep,
    then ``exact_step`` or (without one, or on a singular active Gram)
    inner sweeps settle the active set.  Adds ``(sweeps, exact steps,
    fallbacks, converged)`` to ``tally``; returns the last delta."""
    sweeps_left = max_iter
    delta = np.inf
    all_indices = range(len(b))
    while sweeps_left > 0:
        delta = sweep(all_indices)
        sweeps_left -= 1
        if delta < tol:
            tally[3] += 1
            break
        if exact_step is not None and sweeps_left > 0:
            taken = exact_step()
            if taken is not None:
                tally[1] += taken
                continue
            tally[2] += 1
        # Inner sweeps over the active set only.
        while sweeps_left > 0:
            active = [j for j, v in enumerate(b) if v != 0.0]
            if not active:
                break
            delta = sweep(active)
            sweeps_left -= 1
            if delta < tol:
                break
    tally[0] += max_iter - sweeps_left
    return delta


def _report(solves: int, tally: list[int], delta: float) -> None:
    """Bump the ``cd.*`` counters once for ``solves`` solves.  A
    nonconverged solve stopped on ``max_iter``, where its point depends
    on its start (the streaming warm/cold identity watches for it)."""
    sweeps, exact_steps, fallbacks, converged = tally
    _tcount("cd.solves", solves)
    _tcount("cd.sweeps", sweeps)
    if exact_steps:
        _tcount("cd.exact_steps", exact_steps)
    if fallbacks:
        _tcount("cd.exact_fallbacks", fallbacks)
    if converged:
        _tcount("cd.converged", converged)
    if converged < solves:
        _tcount("cd.nonconverged", solves - converged)
    _tgauge("cd.last_delta", delta)


def lasso_cd_path(
    gram: np.ndarray,
    xty: np.ndarray,
    lambdas: Sequence[float] | np.ndarray,
    *,
    seed: Callable[[int, np.ndarray | None], np.ndarray | None] | None = None,
    max_iter: int = 2000,
    tol: float = 1e-9,
) -> np.ndarray:
    """One response's LASSO path from ``G = X'X`` and ``X'y``: ``(q, kdim)``.

    Row ``j`` solves ``lambdas[j]`` by covariance updates, ``O(kdim)``
    per coordinate: ``b_j = S_{lam/2}(rho_j) / G_jj`` with ``rho_j =
    (X'y)_j - (G b)_j + G_jj b_j``; zero-norm columns keep their value.
    Solve ``j`` starts from ``seed(j, prev)`` (``prev``: row ``j - 1``,
    ``None`` at ``j = 0``; a ``None`` start is zero), by default from
    the previous solution, and runs at most ``max_iter`` sweeps.  The
    ``cd.*`` counters are bumped once per call, with its totals.
    """
    p = gram.shape[0]
    if gram.shape != (p, p) or xty.shape != (p,):
        raise ValueError(f"gram {gram.shape} and xty {xty.shape} are inconsistent")
    lams = [float(lam) for lam in lambdas]
    if lams and min(lams) < 0:
        raise ValueError(f"lambdas must be >= 0, got {min(lams)}")
    out = np.empty((len(lams), p))
    # Read once per column: rho_j = x_j'y - (G beta)_j + G_jj beta_j.
    xt = xty.tolist()
    cs = gram.diagonal().tolist()
    rows = gram.tolist() if p <= LIST_ROW_MAX_KDIM else None
    all_indices = range(p)

    def sweep(indices: Sequence[int]) -> float:
        max_delta = 0.0
        for j in indices:
            cj = cs[j]
            if cj == 0.0:
                continue
            old = b[j]
            rho_j = xt[j] - gb[j] + cj * old
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

    def exact_step() -> int | None:
        """Solve ``G_AA b = (X'y)_A - (lam / 2) s`` on the nonzero
        coordinates ``A`` with signs ``s`` (Lee et al., NIPS 2007),
        backing off to the first sign crossing and dropping it until the
        signs hold; zero-norm columns stay out of ``A``.  The back-off is
        numpy's elementwise IEEE operations, in numpy's order, on Python
        floats.  1: step taken; 0: nothing active; ``None``: singular."""
        active = [j for j in all_indices if b[j] != 0.0 and cs[j] != 0.0]
        if not active:
            return 0
        L, info = dpotrf(gram.take(active, 0).take(active, 1), lower=1)
        if info != 0:
            return None
        # The coordinates still in the system, with their iterate, sign
        # (np.sign: a NaN keeps itself) and right-hand side.
        kept = active
        now = [b[j] for j in active]
        s = [1.0 if v > 0.0 else -1.0 if v < 0.0 else v for v in now]
        rhs = [xt[j] - half_lam * sj for j, sj in zip(active, s)]
        while True:
            target = dpotrs(L, np.array(rhs), lower=1)[0].tolist()
            # now * s > 0 >= target * s: each crossing is in (0, 1]; the
            # iterate stops at the first (np.argmin's, NaN first).
            first, t = -1, 0.0
            for k, (tk, sk, nk) in enumerate(zip(target, s, now)):
                if tk * sk <= 0.0:
                    tc = nk / -(tk - nk)
                    if first < 0 or tc < t or tc != tc:
                        first, t = k, tc
                        if tc != tc:
                            break
            if first < 0:
                now = target
                break
            now = [nk + t * (tk - nk) for nk, tk in zip(now, target)]
            now[first] = 0.0
            # The first crossing leaves, and ties with it.
            stay = [
                k for k, (nk, sk) in enumerate(zip(now, s))
                if nk != 0.0 and not nk * sk <= 0.0
            ]
            kept, now, s, rhs = (
                [v[k] for k in stay] for v in (kept, now, s, rhs)
            )
            if not kept:
                break
            L, info = dpotrf(gram.take(kept, 0).take(kept, 1), lower=1)
            if info != 0:
                break  # stay at the crossing: already no worse
        for j in active:
            b[j] = 0.0
        for j, v in zip(kept, now):
            b[j] = v
        # G beta from scratch: no drift from the step's updates.
        if rows is None:
            np.matmul(gram, np.array(b), out=gram_beta)
        else:
            gb[:] = (gram @ np.array(b)).tolist()
        return 1

    tally = [0, 0, 0, 0]
    delta = np.inf
    prev: np.ndarray | None = None
    zeros = np.zeros(p)  # read-only: the start of unseeded solves
    for j, lam in enumerate(lams):
        start = prev if seed is None else seed(j, prev)
        beta = zeros if start is None else np.ascontiguousarray(start, dtype=float)
        if beta.shape != (p,):
            raise ValueError(f"seed shape {beta.shape} != ({p},)")
        # Per-solve state, read by the closures above.
        half_lam = 0.5 * lam
        b = beta.tolist()
        gram_beta = gram @ beta
        # Reads through a float64 buffer's memoryview are Python floats;
        # the numpy row update writes the same buffer.
        gb = (
            gram_beta.tolist() if rows is not None
            else cast("list[float]", memoryview(gram_beta))
        )
        delta = _descend(sweep, exact_step, b, max_iter, tol, tally)
        out[j] = b
        prev = out[j]
    _report(len(lams), tally, delta)
    return out


def lasso_cd(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    *,
    beta0: np.ndarray | None = None,
    max_iter: int = 2000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Solve ``argmin_b ||y - Xb||^2 + lam ||b||_1`` by coordinate descent.

    ``X`` is ``(n, p)``, ``y`` ``(n,)``, ``lam >= 0``; ``beta0`` is an
    optional warm start.  Coordinate ``j`` with residual ``r`` (without
    its own term) moves to ``S_{lam/2}(x_j' r) / (x_j' x_j)``; zero-norm
    columns keep a zero coefficient.  After each full sweep, inner
    sweeps settle the nonzero coordinates (the glmnet active set); the
    solve ends on a full sweep that moves no coordinate by ``tol``, or
    after ``max_iter`` sweeps.  Many responses or penalties on one
    design with ``p << n`` are cheaper through the Gram:
    :func:`lasso_cd_path`.
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

    tally = [0, 0, 0, 0]
    _report(1, tally, _descend(sweep, None, b, max_iter, tol, tally))
    return np.array(b)
