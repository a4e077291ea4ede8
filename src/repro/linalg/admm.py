"""Serial dense LASSO-ADMM (the paper's core "Solve" kernel).

The paper solves the constrained convex program of its eq. (5)

    minimize f(x) + g(z)   subject to x - z = 0
    f(x) = ||y - X x||^2,  g(z) = lam * ||z||_1

with the Alternating Direction Method of Multipliers (Boyd et al.
2011).  The iteration is

    x^{k+1} = (2 X'X + rho I)^{-1} (2 X'y + rho (z^k - u^k))
    z^{k+1} = S_{lam/rho}(alpha x^{k+1} + (1-alpha) z^k + u^k)
    u^{k+1} = u^k + alpha x^{k+1} + (1-alpha) z^k - z^{k+1}

with the over-relaxation ``alpha`` fixed at :data:`ALPHA`.

Setting ``lam = 0`` turns the soft-threshold into the identity and the
iteration converges to ordinary least squares — exactly how the paper
implements OLS for the model-estimation stage ("by setting
regularization parameter λ to 0").

The penalty ``rho`` is fixed for the life of a solver, so the x-update
factorization ``2 X'X + rho I`` (Cholesky; or the Woodbury form when
n < p) is computed **once** per design matrix and reused across all λ
values and warm starts, mirroring the cached-factorization optimization
in the C++/MKL implementation.

The penalty ``rho`` defaults to the geometric mean of the extreme
non-zero eigenvalues of ``2 X'X`` (:func:`spectral_rho`): the
iteration's contraction rate depends on ``rho`` relative to that
spectrum, so a fixed ``rho = 1`` against a Gram of scale 10^3 spends
the whole ``max_iter`` budget on a transient, while the scaled value
stops on tolerance and makes iteration counts invariant to the units
of ``X``.
"""

from __future__ import annotations

import functools
import math

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from repro.linalg.soft_threshold import soft_threshold_into
from repro.perf.pool import Workspace
from repro.telemetry.recorder import count as _tcount, gauge as _tgauge

__all__ = ["ADMMResult", "LassoADMM", "gram_extremes", "lasso_admm", "spectral_rho"]

#: Over-relaxation ``alpha`` of every iteration (Boyd §3.4.3; 1.0 would
#: disable it).
ALPHA = 1.5


@dataclass
class ADMMResult:
    """Outcome of one ADMM solve.

    Attributes
    ----------
    beta:
        ``(p,)`` solution vector (the consensus variable ``z``, which
        is exactly sparse thanks to the soft-threshold).
    iterations:
        Number of ADMM iterations performed.
    converged:
        Whether both primal and dual residuals met their tolerances.
    primal_residual, dual_residual:
        Final residual norms (Boyd et al. 2011, §3.3).
    objective:
        ``||y - X beta||^2 + lam ||beta||_1``, computed when first read.
    history:
        Per-iteration ``(primal_residual, dual_residual, objective)``
        triples, kept only when ``record_history=True`` was requested.
        Always a list — **empty** (never ``None``) when recording is
        off, so callers can iterate unconditionally.
    dual:
        ``(p,)`` final scaled dual variable ``u``; feed it back as
        ``u0`` (with ``beta`` as ``beta0``) to warm-start a re-solve of
        a nearby problem.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    history: list[tuple[float, float, float]] = field(default_factory=list)
    dual: np.ndarray | None = None
    _objective: functools.partial[float] | float = field(  # beta -> objective
        default=math.nan, repr=False, compare=False
    )

    @property
    def objective(self) -> float:
        if callable(self._objective):
            self._objective = self._objective(self.beta)
        return self._objective


def gram_extremes(gram: np.ndarray) -> tuple[float, float]:
    """``(lambda_min+, lambda_max)`` of a symmetric PSD matrix.

    ``lambda_min+`` is the smallest eigenvalue above the rank cut-off
    ``size * eps * lambda_max`` (``numpy.linalg.matrix_rank``'s rule),
    so the numerically-zero eigenvalues of a rank-deficient Gram
    (``n < p``, bootstrap-duplicated rows, duplicated columns) never
    pass for the bottom of the spectrum.  ``(0.0, 0.0)`` when the
    matrix is empty or has no positive eigenvalue.
    """
    if gram.shape[0] == 0:
        return 0.0, 0.0
    w = np.linalg.eigvalsh(gram)
    hi = float(w[-1])
    if not hi > 0.0:
        return 0.0, 0.0
    cut = gram.shape[0] * np.finfo(float).eps * hi
    return float(w[np.searchsorted(w, cut, side="right")]), hi


def spectral_rho(lo: float, hi: float) -> float:
    """Default ADMM penalty ``sqrt(lo * hi)`` for a Gram spectrum.

    ``lo``/``hi`` are :func:`gram_extremes` of ``2 X'X``.  The geometric
    mean balances the slowest primal and dual modes of the x-update
    ``(2 X'X + rho I)^{-1}``; a design without a positive eigenvalue
    (all-zero, or a single constant column after centering) has no
    scale to take and falls back to 1.0.
    """
    return math.sqrt(lo * hi) if lo > 0.0 else 1.0


def _count_solve(result: ADMMResult, rho: float) -> ADMMResult:
    """Telemetry for one finished solve (one response column).

    One soft-threshold per iteration; ``rho`` is the solver's penalty.
    No-ops unless a telemetry recorder is installed for
    this run.
    """
    _tcount("admm.solves")
    _tcount("admm.iterations", result.iterations)
    _tcount("admm.soft_thresholds", result.iterations)
    _tcount("admm.converged" if result.converged else "admm.nonconverged")
    _tgauge("admm.primal_residual", result.primal_residual)
    _tgauge("admm.dual_residual", result.dual_residual)
    _tgauge("admm.rho", rho)
    return result


class LassoADMM:
    """Reusable LASSO-ADMM solver bound to one design matrix.

    Parameters
    ----------
    X:
        ``(n, p)`` design matrix.
    y:
        ``(n,)`` response.
    rho:
        ADMM penalty parameter (> 0), or ``None`` (default) to take
        :func:`spectral_rho` of this design — ``sqrt(lambda_min+ *
        lambda_max)`` of the Gram the constructor forms anyway, one
        ``eigvalsh`` per design.  :attr:`rho` holds the resolved value.
        An explicit float is used as given.  Either way it stays fixed:
        one factorization per design serves every solve.
    max_iter:
        Iteration cap.
    abstol, reltol:
        Absolute and relative stopping tolerances.

    Notes
    -----
    The iteration runs allocation-free on a persistent
    :class:`repro.perf.pool.Workspace`: ``out=`` forms of the float
    operations of the plain allocating iteration, in the same order, so
    results are **bitwise equal** to it (the test-local
    ``reference_admm`` in ``tests/test_linalg_pool.py``; the bytes it
    saves are measured by ``benchmarks/bench_alloc.py``).

    The factorization strategy follows Boyd et al. §4.2: when
    ``n >= p`` we Cholesky-factor the ``p x p`` matrix
    ``2 X'X + rho I``; when ``n < p`` we factor the ``n x n`` matrix
    ``I + (2/rho) X X'`` and apply the matrix-inversion lemma.  Either
    way each subsequent solve is two triangular solves.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        rho: float | None = None,
        max_iter: int = 500,
        abstol: float = 1e-5,
        reltol: float = 1e-4,
    ) -> None:
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
        if rho is not None and rho <= 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        self.X = X
        self.y = y
        self.n, self.p = X.shape
        self.max_iter = int(max_iter)
        self.abstol = float(abstol)
        self.reltol = float(reltol)
        self._ws = Workspace()

        self._Xty2 = 2.0 * (X.T @ y)
        self._woodbury = self.n < self.p
        self._gram_base = (
            2.0 * (X @ X.T) if self._woodbury else 2.0 * (X.T @ X)
        )
        #: The penalty of every solve: the explicit argument, or the
        #: spectral default resolved from this design (``2 X X'`` on the
        #: Woodbury branch has the non-zero spectrum of ``2 X'X``).
        self.rho = (
            spectral_rho(*gram_extremes(self._gram_base))
            if rho is None
            else float(rho)
        )
        self._factorize()

    def _factorize(self) -> None:
        """Factor the x-update system for :attr:`rho`, once per design."""
        rho = self.rho
        if self._woodbury:
            small = self._gram_base / rho
            # Woodbury is only taken when n < p, so this eye is the
            # *small* system (min(n, p)²) — bounded by the guard the
            # shape interpreter cannot see.
            small = small + np.eye(self.n)  # repro: ignore[SHAPE102]
            self._chol = scipy.linalg.cho_factor(
                small, lower=True, check_finite=False
            )[0]
        else:
            gram = self._gram_base.copy()
            gram[np.diag_indices_from(gram)] += rho
            self._chol = scipy.linalg.cho_factor(
                gram, lower=True, check_finite=False
            )[0]
        _tcount("admm.factorizations")

    def _potrs(self, b: np.ndarray, *, overwrite: bool) -> np.ndarray:
        """Two triangular solves against the cached Cholesky factor.

        LAPACK ``dpotrs`` called directly: the ``cho_solve`` wrapper
        costs more than the solve itself on small systems, once per
        iteration.  ``b`` is one right-hand side or a Fortran-ordered
        ``(size, nrhs)`` block; with ``overwrite`` the solution lands
        in ``b``'s memory.
        """
        x, info = dpotrs(self._chol, b, lower=1, overwrite_b=overwrite)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def _solve_normal(self, q: np.ndarray) -> np.ndarray:
        """Solve ``(2 X'X + rho I) x = q`` on the cached factor, in place.

        Cholesky branch: two triangular solves.  Woodbury branch:
        ``q/rho - (2/rho^2) X' (I + (2/rho) X X')^{-1} X q`` in ``out=``
        forms on the workspace.  The returned array may alias ``q``
        (the caller is done with ``q`` by then).
        """
        rho = self.rho
        if not self._woodbury:
            return self._potrs(q, overwrite=True)
        ws = self._ws
        Xq = ws.array("w_Xq", self.n)
        np.matmul(self.X, q, out=Xq)
        inner = self._potrs(Xq, overwrite=True)
        corr = ws.array("w_corr", self.p)
        np.matmul(self.X.T, inner, out=corr)
        np.multiply(corr, 2.0 / rho**2, out=corr)
        x = ws.array("w_x", self.p)
        np.divide(q, rho, out=x)
        np.subtract(x, corr, out=x)
        return x

    def _solve_normal_columns(self, q: np.ndarray) -> np.ndarray:
        """:meth:`_solve_normal` for ``k`` right-hand sides at once.

        ``q`` is ``(k, p)`` C-ordered, one row per response column, so
        ``q.T`` is the Fortran-ordered block ``potrs`` solves in place:
        one call with ``nrhs = k``.  On the Woodbury branch the two
        GEMVs with ``X`` become two GEMMs around one ``n x n``
        multi-RHS solve.  The result may alias ``q``.
        """
        rho = self.rho
        if not self._woodbury:
            return self._potrs(q.T, overwrite=True).T
        ws = self._ws
        k = q.shape[0]
        Xq = ws.array("c_Xq", (k, self.n))
        np.matmul(q, self.X.T, out=Xq)
        self._potrs(Xq.T, overwrite=True)
        corr = ws.array("c_corr", (k, self.p))
        np.matmul(Xq, self.X, out=corr)
        np.multiply(corr, 2.0 / rho**2, out=corr)
        x = ws.array("c_x", (k, self.p))
        np.divide(q, rho, out=x)
        np.subtract(x, corr, out=x)
        return x

    def objective(self, beta: np.ndarray, lam: float) -> float:
        """Paper-eq.-(2) objective ``||y - X b||^2 + lam ||b||_1``."""
        return self._objective(self.y, beta, lam)

    def _objective(self, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
        resid = y - self.X @ beta
        return float(resid @ resid + lam * np.abs(beta).sum())

    def solve(
        self,
        lam: float,
        *,
        beta0: np.ndarray | None = None,
        u0: np.ndarray | None = None,
        record_history: bool = False,
    ) -> ADMMResult:
        """Solve the LASSO at penalty ``lam`` (``lam = 0`` gives OLS).

        Parameters
        ----------
        lam:
            Penalty level, >= 0.
        beta0:
            Optional warm start for ``z`` (and ``x``); used when
            sweeping a decreasing λ path.
        u0:
            Optional warm start for the scaled dual ``u``.  ADMM's
            convergence is governed by the dual as much as the primal,
            so re-solving a problem close to one already solved (e.g.
            the same λ on the next window of a rolling fit) converges
            far faster when the previous ``(z, u)`` pair seeds both
            variables; ``beta0`` alone restarts the dual from zero.
            Like ``beta0`` this moves the starting point only — the
            stopping tolerances decide the answer.
        record_history:
            Keep per-iteration residual norms in the result.
        """
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        # Every step runs in ``out=`` form on the workspace; the result
        # carries fresh copies, never a workspace buffer.
        p, y = self.p, self.y
        ws = self._ws
        z = ws.array("z", p)
        z_old = ws.array("z_old", p)
        u = ws.array("u", p)
        q = ws.array("q", p)
        x_hat = ws.array("x_hat", p)
        t = ws.array("t", p)
        scratch = ws.array("scratch", p)
        if beta0 is None:
            z[:] = 0.0
        else:
            b0 = np.asarray(beta0, dtype=float)
            if b0.shape != (p,):
                raise ValueError(f"beta0 shape {b0.shape} != ({p},)")
            np.copyto(z, b0)
        if u0 is None:
            u[:] = 0.0
        else:
            d0 = np.asarray(u0, dtype=float)
            if d0.shape != (p,):
                raise ValueError(f"u0 shape {d0.shape} != ({p},)")
            np.copyto(u, d0)
        history: list[tuple[float, float, float]] = []
        rho = self.rho
        sqrtp = np.sqrt(p)

        converged = False
        r_norm = s_norm = np.inf
        it = 0
        for it in range(1, self.max_iter + 1):
            # x = solve(2X'X + rho I, 2X'y + rho (z - u))
            np.subtract(z, u, out=q)
            np.multiply(q, rho, out=q)
            np.add(q, self._Xty2, out=q)
            x = self._solve_normal(q)
            # x_hat = alpha x + (1 - alpha) z
            np.multiply(x, ALPHA, out=x_hat)
            np.multiply(z, 1.0 - ALPHA, out=t)
            np.add(x_hat, t, out=x_hat)
            # z = S_{lam/rho}(x_hat + u), rotating z/z_old pointers
            np.add(x_hat, u, out=t)
            z, z_old = z_old, z
            soft_threshold_into(t, lam / rho, out=z, scratch=scratch)
            # u = (u + x_hat) - z
            u += x_hat
            u -= z

            np.subtract(x, z, out=t)
            r_norm = math.sqrt(float(t @ t))
            np.subtract(z, z_old, out=t)
            s_norm = rho * math.sqrt(float(t @ t))
            if record_history:
                history.append((r_norm, s_norm, self._objective(y, z, lam)))

            eps_pri = sqrtp * self.abstol + self.reltol * max(
                math.sqrt(float(x @ x)), math.sqrt(float(z @ z))
            )
            eps_dual = sqrtp * self.abstol + self.reltol * rho * math.sqrt(
                float(u @ u)
            )
            if r_norm < eps_pri and s_norm < eps_dual:
                converged = True
                break

        return _count_solve(ADMMResult(
            beta=z.copy(),
            iterations=it,
            converged=converged,
            primal_residual=r_norm,
            dual_residual=s_norm,
            history=history,
            dual=u.copy(),
            _objective=functools.partial(self._objective, y, lam=lam),
        ), rho)

    def solve_columns(
        self,
        Y: np.ndarray,
        lam: float,
        *,
        beta0: np.ndarray | None = None,
        u0: np.ndarray | None = None,
    ) -> list[ADMMResult]:
        """Solve the LASSO at ``lam`` for every column of ``Y`` on this design.

        The multivariate problems of a VAR lag regression share ``X``
        and therefore the cached factorization; only the response
        differs.  Result ``c`` is what ``LassoADMM(X, Y[:, c]).solve(lam,
        beta0=beta0[:, c], u0=u0[:, c])`` returns (``history`` stays
        empty).

        The columns advance in **lock step** as one matrix iterate: one
        ``potrs`` with ``nrhs = m`` per iteration (two GEMMs with ``X``
        around one ``n x n`` multi-RHS solve on the Woodbury branch) and
        elementwise z/u updates on the whole matrix, instead of ``m``
        interpreter round-trips.  The stopping test stays per column: a
        column that meets its own tolerances retires at that iteration
        with its result frozen, and the rest go on, up to ``max_iter``.
        On the Cholesky branch every float operation a column sees is
        the one the single-column solve performs (multi-RHS ``potrs``
        and the row-wise dot products are column-wise bitwise equal to
        their single-vector forms), so results are bitwise identical; on
        the Woodbury branch GEMM rounds differently from GEMV and
        coefficients agree to ~1e-10.

        Parameters
        ----------
        Y:
            ``(n, m)`` responses.
        lam:
            Penalty level, >= 0, shared by all columns.
        beta0, u0:
            Optional ``(p, m)`` warm starts, column ``c`` seeding
            response ``c`` (see :meth:`solve`).
        """
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != self.n:
            raise ValueError(f"Y shape {Y.shape} != ({self.n}, m)")
        m = Y.shape[1]
        seeds = []
        for name, seed in (("beta0", beta0), ("u0", u0)):
            if seed is not None:
                seed = np.asarray(seed, dtype=float)
                if seed.shape != (self.p, m):
                    raise ValueError(
                        f"{name} shape {seed.shape} != ({self.p}, {m})"
                    )
            seeds.append(seed)
        return self._solve_lockstep(Y, lam, *seeds)

    def _solve_lockstep(
        self,
        Y: np.ndarray,
        lam: float,
        beta0: np.ndarray | None,
        u0: np.ndarray | None,
    ) -> list[ADMMResult]:
        """:meth:`solve`'s iteration for all columns of ``Y`` at once.

        Iterates are ``(m, p)`` workspace slots, one C-contiguous row
        per response column, so a row is exactly the vector the
        single-column iteration holds and the transposed block is what
        ``potrs`` wants.  The first ``k`` rows are the columns still
        iterating; a retirement moves the survivors' state up and
        re-slices, nothing else allocates in the loop.
        """
        n, p, m = self.n, self.p, Y.shape[1]
        ws = self._ws
        Yt = ws.array("c_Yt", (m, n))
        np.copyto(Yt, Y.T)
        rhs = ws.array("c_rhs", (m, p))
        for c in range(m):
            # 2 X'y per column as the GEMV the single solve runs (one
            # GEMM would round differently).
            np.matmul(self.X.T, Yt[c], out=rhs[c])
        np.multiply(rhs, 2.0, out=rhs)
        Z = ws.array("c_z", (m, p))
        Z_old = ws.array("c_z_old", (m, p))
        U = ws.array("c_u", (m, p))
        if beta0 is None:
            Z[:] = 0.0
        else:
            np.copyto(Z, beta0.T)
        if u0 is None:
            U[:] = 0.0
        else:
            np.copyto(U, u0.T)
        Q = ws.array("c_q", (m, p))
        X_hat = ws.array("c_x_hat", (m, p))
        T = ws.array("c_t", (m, p))
        Scratch = ws.array("c_scratch", (m, p))
        # Rows: |x - z|, |z - z_old| (then s_norm), |x|, |z|, |u|.
        Norms = ws.array("c_norms", (5, m))
        Norms[:] = np.inf
        Eps = ws.array("c_eps", (2, m))
        Met = ws.array("c_met", (2, m), bool)
        Done = ws.array("c_done", m, bool)

        rho = self.rho
        kappa = lam / rho
        eps_floor = np.sqrt(p) * self.abstol
        rel_dual = self.reltol * rho
        frozen: dict[int, ADMMResult] = {}
        cols = list(range(m))  # response column held by each active row
        k, it = m, 0
        while k and it < self.max_iter:
            z, z_old, u, q, x_hat, t, scratch, b = (
                a[:k] for a in (Z, Z_old, U, Q, X_hat, T, Scratch, rhs)
            )
            norms, eps, met, done = Norms[:, :k], Eps[:, :k], Met[:, :k], Done[:k]
            dots = [row.reshape(k, 1, 1) for row in norms]
            for it in range(it + 1, self.max_iter + 1):
                # x = solve(2X'X + rho I, 2X'Y + rho (z - u))
                np.subtract(z, u, out=q)
                np.multiply(q, rho, out=q)
                np.add(q, b, out=q)
                x = self._solve_normal_columns(q)
                # x_hat = alpha x + (1 - alpha) z
                np.multiply(x, ALPHA, out=x_hat)
                np.multiply(z, 1.0 - ALPHA, out=t)
                np.add(x_hat, t, out=x_hat)
                # z = S_{lam/rho}(x_hat + u), rotating z/z_old pointers
                np.add(x_hat, u, out=t)
                z, z_old = z_old, z
                Z, Z_old = Z_old, Z
                soft_threshold_into(t, kappa, out=z, scratch=scratch)
                # u = (u + x_hat) - z
                u += x_hat
                u -= z

                # Per-column squared norms: a batched (1, p) @ (p, 1)
                # is the same BLAS dot ``t @ t`` runs on a vector.
                np.subtract(x, z, out=t)
                np.matmul(t[:, None, :], t[:, :, None], out=dots[0])
                np.subtract(z, z_old, out=t)
                np.matmul(t[:, None, :], t[:, :, None], out=dots[1])
                np.matmul(x[:, None, :], x[:, :, None], out=dots[2])
                np.matmul(z[:, None, :], z[:, :, None], out=dots[3])
                np.matmul(u[:, None, :], u[:, :, None], out=dots[4])
                np.sqrt(norms, out=norms)
                np.multiply(norms[1], rho, out=norms[1])
                # eps_pri, eps_dual and the unchanged per-column test
                np.maximum(norms[2], norms[3], out=eps[0])
                np.multiply(eps[0], self.reltol, out=eps[0])
                np.multiply(norms[4], rel_dual, out=eps[1])
                np.add(eps, eps_floor, out=eps)
                np.less(norms[:2], eps, out=met)
                np.logical_and(met[0], met[1], out=done)
                if done.any():
                    break
            else:
                break
            for i in np.flatnonzero(done):
                frozen[cols[i]] = self._column_result(
                    Y[:, cols[i]], z[i], u[i], lam, it, True, norms[:, i]
                )
            keep = np.flatnonzero(~done)
            k = len(keep)
            for full in (Z, U, rhs):
                full[:k] = full[keep]
            Norms[:, :k] = norms[:, keep]
            cols = [cols[i] for i in keep]
        for i in range(k):
            frozen[cols[i]] = self._column_result(
                Y[:, cols[i]], Z[i], U[i], lam, it, False, Norms[:, i]
            )
        return [_count_solve(frozen[c], rho) for c in range(m)]

    def _column_result(
        self,
        y: np.ndarray,
        z: np.ndarray,
        u: np.ndarray,
        lam: float,
        it: int,
        converged: bool,
        norms: np.ndarray,
    ) -> ADMMResult:
        """Freeze one lock-step column (copies out of the workspace)."""
        return ADMMResult(
            beta=z.copy(),
            iterations=it,
            converged=converged,
            primal_residual=float(norms[0]),
            dual_residual=float(norms[1]),
            dual=u.copy(),
            _objective=functools.partial(self._objective, y, lam=lam),
        )

    def solve_path(self, lams: np.ndarray) -> list[ADMMResult]:
        """Solve a decreasing λ path with warm starts between points."""
        results: list[ADMMResult] = []
        beta = None
        for lam in lams:
            res = self.solve(float(lam), beta0=beta)
            beta = res.beta
            results.append(res)
        return results


def lasso_admm(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    **kwargs,
) -> np.ndarray:
    """One-shot functional wrapper: LASSO solution for ``(X, y, lam)``.

    Keyword arguments are forwarded to :class:`LassoADMM`.
    """
    return LassoADMM(X, y, **kwargs).solve(lam).beta
