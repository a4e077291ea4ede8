"""Exact LASSO path by homotopy (LARS-lasso) for wide designs.

Solves the objective of :mod:`repro.linalg.admm` (paper eq. 2)

    ||y - X b||^2 + lam * ||b||_1

for a whole decreasing λ grid at once by following the solution path,
which is piecewise linear in λ (Osborne, Presnell & Turlach 2000;
Efron et al. 2004).  With ``gamma = lam / 2`` and correlations
``c = X'(y - X b)``, optimality reads ``|c_j| <= gamma`` everywhere and
``c_j = gamma * s_j`` on the active set ``A`` (``s_j = sign(b_j)``).
Between events the active coefficients are the exact affine function

    b_A(gamma) = w - gamma * d,   G_A w = X_A'y,   G_A d = s_A,

of ``gamma`` (``G_A = X_A'X_A``), so each step jumps straight to the
next *event*: an inactive variable's correlation reaching ``±gamma``
(join), an active coefficient reaching zero (drop), or the next grid
point.  On a bootstrap of an ``n < p`` design there are at most about
``rank(X)`` joins, so the path ends by construction, where ADMM on the
same rank-deficient problem may stop on ``max_iter`` instead.

Numerics:

* ``G_A`` is held as an upper Cholesky factor in LAPACK packed storage,
  whose first ``k`` columns are a prefix of the buffer: a join appends
  one column with one triangular solve (``dtpsv``), and the direction
  is one two-RHS ``dpptrs``.  A drop keeps the columns before the
  dropped one and the rows above it; the upper-Hessenberg block the
  later columns leave below it is re-triangularised by one QR
  (``dgeqrf``), so a drop costs a fixed number of calls however many
  columns follow it.  Every new pivot passes the test a joining column
  does (:data:`PIVOT_MIN`).
* The join times of both sides are one pass over ``(2, p)`` buffers,
  and the first drop is an ``argmax`` over the active set, with no
  per-step allocation.
* ``b_A`` is re-solved from ``(w, d)`` and ``c`` recomputed from the
  residual at every step, so neither drifts along the path.
* A join rate ``1 ∓ a_j`` at or below :data:`RATE_MIN` (``a = X'X_A d``)
  is "never": that is the 0/0 of a duplicate of an active column and
  of a column in the span of a rank-saturated active set.
* A variable dropped in one step cannot rejoin before the path has
  moved, which rules out LARS's drop/rejoin cycle at a kink.

Every grid solution is certified against the KKT conditions
(:func:`kkt_certified`).  A failed certificate, a failed factor
pivot or a path longer than its step bound makes
:func:`lasso_homotopy` return ``None``; the caller re-solves on ADMM.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dtpsv
from scipy.linalg.lapack import dgeqrf, dpptrs, dtpttr, dtrttp

from repro.telemetry.recorder import count as _tcount

__all__ = ["kkt_certified", "lasso_homotopy"]

#: Relative KKT tolerance of a certified solution: ``2|c_j| <= lam (1 + KKT_RTOL)``
#: for every ``j`` and ``|2 c_j - lam s_j| <= KKT_RTOL * lam`` on the support.
KKT_RTOL = 1e-8

#: Smallest squared Cholesky pivot of a joining column, relative to its
#: squared norm (the column's distance from the active span, squared).
PIVOT_MIN = 1e-10

#: Join rates ``1 ∓ a_j`` at or below this are never reached (0/0 joins).
RATE_MIN = 1e-9

#: Step bound per unit of ``min(n, p)`` (plus one step per grid point).
STEPS_PER_RANK = 8

#: Row ``0`` of the join-time pass is side ``+``, row ``1`` side ``-``:
#: ``∓c`` and ``∓a`` are ``c`` and ``a`` times these.
_SIDES = np.array([[-1.0], [1.0]])


def kkt_certified(corr: np.ndarray, beta: np.ndarray, lam: float) -> bool:
    """Whether ``beta`` minimises ``||y - Xb||^2 + lam |b|_1``.

    ``corr`` is ``X'(y - X beta)``.  The conditions are the subgradient
    equations up to :data:`KKT_RTOL`: ``2 |corr|_inf <= lam (1 + KKT_RTOL)``,
    and on the support ``2 corr_j`` equals ``lam * sign(beta_j)`` to within
    ``KKT_RTOL * lam`` (which includes the signs agreeing).
    """
    if corr.size and 2.0 * float(np.max(np.abs(corr))) > lam * (1.0 + KKT_RTOL):
        return False
    nz = beta != 0.0
    gap = np.abs(2.0 * corr[nz] - lam * np.sign(beta[nz]))
    return not gap.size or float(gap.max()) <= KKT_RTOL * lam


class _Path:
    """Active set, packed factor and per-step buffers of one path.

    Active variables are kept in join order in ``idx``; column ``i`` of
    ``XA`` is ``X[:, idx[i]]``, and ``sgn`` / ``xty`` hold their signs
    and ``X'y`` entries.  ``R`` is the upper Cholesky factor of
    ``XA'XA`` packed by columns.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        n, p = X.shape
        size = min(n, p)  # the most active variables a factor can hold
        self.X, self.y, self.size = X, y, size
        self.Xty = X.T @ y
        self.k = self.steps = self.drops = 0
        self.idx = np.empty(size, dtype=np.intp)
        self.sgn = np.empty(size)
        self.xty = np.empty(size)
        self.XA = np.empty((n, size), order="F")
        self.R = np.empty(size * (size + 1) // 2)
        self.wd = np.empty(2 * size)  # [X_A'y, s_A], solved in place to [w, d]
        self.bd = np.empty(2 * size)  # [b_A(gamma), d]
        self.U = np.empty((n, 2), order="F")  # [r, X_A d]
        self.CA = np.empty((p, 2), order="F")  # [c, a] = X' [r, X_A d]
        self.num = np.empty((2, p))  # per side (+, -): gamma ∓ c, clipped at 0
        self.den = np.empty((2, p))  # per side: the join rate 1 ∓ a
        self.ok = np.empty((2, p), dtype=bool)
        self.times = np.empty((2, p))  # per side: steps to the join, inf for never
        self.first = np.empty(p)  # the earlier side's join time
        self.sq = np.empty(size)  # squared norms of the active columns
        self.sd = np.empty(size)  # s_A * d, negative where |b_i| shrinks
        self.sb = np.empty(size)  # s_A * b_A, clipped at 0
        self.shrink = np.empty(size, dtype=bool)
        self.neg = np.empty(size)  # minus the steps to each drop, -inf for never

    # ------------------------------------------------------- factor
    def _factor_column(self, i: int) -> bool:
        """Append column ``i`` of ``XA`` to the packed factor."""
        off = i * (i + 1) // 2
        col = self.XA[:, i]
        g = self.R[off:off + i]
        np.matmul(self.XA[:, :i].T, col, out=g)
        if i:  # in place when f2py can; the assignment covers a copy
            g[:] = dtpsv(i, self.R[:off], g, lower=0, trans=1, overwrite_x=1)
        sq = self.sq[i] = float(col @ col)
        pivot = sq - float(g @ g)
        if not pivot > PIVOT_MIN * sq:
            return False
        self.R[off + i] = math.sqrt(pivot)
        return True

    def join(self, j: int, sign: float) -> bool:
        k = self.k
        if k == self.size:
            return False
        self.idx[k], self.sgn[k], self.xty[k] = j, sign, self.Xty[j]
        self.XA[:, k] = self.X[:, j]
        self.k = k + 1
        return self._factor_column(k)

    def drop(self, i: int) -> bool:
        """Remove active position ``i``; one QR re-triangularises the rest.

        The later columns keep their rows above ``i``.  Below it they
        form an upper-Hessenberg block whose R factor, with its rows'
        signs fixed so the diagonal is positive, is the new trailing
        factor: ``R'R`` is ``XA'XA`` without row and column ``i``.
        """
        k = self.k - 1
        for buf in (self.idx, self.sgn, self.xty, self.sq):
            buf[i:k] = buf[i + 1:k + 1]
        self.XA[:, i:k] = self.XA[:, i + 1:k + 1]
        self.k = k
        if i == k:  # the last column: the prefix is the factor
            return True
        full, _ = dtpttr(k + 1, self.R[:(k + 1) * (k + 2) // 2])
        qr, _, _, _ = dgeqrf(full[i:, i + 1:])
        full[:i, i:k] = full[:i, i + 1:]
        diag = qr.diagonal()
        np.multiply(qr[:k - i], np.sign(diag)[:, None], out=full[i:k, i:k])
        if not np.all(diag * diag > PIVOT_MIN * self.sq[i:k]):
            return False
        self.R[:k * (k + 1) // 2], _ = dtrttp(full[:k, :k])
        return True

    # ------------------------------------------------------ segment
    def solve(self) -> None:
        """``w`` and ``d`` of the current active set."""
        k = self.k
        if k:
            rhs = self.wd[:2 * k]
            rhs[:k] = self.xty[:k]
            rhs[k:] = self.sgn[:k]
            kk = k * (k + 1) // 2
            cols = rhs.reshape(2, k).T
            cols[:], info = dpptrs(k, self.R[:kk], cols, lower=0, overwrite_b=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of pptrs")

    def correlations(self, gamma: float) -> None:
        """``b_A(gamma)``, then ``c`` and ``a`` from the residual it leaves."""
        k = self.k
        w, d = self.wd[:k], self.wd[k:2 * k]
        b = self.bd[:k]
        np.multiply(d, -gamma, out=b)
        np.add(b, w, out=b)
        self.bd[k:2 * k] = d
        np.matmul(self.XA[:, :k], self.bd[:2 * k].reshape(2, k).T, out=self.U)
        r = self.U[:, 0]
        np.subtract(self.y, r, out=r)
        np.matmul(self.X.T, self.U, out=self.CA)

    def next_event(self, gamma: float, barred: int) -> tuple[float, int, float]:
        """``(t, j, sign)``: the step to the next join (``j >= 0``, with
        its sign) or drop (``j = -1 - position``); ``t = inf`` if none.

        A join of ``j`` on side ``±`` is ``max(gamma ∓ c_j, 0) / (1 ∓ a_j)``
        steps away, or never at a rate at or below :data:`RATE_MIN`.  Both
        sides are one pass over ``(2, p)`` rows; a tie goes to the lower
        index, then to ``+``.
        """
        k = self.k
        num, den, times = self.num, self.den, self.times
        np.multiply(self.CA[:, 0], _SIDES, out=num)
        np.add(num, gamma, out=num)
        np.maximum(num, 0.0, out=num)
        np.multiply(self.CA[:, 1], _SIDES, out=den)
        np.add(den, 1.0, out=den)
        np.greater(den, RATE_MIN, out=self.ok)
        times.fill(np.inf)
        np.divide(num, den, out=times, where=self.ok)
        first = self.first
        np.minimum(times[0], times[1], out=first)
        first[self.idx[:k]] = np.inf
        if barred >= 0:
            first[barred] = np.inf
        j = int(np.argmin(first))
        t = float(first[j])
        sign = 1.0 if times[0, j] <= times[1, j] else -1.0
        if k:
            # b_i reaches 0 after max(s_i b_i, 0) / -(s_i d_i) steps where
            # s_i d_i < 0; argmax of minus that takes the first earliest.
            sd, sb, neg = self.sd[:k], self.sb[:k], self.neg[:k]
            s = self.sgn[:k]
            np.multiply(s, self.bd[k:2 * k], out=sd)
            np.multiply(s, self.bd[:k], out=sb)
            np.maximum(sb, 0.0, out=sb)
            np.less(sd, 0.0, out=self.shrink[:k])
            neg.fill(-np.inf)
            np.divide(sb, sd, out=neg, where=self.shrink[:k])
            pos = int(np.argmax(neg))
            if -neg[pos] < t:
                return -float(neg[pos]), -1 - pos, 0.0
        return t, j, sign

    def follow(self, lambdas: np.ndarray, out: np.ndarray, max_steps: int) -> bool:
        """Fill ``out`` with the certified path at ``lambdas``; ``False``
        as soon as a row cannot be had (the rest of ``out`` is unset)."""
        gamma = float(np.max(np.abs(self.Xty))) if self.Xty.size else 0.0
        self.correlations(gamma)
        barred = -1  # dropped in the last step, so barred from rejoining
        for g, lam in enumerate(lambdas.tolist()):
            target = 0.5 * lam
            while target < gamma:
                t, j, sign = self.next_event(gamma, barred)
                self.steps += 1
                if gamma - t <= target:
                    gamma = target
                    self.correlations(gamma)
                    barred = -1
                    break
                gamma -= t
                if t > 0.0:
                    barred = -1
                if j >= 0:
                    if not self.join(j, sign):
                        return False
                else:
                    barred = int(self.idx[-1 - j])
                    self.drops += 1
                    if not self.drop(-1 - j):
                        return False
                if self.steps > max_steps:
                    return False
                self.solve()
                self.correlations(gamma)
            k = self.k
            out[g, self.idx[:k]] = self.bd[:k]
            if not kkt_certified(self.CA[:, 0], out[g], lam):
                return False
        return True


def lasso_homotopy(
    X: np.ndarray, y: np.ndarray, lambdas: np.ndarray
) -> np.ndarray | None:
    """Exact LASSO solutions at a decreasing λ grid: ``(q, p)``, or ``None``.

    Row ``g`` minimises ``||y - X b||^2 + lambdas[g] * ||b||_1``; a λ at
    or above this design's ``λ_max = 2 |X'y|_inf`` gives a zero row.
    Every row is KKT-certified (:func:`kkt_certified`).  ``None`` means
    some row could not be: a certificate failed, a joining column was
    numerically in the span of the active ones, or the path took more
    than ``STEPS_PER_RANK * min(n, p) + q`` steps.

    Telemetry: ``homotopy.paths``, ``homotopy.steps``, ``homotopy.drops``.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
    if lambdas.ndim != 1 or (lambdas < 0).any() or (np.diff(lambdas) > 0).any():
        raise ValueError("lambdas must be a non-negative, non-increasing 1-D grid")
    q = len(lambdas)
    path = _Path(X, y)
    out = np.zeros((q, p))
    ok = path.follow(lambdas, out, STEPS_PER_RANK * min(n, p) + q)
    _tcount("homotopy.paths")
    _tcount("homotopy.steps", path.steps)
    _tcount("homotopy.drops", path.drops)
    return out if ok else None
