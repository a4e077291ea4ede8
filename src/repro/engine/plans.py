"""Concrete UoI plans for the serial/local estimators.

:class:`LassoPlan` and :class:`VarPlan` carry the exact numerics the
legacy ``UoILasso.fit`` / ``UoIVar.fit`` inlined — same solver calls,
same RNG draw order, same reduction arithmetic — expressed as engine
plans so any backend can run them.  The estimators in
:mod:`repro.core` are now thin adapters over these plans.

Granularity matches the legacy checkpoint unit: one chain per
bootstrap, one task per chain covering the whole λ path (keys
``serial-sel/k{k}``, ``serial-est/k{k}``, ...), so stores written
before the engine refactor resume bitwise-identically.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.core.bootstrap import (
    block_train_eval,
    bootstrap_train_eval,
    circular_block_bootstrap,
    iid_bootstrap,
)
from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.core.estimation import (
    best_support_per_bootstrap,
    prediction_loss,
    union_average,
)
from repro.core.selection import intersect_supports, support_family
from repro.engine.plan import ESTIMATION, SELECTION, PlanOutputs, Subproblem, UoIPlan
from repro.linalg.admm import LassoADMM
from repro.linalg.cd import lasso_cd, lasso_cd_path
from repro.linalg.homotopy import lasso_homotopy
from repro.linalg.lambda_grid import lambda_grid, lambda_grid_from_max
from repro.linalg.ols import ols_family_columns
from repro.telemetry.recorder import count as _tcount
from repro.var.lag import build_lag_matrices

__all__ = [
    "LassoPlan",
    "VarPlan",
    "lasso_path",
    "var_path_columns",
    "lifted_loss",
]

#: Nominal iteration count used only for dry-run cost estimates.
_EST_ITERS = 40.0


# ---------------------------------------------------------------------------
# stage kernels (moved verbatim from the legacy serial estimators)
# ---------------------------------------------------------------------------
def _homotopy_selection(config: UoILassoConfig, n: int, p: int) -> bool:
    """Whether selection on an ``n x p`` design runs the exact homotopy path.

    The regime follows the shape alone (``n < p``, the test that picks
    ADMM's Woodbury branch): ``solver="admm"`` fits of wide designs.
    """
    return config.solver == "admm" and n < p


def lasso_path(
    config: UoILassoConfig, X: np.ndarray, y: np.ndarray, lambdas: np.ndarray
) -> np.ndarray:
    """LASSO estimates for all λ on one bootstrap sample: ``(q, p)``.

    On ``n < p`` under ``solver="admm"`` this is the exact homotopy path
    (:func:`repro.linalg.homotopy.lasso_homotopy`); a path it cannot
    certify is re-solved on the ADMM path below and counted as
    ``homotopy.fallbacks``.
    """
    q, p = len(lambdas), X.shape[1]
    if _homotopy_selection(config, *X.shape):
        exact = lasso_homotopy(X, y, lambdas)
        if exact is not None:
            return exact
        _tcount("homotopy.fallbacks")
    out = np.empty((q, p))
    if config.solver == "admm":
        solver = LassoADMM(
            X,
            y,
            rho=config.rho,
            max_iter=config.max_iter,
            abstol=config.abstol,
            reltol=config.reltol,
        )
        beta = None
        for j, lam in enumerate(lambdas):
            res = solver.solve(float(lam), beta0=beta)
            beta = res.beta
            out[j] = beta
    else:
        beta = None
        for j, lam in enumerate(lambdas):
            beta = lasso_cd(
                X, y, float(lam), beta0=beta, max_iter=config.max_iter,
                tol=config.cd_tol,
            )
            out[j] = beta
    return out


def var_path_columns(
    config: UoILassoConfig,
    X: np.ndarray,
    Y: np.ndarray,
    lambdas: np.ndarray,
    warm_paths: np.ndarray | None = None,
    seeding: str = "path",
) -> np.ndarray:
    """Lifted λ-path via exact column decomposition: ``(q, kdim * p)``.

    Column ``c``'s coefficients occupy the slice
    ``[c * kdim, (c+1) * kdim)`` of ``vec B``.

    With ``solver="admm"`` all ``p`` columns share one factorization
    and advance together: one :meth:`LassoADMM.solve_columns` call per
    λ, seeds passed as ``(kdim, p)`` matrices.  Each column's numbers
    are those of its own single-response solve (bitwise when
    ``n >= kdim``, to ~1e-10 on the Woodbury branch).

    Seeding — where each solve's iterate *starts* — never changes what
    it converges to, so all three modes below produce identical
    supports **provided solves converge**; only iteration cost differs.
    A solve that exhausts ``max_iter`` stops at a start-dependent point
    instead (counted as ``admm.nonconverged`` / ``cd.nonconverged``):

    * ``seeding="path"`` (default): the classic warm-start chain — the
      solve at λ index ``j`` starts from the ``j - 1`` solution.
    * ``seeding="none"``: cold chains — every solve starts from zero.
      This is the baseline the streaming benchmark charges against.
    * ``warm_paths`` given — a previous ``(q, kdim * p)`` path for the
      *same* bootstrap chain (the preceding window of a rolling fit):
      the chain is seeded from the previous window and advanced by
      *delta transport*: λ_0 starts from ``warm_paths[0]`` and λ_j
      from ``beta_{j-1} + (warm_paths[j] - warm_paths[j-1])``, i.e.
      the current chain state pushed along the previous window's path
      step.  This is never worse than plain pathwise seeding (the
      transported step is ~the same λ-to-λ move) while letting a
      rolling fit inherit the previous window's solution geometry.
    """
    q = len(lambdas)
    kdim, p = X.shape[1], Y.shape[1]
    if seeding not in ("path", "none"):
        raise ValueError(f"unknown seeding mode {seeding!r}")
    if warm_paths is not None and warm_paths.shape != (q, kdim * p):
        raise ValueError(
            f"warm_paths shape {warm_paths.shape} != ({q}, {kdim * p})"
        )
    out = np.empty((q, kdim * p))

    def seed(
        col: slice, j: int, beta: np.ndarray | None
    ) -> np.ndarray | None:
        if warm_paths is not None:
            if j == 0 or beta is None:
                return warm_paths[0, col]
            return beta + (warm_paths[j, col] - warm_paths[j - 1, col])
        return beta if seeding == "path" else None

    if config.solver == "admm":
        # One factorization serves every output column (the Gram
        # depends on X alone), and one lock-step call per λ advances
        # all of them together: the seeds and the solution are the
        # (kdim, p) matrix B whose column-stacking is the row of `out`.
        solver = LassoADMM(
            X,
            Y[:, 0],
            rho=config.rho,
            max_iter=config.max_iter,
            abstol=config.abstol,
            reltol=config.reltol,
        )
        vec = None
        for j, lam in enumerate(lambdas):
            start = seed(slice(None), j, vec)
            if start is not None:
                start = start.reshape((kdim, p), order="F")
            results = solver.solve_columns(Y, float(lam), beta0=start)
            vec = np.concatenate([res.beta for res in results], out=out[j])
        return out

    # Covariance-update CD: one X'X per bootstrap serves every column
    # and penalty (the cd analogue of the shared ADMM factorization),
    # and one call per column runs its λ path.
    Xc = np.ascontiguousarray(X, dtype=float)
    gram = Xc.T @ Xc
    for c in range(p):
        col = slice(c * kdim, (c + 1) * kdim)
        out[:, col] = lasso_cd_path(
            gram, X.T @ Y[:, c], lambdas, seed=functools.partial(seed, col),
            max_iter=config.max_iter, tol=config.cd_tol,
        )
    return out


def lifted_loss(X: np.ndarray, Y: np.ndarray, vec_beta: np.ndarray) -> float:
    """Mean squared error of ``vec B`` over all output columns."""
    kdim, p = X.shape[1], Y.shape[1]
    B = vec_beta.reshape((kdim, p), order="F")
    resid = Y - X @ B
    return float((resid**2).sum() / max(resid.size, 1))


def _require_finite(**arrays: np.ndarray) -> None:
    for name, a in arrays.items():  # NaN / inf would zero the fit silently
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains NaN or inf")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------
class LassoPlan(UoIPlan):
    """UoI_LASSO (Algorithm 1) as an engine plan.

    All bootstrap indices are drawn in ``__init__`` from one
    ``default_rng(random_state)`` stream in the legacy order (B1
    selection draws, then B2 train/eval draws), so resumed and
    cross-backend runs replay the exact serial draws.
    """

    kind = "serial_uoi_lasso"

    def __init__(
        self, config: UoILassoConfig, X: np.ndarray, y: np.ndarray
    ) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, p = X.shape
        if y.shape != (n,):
            raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
        _require_finite(X=X, y=y)
        self.config = config
        self.n, self.p = n, p
        self.q = config.n_lambdas
        self.B1 = config.n_selection_bootstraps
        self.B2 = config.n_estimation_bootstraps

        self.x_mean = X.mean(axis=0) if config.fit_intercept else np.zeros(p)
        self.y_mean = float(y.mean()) if config.fit_intercept else 0.0
        self.Xc = X - self.x_mean
        self.yc = y - self.y_mean

        self.lambdas = lambda_grid(
            self.Xc, self.yc, num=config.n_lambdas, eps=config.lambda_min_ratio
        )
        rng = np.random.default_rng(config.random_state)
        self.selection_idx = [iid_bootstrap(n, rng) for _ in range(self.B1)]
        self.estimation_idx = [
            bootstrap_train_eval(n, rng, train_frac=config.train_frac)
            for _ in range(self.B2)
        ]

        self.family: np.ndarray | None = None
        self.outputs: PlanOutputs | None = None

    # -------------------------------------------------------------- API
    def meta(self) -> dict:
        cfg = self.config
        return {
            "kind": "serial_uoi_lasso",
            "n": self.n,
            "p": self.p,
            "q": cfg.n_lambdas,
            "B1": cfg.n_selection_bootstraps,
            "B2": cfg.n_estimation_bootstraps,
            "random_state": cfg.random_state,
            "intersection_frac": cfg.intersection_frac,
            **cfg.solver_meta(),
            # Wide fits select on the homotopy path, whose payloads differ
            # from the ADMM ones older stores of the same config hold.
            **(
                {"selection": "homotopy"}
                if _homotopy_selection(cfg, self.n, self.p)
                else {}
            ),
        }

    def chains(self, stage: str) -> list[list[Subproblem]]:
        if stage == SELECTION:
            return [
                [Subproblem(SELECTION, k, None, f"serial-sel/k{k}", k, 0)]
                for k in range(self.B1)
            ]
        return [
            [Subproblem(ESTIMATION, k, None, f"serial-est/k{k}", k, 0)]
            for k in range(self.B2)
        ]

    def run_chain(
        self,
        stage: str,
        tasks: list[Subproblem],
        recovered: dict[str, dict[str, np.ndarray]],
        emit: Callable[[Subproblem, dict[str, np.ndarray]], None],
    ) -> None:
        (task,) = tasks
        k = task.bootstrap
        if stage == SELECTION:
            idx = self.selection_idx[k]
            betas = lasso_path(self.config, self.Xc[idx], self.yc[idx], self.lambdas)
            emit(task, {"betas": betas})
        else:
            train_idx, eval_idx = self.estimation_idx[k]
            est = ols_family_columns(
                self.Xc[train_idx], self.yc[train_idx, None], self.family
            )
            # Materialize the eval split once, not once per support
            # (was ALLOC602: loop-invariant fancy index).
            X_ev, y_ev = self.Xc[eval_idx], self.yc[eval_idx]
            losses = np.empty(self.q)
            for j in range(self.q):
                losses[j] = prediction_loss(X_ev, y_ev, est[j])
            emit(task, {"estimates": est, "losses": losses})

    def reduce(
        self, stage: str, results: dict[str, dict[str, np.ndarray]]
    ) -> None:
        cfg = self.config
        if stage == SELECTION:
            betas = np.empty((self.B1, self.q, self.p))
            for k in range(self.B1):
                betas[k] = results[f"serial-sel/k{k}"]["betas"]
            self.family = support_family(betas, frac=cfg.intersection_frac)
            return
        losses = np.empty((self.B2, self.q))
        estimates = np.empty((self.B2, self.q, self.p))
        for k in range(self.B2):
            rec = results[f"serial-est/k{k}"]
            estimates[k] = rec["estimates"]
            losses[k] = rec["losses"]
        winners = best_support_per_bootstrap(losses, rule=cfg.selection_rule)
        coef = union_average(estimates[np.arange(self.B2), winners])
        self.outputs = PlanOutputs(
            coef=coef,
            supports=self.family,
            losses=losses,
            winners=winners,
            lambdas=self.lambdas,
        )

    def finalize(self) -> PlanOutputs:
        if self.outputs is None:
            raise RuntimeError("plan has not been reduced yet")
        return self.outputs

    def estimate_flops(self) -> dict[str, float]:
        n, p, q = float(self.n), float(self.p), float(self.q)
        if _homotopy_selection(self.config, self.n, self.p):
            # ~min(n, p) path steps, each two GEMVs with X (residual and
            # direction correlations) plus active-set solves of <= n^2.
            per_sel = n * (4 * n * p + n * n)
        else:
            per_sel = 2 * n * p * p + (2 / 3) * p**3 + q * _EST_ITERS * 4 * n * p
        per_est = q * (2 * n * p * p + (2 / 3) * p**3)
        return {
            SELECTION: self.B1 * per_sel,
            ESTIMATION: self.B2 * per_est,
        }


class VarPlan(UoIPlan):
    """UoI_VAR (Algorithm 2) as an engine plan.

    The series is lifted to the lag matrices in ``__init__``; block
    bootstraps are pre-drawn in the legacy order.  Tasks solve the
    lifted problem via the exact column decomposition.
    """

    kind = "serial_uoi_var"

    def __init__(
        self,
        config: UoIVarConfig,
        series: np.ndarray,
        *,
        warm_start: dict[int, np.ndarray] | None = None,
        keep_paths: bool = False,
        chain_seeding: str = "path",
    ) -> None:
        """Build the plan for ``series`` under ``config``.

        Parameters
        ----------
        warm_start:
            Optional seeding for the selection λ-sweeps: a mapping from
            bootstrap index ``k`` to that chain's ``(q, kdim * p)``
            coefficient path from a previous fit (see
            ``selection_paths``), typically the preceding window of a
            rolling stream fit.  Seeding moves solver starting points
            only, so — provided solves converge — supports and final
            coefficients are bitwise what a cold fit of the same
            ``series`` produces and only iteration cost changes; a
            solve that runs out of ``max_iter`` stops where its start
            left it.  Chains without an entry fall back to the default
            pathwise seeding.
        keep_paths:
            Harvest each selection chain's full coefficient path into
            ``self.selection_paths`` during ``reduce`` (at the cost of
            shipping ``(q, kdim * p)`` per chain through the result
            payloads), so a subsequent plan can be warm-started from
            this one.
        chain_seeding:
            Seeding mode for chains *without* a ``warm_start`` entry:
            ``"path"`` (default, the classic pathwise warm-start chain)
            or ``"none"`` (cold chains, every solve from zero — the
            baseline leg of ``benchmarks/bench_stream.py``).
        """
        if chain_seeding not in ("path", "none"):
            raise ValueError(f"unknown chain_seeding mode {chain_seeding!r}")
        lcfg = config.lasso
        _require_finite(series=series)
        Y, X = build_lag_matrices(
            series, config.order, add_intercept=config.fit_intercept
        )
        m, p = Y.shape
        kdim = X.shape[1]
        self.config = config
        self.X, self.Y = X, Y
        self.m, self.p, self.kdim = m, p, kdim
        self.q = lcfg.n_lambdas
        self.B1 = lcfg.n_selection_bootstraps
        self.B2 = lcfg.n_estimation_bootstraps

        self.lambdas = lambda_grid_from_max(
            2.0 * float(np.max(np.abs(X.T @ Y))),
            num=lcfg.n_lambdas,
            eps=lcfg.lambda_min_ratio,
        )
        rng = np.random.default_rng(lcfg.random_state)
        L = config.block_length
        self.selection_idx = [
            circular_block_bootstrap(m, rng, block_length=L)
            for _ in range(self.B1)
        ]
        self.estimation_idx = [
            block_train_eval(m, rng, block_length=L, train_frac=lcfg.train_frac)
            for _ in range(self.B2)
        ]

        self.keep_paths = keep_paths
        self.chain_seeding = chain_seeding
        self.warm_start: dict[int, np.ndarray] = {}
        if warm_start:
            shape = (self.q, self.kdim * self.p)
            for k, path in warm_start.items():
                path = np.asarray(path, dtype=float)
                if path.shape != shape:
                    raise ValueError(
                        f"warm_start[{k}] shape {path.shape} != {shape}"
                    )
                if 0 <= k < self.B1:
                    self.warm_start[int(k)] = path

        self.family: np.ndarray | None = None
        self.selection_paths: dict[int, np.ndarray] = {}
        self.outputs: PlanOutputs | None = None

    # -------------------------------------------------------------- API
    def meta(self) -> dict:
        cfg, lcfg = self.config, self.config.lasso
        return {
            "kind": "serial_uoi_var",
            "m": self.m,
            "p": self.p,
            "kdim": self.kdim,
            "order": cfg.order,
            "block_length": cfg.block_length,
            "q": lcfg.n_lambdas,
            "B1": lcfg.n_selection_bootstraps,
            "B2": lcfg.n_estimation_bootstraps,
            "random_state": lcfg.random_state,
            "intersection_frac": lcfg.intersection_frac,
            **lcfg.solver_meta(),
            # Seeding changes intermediate path iterates (never
            # supports or coefficients), and keep_paths changes payload
            # contents — either difference makes a checkpoint store
            # non-interchangeable at the payload level, so all three
            # are part of the plan identity.
            "warm": sorted(self.warm_start),
            "keep_paths": self.keep_paths,
            "chain_seeding": self.chain_seeding,
        }

    def chains(self, stage: str) -> list[list[Subproblem]]:
        if stage == SELECTION:
            return [
                [Subproblem(SELECTION, k, None, f"serial-var-sel/k{k}", k, 0)]
                for k in range(self.B1)
            ]
        return [
            [Subproblem(ESTIMATION, k, None, f"serial-var-est/k{k}", k, 0)]
            for k in range(self.B2)
        ]

    def run_chain(
        self,
        stage: str,
        tasks: list[Subproblem],
        recovered: dict[str, dict[str, np.ndarray]],
        emit: Callable[[Subproblem, dict[str, np.ndarray]], None],
    ) -> None:
        lcfg = self.config.lasso
        (task,) = tasks
        k = task.bootstrap
        if stage == SELECTION:
            idx = self.selection_idx[k]
            betas = var_path_columns(
                lcfg,
                self.X[idx],
                self.Y[idx],
                self.lambdas,
                warm_paths=self.warm_start.get(k),
                seeding=self.chain_seeding,
            )
            payload = {"masks": betas != 0.0}
            if self.keep_paths:
                payload["betas"] = betas
            emit(task, payload)
        else:
            train_idx, eval_idx = self.estimation_idx[k]
            est = ols_family_columns(
                self.X[train_idx], self.Y[train_idx], self.family
            )
            # Materialize the eval split once, not once per support
            # (was ALLOC602: loop-invariant fancy index).
            A_ev, B_ev = self.X[eval_idx], self.Y[eval_idx]
            losses = np.empty(self.q)
            for j in range(self.q):
                losses[j] = lifted_loss(A_ev, B_ev, est[j])
            emit(task, {"estimates": est, "losses": losses})

    def reduce(
        self, stage: str, results: dict[str, dict[str, np.ndarray]]
    ) -> None:
        lcfg = self.config.lasso
        if stage == SELECTION:
            masks = np.empty((self.B1, self.q, self.kdim * self.p), dtype=bool)
            for k in range(self.B1):
                rec = results[f"serial-var-sel/k{k}"]
                masks[k] = rec["masks"]
                if self.keep_paths and "betas" in rec:
                    self.selection_paths[k] = np.asarray(rec["betas"], dtype=float)
            self.family = intersect_supports(masks, frac=lcfg.intersection_frac)
            return
        losses = np.empty((self.B2, self.q))
        estimates = np.empty((self.B2, self.q, self.kdim * self.p))
        for k in range(self.B2):
            rec = results[f"serial-var-est/k{k}"]
            estimates[k] = rec["estimates"]
            losses[k] = rec["losses"]
        winners = best_support_per_bootstrap(losses, rule=lcfg.selection_rule)
        vec_coef = union_average(estimates[np.arange(self.B2), winners])
        self.outputs = PlanOutputs(
            coef=vec_coef,
            supports=self.family,
            losses=losses,
            winners=winners,
            lambdas=self.lambdas,
            extra={"p": self.p, "kdim": self.kdim},
        )

    def finalize(self) -> PlanOutputs:
        if self.outputs is None:
            raise RuntimeError("plan has not been reduced yet")
        return self.outputs

    def estimate_flops(self) -> dict[str, float]:
        m, kdim, p, q = (
            float(self.m),
            float(self.kdim),
            float(self.p),
            float(self.q),
        )
        per_col = 2 * m * kdim * kdim + (2 / 3) * kdim**3
        per_sel = p * (per_col + q * _EST_ITERS * 4 * m * kdim)
        per_est = q * p * per_col
        return {
            SELECTION: self.B1 * per_sel,
            ESTIMATION: self.B2 * per_est,
        }
