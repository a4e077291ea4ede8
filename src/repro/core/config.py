"""Hyperparameter configuration for the UoI estimators.

The defaults mirror the values the paper uses most often; individual
experiments override them (e.g. ``B1 = B2 = 5, q = 8`` for the
single-node runs, ``B1 = 40, B2 = 5`` for the sparse S&P fit).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["UoILassoConfig", "UoIVarConfig"]


@dataclass(frozen=True)
class UoILassoConfig:
    """Configuration of :class:`repro.core.uoi_lasso.UoILasso`.

    Attributes
    ----------
    n_lambdas:
        Size ``q`` of the regularization grid.
    lambda_min_ratio:
        Ratio of the smallest to the largest grid penalty.
    n_selection_bootstraps:
        ``B1`` — bootstraps intersected in model selection.
    n_estimation_bootstraps:
        ``B2`` — bootstraps unioned in model estimation.
    train_frac:
        Fraction of rows used for the estimation-stage training
        bootstrap; the remainder forms the held-out evaluation set.
    fit_intercept:
        Center the data and recover an intercept after the fit.
    solver:
        ``"admm"`` (the paper's solver) or ``"cd"`` (coordinate
        descent; useful as a cross-check).
    rho:
        ADMM penalty parameter, or ``None`` (default) to scale it to
        each design: ``sqrt(lambda_min+ * lambda_max)`` of the
        bootstrap's ``2 X'X``, resolved once per factorization by
        :class:`repro.linalg.admm.LassoADMM` (and agreed across ranks
        by one allreduce in the consensus solver).  An explicit float
        is used for every solve as given; ``rho=1.0`` was the default
        before the spectral one and leaves most selection solves
        stopping on ``max_iter``.
    max_iter:
        Per-solve iteration cap.
    abstol, reltol:
        ADMM stopping tolerances.
    cd_tol:
        Coordinate-descent sweep tolerance (``solver="cd"`` only).
    adapt_rho:
        Enable ADMM residual balancing (Boyd §3.4.1) in both the
        serial and consensus solvers.  It repairs a badly scaled fixed
        ``rho`` at the price of refactorizations (and of the lock-step
        VAR column solve, which needs one shared ``rho``); with the
        spectral default it does not reduce iterations further (see
        ``benchmarks/bench_ablation_rho.py``).
    selection_rule:
        How estimation picks each bootstrap's winning support:
        ``"min"`` (Algorithm 1's argmin) or ``"1se"`` (one-standard-
        error parsimony rule; see
        :func:`repro.core.estimation.best_support_per_bootstrap`).
    intersection_frac:
        Soft-intersection threshold for model selection: a feature
        survives at a given λ when it appears in at least this
        fraction of the B1 bootstraps.  1.0 (default) is the paper's
        strict intersection (eq. 3).
    random_state:
        Seed anchoring every bootstrap draw (identical seeds make the
        serial and distributed implementations bit-compatible in their
        resampling).
    """

    n_lambdas: int = 48
    lambda_min_ratio: float = 1e-3
    n_selection_bootstraps: int = 48
    n_estimation_bootstraps: int = 48
    train_frac: float = 0.8
    fit_intercept: bool = False
    solver: str = "admm"
    rho: float | None = None
    max_iter: int = 500
    abstol: float = 1e-5
    reltol: float = 1e-4
    cd_tol: float = 1e-7
    adapt_rho: bool = False
    selection_rule: str = "min"
    intersection_frac: float = 1.0
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.n_lambdas < 1:
            raise ValueError("n_lambdas must be >= 1")
        if not (0 < self.lambda_min_ratio < 1):
            raise ValueError("lambda_min_ratio must lie in (0, 1)")
        if self.n_selection_bootstraps < 1 or self.n_estimation_bootstraps < 1:
            raise ValueError("bootstrap counts must be >= 1")
        if not (0 < self.train_frac < 1):
            raise ValueError("train_frac must lie in (0, 1)")
        if self.solver not in ("admm", "cd"):
            raise ValueError(f"solver must be 'admm' or 'cd', got {self.solver!r}")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.selection_rule not in ("min", "1se"):
            raise ValueError(
                f"selection_rule must be 'min' or '1se', got {self.selection_rule!r}"
            )
        if not (0.0 < self.intersection_frac <= 1.0):
            raise ValueError("intersection_frac must lie in (0, 1]")

    def with_(self, **overrides) -> "UoILassoConfig":
        """Copy with some fields replaced."""
        return replace(self, **overrides)

    def solver_meta(self) -> dict:
        """The fields that decide what a selection solve returns.

        Part of every plan's checkpoint identity: payloads written
        under one ``rho`` / tolerance / budget are not interchangeable
        with another's, so a resume across them must be refused.
        """
        return {
            name: getattr(self, name)
            for name in (
                "solver", "rho", "max_iter", "abstol", "reltol", "cd_tol",
                "adapt_rho",
            )
        }


@dataclass(frozen=True)
class UoIVarConfig:
    """Configuration of :class:`repro.core.uoi_var.UoIVar`.

    Attributes
    ----------
    order:
        VAR order ``d``.
    block_length:
        Block length of the circular block bootstrap (``None`` picks
        ``ceil(m ** (1/3))`` of the ``m`` lag-matrix rows, the standard
        rate-optimal choice).
    fit_intercept:
        Estimate the drift ``mu`` alongside the ``A_j``.
    lasso:
        The inner UoI_LASSO hyperparameters (grid, bootstrap counts,
        solver knobs).  Its ``random_state`` seeds the block
        bootstraps too.
    """

    order: int = 1
    block_length: int | None = None
    fit_intercept: bool = False
    lasso: UoILassoConfig = field(default_factory=UoILassoConfig)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.block_length is not None and self.block_length < 1:
            raise ValueError("block_length must be >= 1")

    def with_(self, **overrides) -> "UoIVarConfig":
        """Copy with some fields replaced."""
        return replace(self, **overrides)
