"""Serial UoI_LASSO estimator (paper Algorithm 1).

Two Map-Solve-Reduce stages:

* **Model selection** — ``B1`` iid bootstraps x ``q`` penalties solved
  with LASSO-ADMM (warm-started down the λ path); per-λ supports
  intersected across bootstraps into the family ``S``.
* **Model estimation** — ``B2`` train/eval bootstraps; OLS per
  candidate support on the training resample, scored on the held-out
  rows; the per-bootstrap winners averaged into the final model.

This estimator is a thin adapter over the execution engine: the run
is described by :class:`repro.engine.plans.LassoPlan` (which carries
the numerics) and executed by a pluggable backend — serial by
default, or multiprocess/simulated-MPI via ``fit(executor=...)`` /
``REPRO_ENGINE_BACKEND``.  Every backend is bitwise-identical to the
serial reference, which remains what the distributed driver
(:mod:`repro.core.parallel`) is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import UoILassoConfig
from repro.resilience.checkpoint import CheckpointHook, CheckpointPlan

__all__ = ["UoILasso"]


class UoILasso:
    """Union-of-Intersections sparse linear regression.

    Parameters
    ----------
    config:
        Full hyperparameter bundle; ``None`` uses defaults.
    **overrides:
        Convenience keyword overrides applied on top of ``config``
        (e.g. ``UoILasso(n_lambdas=8, random_state=3)``).

    Attributes (after :meth:`fit`)
    ------------------------------
    coef_:
        ``(p,)`` final averaged model.
    intercept_:
        Fitted intercept (0.0 unless ``fit_intercept``).
    lambdas_:
        The λ grid used in selection.
    supports_:
        ``(q, p)`` boolean family of intersected supports.
    losses_:
        ``(B2, q)`` held-out losses from estimation.
    winners_:
        ``(B2,)`` winning support index per estimation bootstrap.
    """

    def __init__(self, config: UoILassoConfig | None = None, **overrides) -> None:
        config = config or UoILassoConfig()
        if overrides:
            config = config.with_(**overrides)
        self.config = config
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.lambdas_: np.ndarray | None = None
        self.supports_: np.ndarray | None = None
        self.losses_: np.ndarray | None = None
        self.winners_: np.ndarray | None = None
        self.recovered_subproblems_: int = 0
        self.completed_subproblems_: int = 0
        #: TelemetryHook from the last fit, or None (telemetry off).
        self.telemetry_ = None

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        checkpoint: CheckpointPlan | None = None,
        executor=None,
        telemetry=None,
    ) -> "UoILasso":
        """Run selection + estimation on ``(X, y)``; returns ``self``.

        ``checkpoint=`` attaches a
        :class:`~repro.resilience.checkpoint.CheckpointHook` that
        persists each completed bootstrap (the full ``(q, p)`` λ path
        in selection; the estimates and loss row in estimation) so an
        interrupted fit rerun against the same store resumes
        bitwise-identically — all bootstrap draws are made up front
        from the shared ``random_state``, so recovered and solved runs
        share one RNG stream.  Counters land on
        ``recovered_subproblems_`` / ``completed_subproblems_``.

        ``executor=`` selects the engine backend (a
        :class:`~repro.engine.Coordinator`); ``None`` uses
        :func:`repro.engine.default_executor` — serial unless
        ``REPRO_ENGINE_BACKEND`` says otherwise.  Results are
        bitwise-identical across backends.

        ``telemetry=`` attaches a
        :class:`~repro.telemetry.hook.TelemetryHook` recording
        wall-clock spans for every subproblem: ``True`` for in-memory
        recording, a directory path to also export a JSONL manifest +
        Chrome trace, or ``None`` to consult ``REPRO_TELEMETRY`` (see
        :func:`repro.telemetry.resolve_telemetry`).  The hook lands on
        ``telemetry_`` after the fit; telemetry never changes the
        numerics.
        """
        # Imported here, not at module top: the engine's plans import
        # repro.core's stage kernels, so a module-level import would
        # close a package cycle.
        from repro.engine import LassoPlan, default_executor, run_plan
        from repro.telemetry import resolve_telemetry

        plan = LassoPlan(self.config, X, y)
        hook = CheckpointHook(checkpoint)
        hooks = [hook]
        self.telemetry_ = resolve_telemetry(telemetry, label="uoi_lasso.fit")
        if self.telemetry_ is not None:
            hooks.append(self.telemetry_)
        out = run_plan(
            plan, executor if executor is not None else default_executor(), hooks
        )

        self.coef_ = out.coef
        self.intercept_ = plan.y_mean - float(plan.x_mean @ out.coef)
        self.lambdas_ = out.lambdas
        self.supports_ = out.supports
        self.losses_ = out.losses
        self.winners_ = out.winners
        self.recovered_subproblems_ = hook.recovered
        self.completed_subproblems_ = hook.completed
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted responses for new rows."""
        if self.coef_ is None:
            raise RuntimeError("call fit() before predict()")
        return np.asarray(X, dtype=float) @ self.coef_ + self.intercept_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on ``(X, y)``."""
        y = np.asarray(y, dtype=float)
        resid = y - self.predict(X)
        denom = float(((y - y.mean()) ** 2).sum())
        if denom == 0.0:
            return 0.0
        return 1.0 - float((resid**2).sum()) / denom

    @property
    def selected_mask_(self) -> np.ndarray:
        """Boolean support of the final model."""
        if self.coef_ is None:
            raise RuntimeError("call fit() first")
        return self.coef_ != 0.0
