"""Multi-step forecasting from fitted VAR coefficients.

Granger networks are fitted to *predict*; this module turns estimated
``(A_1 ... A_d, mu)`` into h-step-ahead point forecasts and
simulation-based predictive intervals, plus the standard forecast
accuracy scores used to compare fitted models out of sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Forecast", "forecast", "forecast_intervals"]


def _check_inputs(coefs, intercept, history):
    coefs = [np.asarray(A, dtype=float) for A in coefs]
    if not coefs:
        raise ValueError("need at least one coefficient matrix")
    p = coefs[0].shape[0]
    for A in coefs:
        if A.shape != (p, p):
            raise ValueError(f"all A_j must be ({p}, {p}); got {A.shape}")
    intercept = (
        np.zeros(p) if intercept is None else np.asarray(intercept, dtype=float)
    )
    if intercept.shape != (p,):
        raise ValueError(f"intercept must be ({p},)")
    history = np.asarray(history, dtype=float)
    d = len(coefs)
    if history.ndim != 2 or history.shape[1] != p or history.shape[0] < d:
        raise ValueError(
            f"history must be (>= {d}, {p}), got {history.shape}"
        )
    return coefs, intercept, history, p, d


def forecast(
    coefs: list[np.ndarray],
    history: np.ndarray,
    steps: int,
    *,
    intercept: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic h-step-ahead point forecast.

    Parameters
    ----------
    coefs:
        Fitted ``[A_1 ... A_d]``.
    history:
        ``(>= d, p)`` trailing observations (most recent last).
    steps:
        Forecast horizon ``h >= 1``.
    intercept:
        Fitted drift (defaults to zero).

    Returns
    -------
    numpy.ndarray
        ``(steps, p)`` forecasts, row 0 = one step ahead.
    """
    coefs, intercept, history, p, d = _check_inputs(coefs, intercept, history)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    window = list(history[-d:][::-1])  # window[0] = most recent
    out = np.empty((steps, p))
    for h in range(steps):
        x = intercept.copy()
        for j, A in enumerate(coefs):
            x += A @ window[j]
        out[h] = x
        window = [x, *window[:-1]]
    return out


@dataclass(frozen=True)
class Forecast:
    """Point forecast with simulation-based predictive intervals.

    Attributes
    ----------
    mean:
        ``(steps, p)`` point forecast.
    lower, upper:
        Per-step elementwise quantile bands.
    level:
        Nominal coverage of the bands (e.g. 0.9).
    """

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


def forecast_intervals(
    coefs: list[np.ndarray],
    history: np.ndarray,
    steps: int,
    *,
    intercept: np.ndarray | None = None,
    noise_cov: np.ndarray | None = None,
    level: float = 0.9,
    n_paths: int = 500,
    rng: np.random.Generator | None = None,
) -> Forecast:
    """Monte-Carlo predictive intervals around the point forecast.

    ``n_paths`` future trajectories are simulated with Gaussian
    disturbances (``noise_cov`` defaults to identity), and the
    elementwise ``(1-level)/2`` quantiles form the band.
    """
    coefs, intercept, history, p, d = _check_inputs(coefs, intercept, history)
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    rng = rng if rng is not None else np.random.default_rng()
    cov = np.eye(p) if noise_cov is None else np.asarray(noise_cov, dtype=float)
    if cov.shape != (p, p):
        raise ValueError(f"noise_cov must be ({p}, {p})")
    chol = np.linalg.cholesky(cov)

    mean = forecast(coefs, history, steps, intercept=intercept)
    paths = np.empty((n_paths, steps, p))
    base_window = list(history[-d:][::-1])
    noise = rng.standard_normal((n_paths, steps, p)) @ chol.T
    for s in range(n_paths):
        window = list(base_window)
        for h in range(steps):
            x = intercept.copy() + noise[s, h]
            for j, A in enumerate(coefs):
                x += A @ window[j]
            paths[s, h] = x
            window = [x, *window[:-1]]
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(paths, alpha, axis=0)
    upper = np.quantile(paths, 1.0 - alpha, axis=0)
    return Forecast(mean=mean, lower=lower, upper=upper, level=level)


