"""Residual diagnostics for fitted VAR models.

A Granger network is only trustworthy if the VAR it came from fits:
the residuals should be serially uncorrelated (everything dynamic was
captured) and the fitted dynamics stable.  This module provides the
standard checks (Lütkepohl 2005, ch. 4): residual computation, a
per-component Ljung–Box portmanteau test, and a stability verdict on
the fitted coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.var.lag import build_lag_matrices, stack_coefficients
from repro.var.model import spectral_radius

__all__ = ["residuals", "ljung_box", "LjungBoxResult", "diagnose", "Diagnosis"]


def residuals(
    series: np.ndarray,
    coefs: list[np.ndarray],
    *,
    intercept: np.ndarray | None = None,
) -> np.ndarray:
    """One-step-ahead residuals of fitted coefficients on a series.

    Returns an ``(N - d, p)`` array in the same (descending-time) row
    order as :func:`repro.var.lag.build_lag_matrices`.
    """
    coefs = [np.asarray(A, dtype=float) for A in coefs]
    d = len(coefs)
    has_mu = intercept is not None
    Y, X = build_lag_matrices(series, d, add_intercept=has_mu)
    B = stack_coefficients(coefs, intercept if has_mu else None)
    return Y - X @ B


@dataclass(frozen=True)
class LjungBoxResult:
    """Per-component portmanteau test for residual autocorrelation.

    Attributes
    ----------
    statistic:
        ``(p,)`` Q statistics.
    p_value:
        ``(p,)`` chi-square tail probabilities (small = autocorrelated
        residuals = the model missed dynamics).
    lags:
        Number of autocorrelation lags pooled into Q.
    """

    statistic: np.ndarray
    p_value: np.ndarray
    lags: int

    def passed(self, alpha: float = 0.05) -> bool:
        """True when no component rejects whiteness at level ``alpha``."""
        return bool(np.all(self.p_value > alpha))


def ljung_box(resid: np.ndarray, *, lags: int = 10) -> LjungBoxResult:
    """Ljung–Box Q test applied to each residual component.

    ``Q = T (T + 2) sum_{k=1..m} r_k^2 / (T - k)`` compared against a
    chi-square with ``m`` degrees of freedom.
    """
    resid = np.asarray(resid, dtype=float)
    if resid.ndim != 2:
        raise ValueError(f"residuals must be 2-D, got {resid.shape}")
    T, p = resid.shape
    if lags < 1 or lags >= T:
        raise ValueError(f"lags must lie in [1, {T - 1}], got {lags}")
    centered = resid - resid.mean(axis=0)
    denom = np.einsum("ij,ij->j", centered, centered)
    denom = np.where(denom == 0.0, 1.0, denom)
    stats = np.zeros(p)
    for k in range(1, lags + 1):
        r_k = np.einsum("ij,ij->j", centered[k:], centered[:-k]) / denom
        stats += r_k**2 / (T - k)
    stats *= T * (T + 2)
    # Imported here: scipy.stats costs ~0.75 s, which every
    # ``import repro`` (fit, worker, service process) would otherwise pay.
    from scipy.stats import chi2

    pvals = chi2.sf(stats, df=lags)
    return LjungBoxResult(statistic=stats, p_value=pvals, lags=lags)


@dataclass(frozen=True)
class Diagnosis:
    """Bundle of model-adequacy checks.

    Attributes
    ----------
    stable:
        Whether the fitted coefficients define a stable process.
    spectral_radius:
        Companion-matrix spectral radius of the fit.
    whiteness:
        The Ljung–Box result on the residuals.
    residual_std:
        ``(p,)`` per-component residual standard deviations.
    """

    stable: bool
    spectral_radius: float
    whiteness: LjungBoxResult
    residual_std: np.ndarray

    def ok(self, alpha: float = 0.05) -> bool:
        """Stable *and* white residuals."""
        return self.stable and self.whiteness.passed(alpha)


def diagnose(
    series: np.ndarray,
    coefs: list[np.ndarray],
    *,
    intercept: np.ndarray | None = None,
    lags: int = 10,
) -> Diagnosis:
    """Run the full adequacy check on a fitted model."""
    radius = spectral_radius(coefs)
    resid = residuals(series, coefs, intercept=intercept)
    lags = min(lags, resid.shape[0] - 1)
    return Diagnosis(
        stable=radius < 1.0,
        spectral_radius=radius,
        whiteness=ljung_box(resid, lags=lags),
        residual_std=resid.std(axis=0),
    )
