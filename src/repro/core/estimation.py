"""Model estimation: the *union* step (paper eq. 4).

For each estimation bootstrap ``k`` and each candidate support ``S_j``
from selection, the unbiased OLS estimate is fit on the training
resample and scored on the held-out evaluation rows (Algorithm 1
lines 18-19).  Per bootstrap, the best support wins (line 22); the
final model is the average of the ``B2`` winners (line 24) — a union
because supports of different winners merge, with the averaging
providing the variance reduction of bagging.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prediction_loss",
    "best_support_per_bootstrap",
    "union_average",
]


def prediction_loss(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Mean squared prediction error of ``beta`` on ``(X, y)``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    resid = y - X @ beta
    return float(resid @ resid / max(len(y), 1))


def best_support_per_bootstrap(losses: np.ndarray, *, rule: str = "min") -> np.ndarray:
    """Winning support index per bootstrap from a ``(B2, q)`` loss table.

    Parameters
    ----------
    losses:
        Held-out loss of support ``j`` on estimation bootstrap ``k``.
    rule:
        ``"min"`` — plain argmin (Algorithm 1 line 22; ties break
        toward the smaller index, which on a descending λ grid is the
        sparser candidate).  ``"1se"`` — the one-standard-error rule:
        pick the *sparsest* support whose loss is within one standard
        error (of that support's loss across bootstraps) of the
        bootstrap's minimum.  Held-out losses of near-optimal supports
        differ by less than their noise, so argmin readmits spurious
        features by chance; the 1se variant (standard practice since
        CART/glmnet, and an option in the reference PyUoI package)
        trades a sliver of prediction for markedly fewer false
        positives.  Requires ``B2 >= 2``; degenerates to ``"min"``
        otherwise.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2:
        raise ValueError(f"losses must be (B2, q), got {losses.shape}")
    if rule not in ("min", "1se"):
        raise ValueError(f"rule must be 'min' or '1se', got {rule!r}")
    argmin = np.argmin(losses, axis=1)
    if rule == "min" or losses.shape[0] < 2:
        return argmin
    se = losses.std(axis=0, ddof=1) / np.sqrt(losses.shape[0])
    winners = np.empty_like(argmin)
    for k in range(losses.shape[0]):
        jmin = argmin[k]
        threshold = losses[k, jmin] + se[jmin]
        winners[k] = int(np.argmax(losses[k] <= threshold))
    return winners


def union_average(winner_betas: np.ndarray) -> np.ndarray:
    """Bagged model: mean over the ``(B2, p)`` per-bootstrap winners.

    This is eq. 4's union: a feature selected by *any* winner survives
    in the average (scaled by how often it won), which re-expands the
    conservative intersection supports toward predictive accuracy.
    """
    winner_betas = np.asarray(winner_betas, dtype=float)
    if winner_betas.ndim != 2:
        raise ValueError(f"winner_betas must be (B2, p), got {winner_betas.shape}")
    if winner_betas.shape[0] < 1:
        raise ValueError("need at least one bootstrap winner")
    return winner_betas.mean(axis=0)
