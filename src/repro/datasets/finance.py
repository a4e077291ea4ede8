"""Synthetic S&P-500-like stock panel (substitute for the paper's §VI data).

The paper analyzes daily closes of S&P-500 companies (2013–2018): a
50-company subset for the Granger-graph illustration (Fig. 11: weekly
closes, first differences, VAR(1), B1 = 40, B2 = 5, < 40 edges) and a
470-company subset for the runtime study (195 weekly samples).  The
raw data are proprietary, so this module generates a statistically
analogous panel:

* log-returns with a **sector factor structure** (companies in the
  same sector co-move, like real equities);
* a **planted sparse lead-lag (Granger) network**: a few companies'
  returns predict a few others' next-week returns — this is the
  ground truth that the original data cannot provide;
* geometric price accumulation, weekly aggregation and first
  differencing identical to the paper's preprocessing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StockPanel",
    "make_stock_panel",
    "weekly_closes",
    "first_differences",
    "iter_ticks",
    "synthetic_tickers",
]

#: Fifty familiar large-cap tickers used to label the Fig.-11-style
#: graph (labels only — all price paths are synthetic).
_SP50 = [
    "AAPL", "MSFT", "GOOG", "AMZN", "BRK.B", "JPM", "JNJ", "XOM", "WMT", "PG",
    "BAC", "CVX", "KO", "PFE", "CSCO", "INTC", "VZ", "T", "MRK", "PEP",
    "ORCL", "DIS", "IBM", "HD", "MCD", "NKE", "UNH", "MMM", "BA", "CAT",
    "GE", "GS", "AXP", "MS", "C", "WFC", "USB", "MO", "COST", "SBUX",
    "TXN", "QCOM", "AMGN", "GILD", "UPS", "FDX", "LMT", "HON", "DE", "F",
]


def synthetic_tickers(n: int) -> list[str]:
    """``n`` ticker-like labels (real-looking for the first 50, generated after)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = list(_SP50[:n])
    i = 0
    while len(out) < n:
        q, r = divmod(i, 26)
        out.append(f"SY{chr(65 + r)}{q}")
        i += 1
    return out


@dataclass
class StockPanel:
    """A generated price panel with its ground-truth lead-lag network.

    Attributes
    ----------
    prices:
        ``(n_days, n_companies)`` daily closes.
    tickers:
        Company labels.
    lead_lag:
        ``(n_companies, n_companies)`` true next-day return
        coefficients: entry ``[i, j]`` is the weight of company ``j``'s
        lagged return in company ``i``'s return (the planted Granger
        edges are its nonzero off-diagonal entries).
    sectors:
        Sector index per company.
    """

    prices: np.ndarray
    tickers: list[str]
    lead_lag: np.ndarray
    sectors: np.ndarray


def make_stock_panel(
    n_companies: int = 50,
    n_days: int = 504,
    *,
    n_sectors: int = 8,
    n_edges: int | None = None,
    edge_strength: float = 0.35,
    daily_vol: float = 0.015,
    sector_vol: float = 0.006,
    market_vol: float = 0.008,
    lag_days: int = 5,
    rng: np.random.Generator | None = None,
) -> StockPanel:
    """Generate a synthetic daily-close panel.

    Parameters
    ----------
    n_companies:
        Panel width (50 for the Fig.-11 analog, 470 for the runtime
        study).
    n_days:
        Trading days (504 ≈ the two years 2013–2014; 1008 ≈ 2013–2016).
    n_sectors:
        Number of co-moving sectors.
    n_edges:
        Planted lead-lag edges (default ``max(4, n_companies // 3)``
        — sparse, like the paper's inferred graph).
    edge_strength:
        Magnitude scale of planted edges (kept modest so the return
        process stays comfortably stationary).
    daily_vol, sector_vol, market_vol:
        Idiosyncratic / sector / market volatility components.
    lag_days:
        Horizon of the planted lead-lag, in trading days.  The default
        of one trading week matches the paper's pipeline (weekly
        closes, VAR(1) on first differences): a lag-5-day dependence
        survives weekly aggregation as a lag-1-week Granger edge,
        whereas a 1-day dependence would be averaged away.
    rng:
        Randomness source.
    """
    if n_companies < 2:
        raise ValueError("n_companies must be >= 2")
    if n_days < 10:
        raise ValueError("n_days must be >= 10")
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    n_edges = max(4, n_companies // 3) if n_edges is None else n_edges

    sectors = rng.integers(0, n_sectors, size=n_companies)
    lead_lag = np.zeros((n_companies, n_companies))
    targets = rng.choice(n_companies, size=n_edges, replace=True)
    for i in targets:
        j = int(rng.integers(0, n_companies))
        if j == i:
            j = (j + 1) % n_companies
        lead_lag[i, j] = edge_strength * float(rng.uniform(0.6, 1.4)) * float(
            rng.choice([-1.0, 1.0])
        )

    if lag_days < 1:
        raise ValueError("lag_days must be >= 1")
    returns = np.zeros((n_days, n_companies))
    market = market_vol * rng.standard_normal(n_days)
    sector_noise = sector_vol * rng.standard_normal((n_days, n_sectors))
    idio = daily_vol * rng.standard_normal((n_days, n_companies))
    for t in range(n_days):
        r = market[t] + sector_noise[t, sectors] + idio[t]
        if t >= lag_days:
            r = r + lead_lag @ returns[t - lag_days]
        returns[t] = r

    base = rng.uniform(20.0, 400.0, size=n_companies)
    prices = base * np.exp(np.cumsum(returns, axis=0))
    return StockPanel(
        prices=prices,
        tickers=synthetic_tickers(n_companies),
        lead_lag=lead_lag,
        sectors=sectors,
    )


def weekly_closes(prices: np.ndarray, *, days_per_week: int = 5) -> np.ndarray:
    """Aggregate daily closes to weekly closes (last close of each week)."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2:
        raise ValueError(f"prices must be 2-D, got {prices.shape}")
    if days_per_week < 1:
        raise ValueError("days_per_week must be >= 1")
    n_weeks = prices.shape[0] // days_per_week
    if n_weeks < 1:
        raise ValueError("not enough days for one week")
    idx = np.arange(1, n_weeks + 1) * days_per_week - 1
    return prices[idx]


def iter_ticks(
    n_companies: int = 50,
    *,
    n_days: int = 504,
    days_per_week: int = 5,
    seed: int = 0,
    **panel_kwargs,
) -> Iterator[np.ndarray]:
    """Replay a seeded stock panel as a stream of weekly-return rows.

    The streaming analogue of the Fig.-11 preprocessing: generate the
    panel with ``default_rng(seed)``, aggregate to weekly closes, first
    difference, then yield one ``(n_companies,)`` row per week in
    order.  The concatenation of all yielded rows equals
    ``first_differences(weekly_closes(panel.prices))`` for the same
    seed, bitwise, so a stream consumer can be checked against the
    batch pipeline exactly.  The replay is finite — it ends with the
    panel (``n_days // days_per_week - 1`` rows).

    Extra keyword arguments are forwarded to :func:`make_stock_panel`.
    """
    panel = make_stock_panel(
        n_companies, n_days, rng=np.random.default_rng(seed), **panel_kwargs
    )
    series = first_differences(
        weekly_closes(panel.prices, days_per_week=days_per_week)
    )
    for row in series:
        yield row.copy()


def first_differences(series: np.ndarray) -> np.ndarray:
    """First differences along time — the paper's stationarizing step."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[0] < 2:
        raise ValueError(f"series must be 2-D with >= 2 rows, got {series.shape}")
    return np.diff(series, axis=0)
