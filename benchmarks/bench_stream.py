"""Streaming re-fit economics: warm-started chains.

Each window's selection λ-paths seed the next window's chains
(delta-transported starts), so the coordinate-descent solves begin
near their solutions and converge in far fewer sweeps — while every
solve still runs to tolerance, keeping supports and coefficients
bitwise identical to cold chains (asserted here before anything is
timed).

Writes ``BENCH_stream.json`` at the repo root and gates the subsystem
on a ≥1.5× warm-over-cold re-fit speedup.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.stream import SpikeRateSource, StreamConfig, run_rolling

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

# Rolling re-fit leg: heavy selection stage (warm starts only touch
# selection chains), light estimation stage (identical in both legs).
P, TICKS = 6, 100
ROLL_CFG = dict(window=80, cadence=4, max_windows=5)
VAR_CFG = UoIVarConfig(
    order=1,
    lasso=UoILassoConfig(
        n_lambdas=14,
        n_selection_bootstraps=6,
        n_estimation_bootstraps=2,
        solver="cd",
        max_iter=20000,
        random_state=5,
    ),
)
REPEATS = 3

WARM_GATE = 1.5


@pytest.fixture(scope="module")
def series():
    return np.array(list(SpikeRateSource(P, order=1, seed=5, max_ticks=TICKS)))


def _stream_config(*, warm: bool) -> StreamConfig:
    return StreamConfig(
        var=VAR_CFG,
        warm=warm,
        chain_seeding="path" if warm else "none",
        **ROLL_CFG,
    )


def _refit_seconds(series, *, warm: bool) -> float:
    """Solver seconds across the windows warm starts can touch.

    Window 0 is cold in both legs (there is no previous path yet), so
    the comparison sums windows 1..K-1.
    """
    out = run_rolling(iter(series), _stream_config(warm=warm))
    return sum(w.seconds for w in out.windows[1:])


def test_warm_results_stay_bitwise_identical(series):
    """The speedup must cost zero bits: warm-started windows equal the
    cold-chain run exactly, support for support, coefficient for
    coefficient (the streaming identity invariant)."""
    warm = run_rolling(iter(series), _stream_config(warm=True))
    cold = run_rolling(iter(series), _stream_config(warm=False))
    assert sum(w.nonconverged for w in warm.windows) == 0
    for ww, cw in zip(warm.windows, cold.windows):
        assert np.array_equal(ww.outputs.supports, cw.outputs.supports)
        assert np.array_equal(ww.outputs.coef, cw.outputs.coef)


@pytest.fixture(scope="module")
def refit_timings(series):
    _refit_seconds(series, warm=True)  # warm-up: BLAS pools, imports
    best = {"warm": float("inf"), "cold": float("inf")}
    for _ in range(REPEATS):
        best["cold"] = min(best["cold"], _refit_seconds(series, warm=False))
        best["warm"] = min(best["warm"], _refit_seconds(series, warm=True))
    return best


def test_stream_gates(refit_timings):
    warm_speedup = refit_timings["cold"] / refit_timings["warm"]
    payload = {
        "refit": {
            "config": {
                "p": P,
                "ticks": TICKS,
                **ROLL_CFG,
                "n_lambdas": VAR_CFG.lasso.n_lambdas,
                "n_selection_bootstraps": VAR_CFG.lasso.n_selection_bootstraps,
                "n_estimation_bootstraps": VAR_CFG.lasso.n_estimation_bootstraps,
                "solver": VAR_CFG.lasso.solver,
                "repeats": REPEATS,
            },
            "seconds": {k: round(v, 6) for k, v in refit_timings.items()},
            "warm_over_cold": round(warm_speedup, 3),
            "gate": {"min_speedup": WARM_GATE},
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(
        f"rolling re-fit: warm {refit_timings['warm']:.3f}s, "
        f"cold {refit_timings['cold']:.3f}s best-of-{REPEATS}"
        f"  -> {warm_speedup:.2f}x"
    )
    print(f"wrote {RESULT_PATH}")
    assert warm_speedup >= WARM_GATE, (
        f"warm re-fit speedup {warm_speedup:.2f}x is below the "
        f"{WARM_GATE}x gate"
    )
