"""Ablation: telemetry overhead (off vs recorder-on vs full export).

The telemetry subsystem's contract is that it is effectively free: the
instrumentation one-liners in the solvers and I/O layers consult a
context-var and no-op when no recorder is installed, and even with a
recorder attached the per-subproblem span bookkeeping must stay in the
noise of a mid-size UoI_LASSO fit.  This ablation times the same fit
three ways —

* ``off``     — ``telemetry=False`` (the no-op path every untelemetered
  fit pays),
* ``recorder``— ``telemetry=True`` (in-memory spans/counters/gauges),
* ``export``  — ``telemetry=<dir>`` (recorder plus JSONL manifest and
  Chrome trace written at ``on_run_end``)

— interleaved best-of-``REPEATS`` to shed scheduler noise, writes the
measurements to ``BENCH_telemetry.json`` at the repo root, and gates
the subsystem on ≤5% overhead with the recorder enabled and ~0% (noise
floor) when disabled.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig
from repro.datasets import make_sparse_regression

#: Mid-size fit: big enough that per-subproblem hook costs would show,
#: small enough for an interleaved best-of-N in CI.  (220 x 20 was
#: mid-size only while every solve ran 500 iterations; with solves that
#: stop on tolerance it is a 14 ms fit and the export leg's two fixed
#: file writes alone are 22 % of it.)
N, P = 1200, 160
CFG = UoILassoConfig(
    n_lambdas=8,
    n_selection_bootstraps=6,
    n_estimation_bootstraps=5,
    random_state=9,
)
REPEATS = 5
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


@pytest.fixture(scope="module")
def problem():
    ds = make_sparse_regression(
        N, P, n_informative=4, snr=12.0, rng=np.random.default_rng(17)
    )
    return ds.X, ds.y


def _time_fit(X, y, telemetry) -> float:
    t0 = time.perf_counter()
    UoILasso(CFG).fit(X, y, telemetry=telemetry)
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def timings(problem, tmp_path_factory):
    X, y = problem
    export_dir = tmp_path_factory.mktemp("telemetry-bench")
    modes = {
        "off": False,
        "recorder": True,
        "export": str(export_dir),
    }
    # Warm-up (imports, BLAS thread pools, allocator) outside timing.
    _time_fit(X, y, False)
    best = {name: float("inf") for name in modes}
    # Interleave the modes so clock drift and cache state hit all three
    # equally; keep the best (minimum) — the standard low-noise timing
    # estimator for a deterministic workload.
    for _ in range(REPEATS):
        for name, arg in modes.items():
            best[name] = min(best[name], _time_fit(X, y, arg))
    return best


def test_telemetry_overhead_gate(timings):
    base = timings["off"]
    overhead = {
        name: t / base - 1.0 for name, t in timings.items() if name != "off"
    }
    payload = {
        "config": {
            "n": N,
            "p": P,
            "n_lambdas": CFG.n_lambdas,
            "n_selection_bootstraps": CFG.n_selection_bootstraps,
            "n_estimation_bootstraps": CFG.n_estimation_bootstraps,
            "repeats": REPEATS,
        },
        "seconds": {name: round(t, 6) for name, t in timings.items()},
        "overhead_vs_off": {
            name: round(o, 6) for name, o in overhead.items()
        },
        "gate": {"recorder_max": 0.05},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for name, t in timings.items():
        extra = "" if name == "off" else f"  (+{overhead[name]:.2%})"
        print(f"telemetry {name:>8}: {t:.4f}s best-of-{REPEATS}{extra}")
    print(f"wrote {RESULT_PATH}")
    # Gate: in-memory recording must cost <= 5% on a mid-size fit.
    assert overhead["recorder"] <= 0.05, (
        f"recorder overhead {overhead['recorder']:.2%} exceeds the 5% gate"
    )
    # Full export adds two small file writes at on_run_end; it must
    # stay in the same ballpark (generous bound — filesystem noise).
    assert overhead["export"] <= 0.15, (
        f"export overhead {overhead['export']:.2%} exceeds the 15% bound"
    )


def test_disabled_instrumentation_is_noise_floor(problem):
    """The no-op path: ContextVar.get + None check per call site.

    A fit with ``telemetry=False`` runs the same instrumented solver
    code as one from before the subsystem existed; measure the raw
    one-liner cost directly to show the per-call price is tens of
    nanoseconds — unobservable behind an ADMM solve.
    """
    from repro.telemetry.recorder import count

    calls = 100_000
    t0 = time.perf_counter()
    for _ in range(calls):
        count("bench.noop")
    per_call = (time.perf_counter() - t0) / calls
    print(f"\ndisabled count(): {per_call * 1e9:.0f} ns/call")
    # Generous bound: even a slow interpreter does a no-op lookup in
    # well under 5 microseconds.
    assert per_call < 5e-6


def test_bitwise_identical_with_and_without_telemetry(problem):
    X, y = problem
    ref = UoILasso(CFG).fit(X, y, telemetry=False)
    on = UoILasso(CFG).fit(X, y, telemetry=True)
    assert ref.coef_.tobytes() == on.coef_.tobytes()
    assert ref.losses_.tobytes() == on.losses_.tobytes()
