"""Allocation gate for the pooled ADMM hot loop (ROADMAP item 2).

The ALLOC6xx static pass (``repro check alloc``) named the ADMM
z-update the hottest allocation site in the package: the allocating
iteration materializes ~8 fresh ``p``-vectors per iteration —
thousands of temporaries per (bootstrap, λ) subproblem at paper scale.
``LassoADMM`` runs the iteration on a
:class:`repro.perf.pool.Workspace` with ``out=`` ufunc forms, which
may change *which memory* holds intermediates but never the float
stream: its results are bitwise those of the allocating iteration,
``reference_admm`` in ``tests/test_linalg_pool.py`` (asserted there,
and re-asserted here on the benchmark problem).

This benchmark measures allocated bytes directly with ``tracemalloc``:
for each λ on a regularization path, the bytes a single solve allocates
**above its entry point** (peak-over-entry — per-iteration temporaries
never survive the solve, so net is useless but the peak sees them).
Both iterations run on one solver's cached factorization and are warmed
first so one-time costs (factorization, workspace acquisition, result
buffers) are off the books and the comparison isolates steady-state
iteration churn — the regime that matters when the UoI engine calls
``solve`` tens of thousands of times.

Writes ``BENCH_alloc.json`` at the repo root and gates the
optimization on a ≥30% reduction in allocated bytes.  Run it from the
repository root (``tests`` is imported as a package):
``PYTHONPATH=src python -m pytest benchmarks/bench_alloc.py -q -s``.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.linalg.admm import LassoADMM
from tests.test_linalg_pool import reference_admm

N, P = 192, 384  # n < p: the Woodbury branch the paper's scale lives in
LAMBDAS = [2.0, 1.0, 0.5, 0.25, 0.1, 0.05]
MAX_ITER = 400
MIN_REDUCTION = 0.30
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_alloc.json"


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((N, P))
    beta = np.zeros(P)
    beta[: P // 8] = rng.standard_normal(P // 8)
    y = X @ beta + 0.1 * rng.standard_normal(N)
    return X, y


def _measure(solve, betas_out: list[bytes]) -> int:
    """Total bytes ``solve(lam)`` allocates above entry across the λ path."""
    solve(LAMBDAS[0])  # warm: workspace, caches
    total = 0
    tracemalloc.start()
    try:
        for lam in LAMBDAS:
            tracemalloc.reset_peak()
            net0 = tracemalloc.get_traced_memory()[0]
            result = solve(lam)
            peak = tracemalloc.get_traced_memory()[1]
            total += max(0, peak - net0)
            betas_out.append(result.beta.tobytes())
    finally:
        tracemalloc.stop()
    return total


def test_pooled_allocation_gate(problem):
    X, y = problem
    solver = LassoADMM(X, y, max_iter=MAX_ITER)
    unpooled_betas: list[bytes] = []
    pooled_betas: list[bytes] = []
    unpooled = _measure(
        lambda lam: reference_admm(solver, lam), unpooled_betas
    )
    pooled = _measure(solver.solve, pooled_betas)
    # The optimization must be free: identical bits on every λ.
    assert pooled_betas == unpooled_betas
    reduction = 1.0 - pooled / unpooled
    payload = {
        "config": {
            "n": N,
            "p": P,
            "lambdas": LAMBDAS,
            "max_iter": MAX_ITER,
            "measure": "tracemalloc peak-over-entry per solve, warmed",
            "unpooled": "tests/test_linalg_pool.py reference_admm",
        },
        "allocated_bytes": {
            "unpooled": int(unpooled),
            "pooled": int(pooled),
        },
        "alloc_reduction": round(reduction, 4),
        "bitwise_identical": True,
        "gate": {"min_reduction": MIN_REDUCTION},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"unpooled: {unpooled:,} bytes over {len(LAMBDAS)} solves")
    print(f"pooled:   {pooled:,} bytes over {len(LAMBDAS)} solves")
    print(f"allocated-bytes reduction: {reduction:.1%}")
    print(f"wrote {RESULT_PATH}")
    assert reduction >= MIN_REDUCTION, (
        f"pooled ADMM reduces allocated bytes by {reduction:.1%}, "
        f"below the {MIN_REDUCTION:.0%} gate"
    )
