"""Ablation: the ADMM penalty — fixed ``rho=1.0`` against the spectral default.

The paper's implementation fixes rho so the x-update factorization can
be cached ("computed once per design matrix").  Two ways to pick it:

* ``unit``      — the former default ``rho=1.0``, whatever the scale of
  ``2 X'X`` (here its spectrum is ~300..730): hundreds of iterations.
* ``spectral``  — the default: ``sqrt(lambda_min+ * lambda_max)`` of the
  Gram, one ``eigvalsh`` per design, still one factorization.

A third leg, residual balancing (Boyd §3.4.1) started from ``rho=1.0``,
was measured here before the solvers dropped it: it took more
iterations than ``spectral`` and refactorized on the way (DESIGN.md,
"The ADMM penalty"; EXPERIMENTS.md).

Each leg prints iterations and factorizations; the serial legs are timed
and the consensus legs report the modeled job time.
"""

import numpy as np
import pytest

from repro.linalg import LassoADMM
from repro.linalg.consensus import consensus_lasso_admm
from repro.simmpi import CORI_KNL, run_spmd
from repro.telemetry.recorder import Recorder, use_recorder

N, P, LAM = 240, 24, 6.0

LEGS = {
    "unit": {"rho": 1.0},
    "spectral": {},
}
legs = pytest.mark.parametrize("leg", list(LEGS))


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((N, P))
    beta = np.zeros(P)
    beta[::5] = 2.5
    y = X @ beta + 0.15 * rng.standard_normal(N)
    return X, y


def _serial(X, y, leg):
    """(result, solver, factorization count) of one serial solve."""
    rec = Recorder()
    with use_recorder(rec):
        solver = LassoADMM(X, y, max_iter=5000, **LEGS[leg])
        res = solver.solve(LAM)
    return res, solver, int(rec.counter_values()["admm.factorizations"])


def _consensus(X, y, leg):
    """4-rank solve: (rank-0 result, rank-0 factorization count, job)."""

    def prog(comm):
        idx = np.array_split(np.arange(N), comm.size)[comm.rank]
        rec = Recorder()  # the current recorder is per rank thread
        with use_recorder(rec):
            res = consensus_lasso_admm(
                comm, X[idx], y[idx], LAM, max_iter=3000, **LEGS[leg]
            )
        return res, int(rec.counter_values()["consensus.factorizations"])

    job = run_spmd(4, prog, machine=CORI_KNL)
    return (*job.values[0], job)


@legs
def test_serial_admm_rho(benchmark, problem, leg):
    X, y = problem
    res, solver, facts = benchmark(lambda: _serial(X, y, leg))
    print(
        f"\n{leg}: rho {solver.rho:.4g}, {res.iterations} iterations, "
        f"{facts} factorization(s), converged={res.converged}"
    )
    assert res.converged


@legs
def test_consensus_admm_rho(benchmark, problem, leg):
    X, y = problem
    out, facts, job = benchmark.pedantic(
        lambda: _consensus(X, y, leg), rounds=2, iterations=1
    )
    print(
        f"\n{leg}: {out.iterations} iterations, {facts} factorization(s), "
        f"modeled job time {job.elapsed:.4f}s, converged={out.converged}"
    )
    assert out.converged


def test_spectral_needs_fewest_iterations_and_one_factorization(problem):
    X, y = problem
    res = {leg: _serial(X, y, leg) for leg in LEGS}
    its = {leg: r.iterations for leg, (r, _, _) in res.items()}
    facts = {leg: n for leg, (_, _, n) in res.items()}
    print(f"\nserial iterations {its}, factorizations {facts}")
    assert its["spectral"] < its["unit"]
    assert facts["unit"] == facts["spectral"] == 1
    np.testing.assert_allclose(
        res["spectral"][0].beta, res["unit"][0].beta, atol=1e-3
    )

    cons = {leg: _consensus(X, y, leg) for leg in LEGS}
    its = {leg: out.iterations for leg, (out, _, _) in cons.items()}
    facts = {leg: n for leg, (_, n, _) in cons.items()}
    print(f"consensus iterations {its}, factorizations {facts}")
    assert its["spectral"] < its["unit"]
    assert facts["unit"] == facts["spectral"] == 1
