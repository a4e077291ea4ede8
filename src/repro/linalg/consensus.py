"""Distributed consensus LASSO-ADMM over a simulated communicator.

This is the paper's distributed "Solve" kernel (Section II-C): the
samples are row-partitioned over the ``ADMM_cores`` of a communicator;
"each compute core is responsible for computation of its own objective
(x) and constraint (z) variables ... so that all the cores converge to
a common value of estimates".  Concretely this is global-variable
consensus ADMM (Boyd et al. 2011, §8.2) for

    minimize  sum_i ||b_i - A_i x||^2 + lam ||x||_1

whose iteration on rank ``i`` is

    x_i = (2 A_i'A_i + rho I)^{-1} (2 A_i'b_i + rho (z - u_i))
    xbar, ubar = Allreduce-mean(x_i), Allreduce-mean(u_i)
    z = S_{lam/(rho P)}(xbar + ubar)
    u_i += x_i - z

The single fused ``MPI_Allreduce`` per iteration is exactly the call
that the paper finds contributes "more than 99% of the communication
time"; its cost is charged to each rank's virtual clock through the
alpha-beta model, while the local factorizations and solves charge
modeled KNL compute time.

Setting ``lam = 0`` yields distributed OLS, just as in the paper's
model-estimation stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro.linalg.admm import gram_extremes, spectral_rho
from repro.linalg.soft_threshold import soft_threshold
from repro.perf.flops import (
    charge_cholesky,
    charge_gemm,
    charge_gemv,
    charge_sparse_solve,
    charge_trsv,
)
from repro.simmpi.comm import SimComm
from repro.simmpi.reduce_ops import SUM
from repro.telemetry.recorder import count as _tcount, gauge as _tgauge

__all__ = ["ConsensusResult", "consensus_lasso_admm"]


@dataclass
class ConsensusResult:
    """Outcome of a distributed consensus-ADMM solve (identical on all ranks).

    Attributes
    ----------
    beta:
        ``(p,)`` consensus solution ``z`` (exactly sparse).
    iterations:
        ADMM iterations performed.
    converged:
        Whether the consensus primal/dual residuals met tolerance.
    primal_residual, dual_residual:
        Final residual norms.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float


def consensus_lasso_admm(
    comm: SimComm,
    A_local: np.ndarray,
    b_local: np.ndarray,
    lam: float,
    *,
    rho: float | None = None,
    max_iter: int = 500,
    abstol: float = 1e-5,
    reltol: float = 1e-4,
    beta0: np.ndarray | None = None,
    adapt_rho: bool = False,
    adapt_tau: float = 2.0,
    adapt_mu: float = 10.0,
) -> ConsensusResult:
    """Solve the sample-split LASSO on ``comm``; every rank returns the result.

    Parameters
    ----------
    comm:
        Communicator whose ranks each hold a row block.
    A_local:
        This rank's ``(n_i, p)`` block of the design matrix — a dense
        ndarray, or a ``scipy.sparse`` matrix (the UoI_VAR lifted
        design ``I ⊗ X`` is ``1 - 1/p`` sparse; the paper uses
        Eigen-Sparse for it).  Sparse blocks are factorized with a
        sparse LU instead of a dense Cholesky.
    b_local:
        This rank's ``(n_i,)`` block of the response.
    lam:
        L1 penalty of the *global* objective (paper eq. 2 scaling).
        ``lam = 0`` gives distributed OLS.
    rho:
        ADMM penalty parameter (> 0), or ``None`` (default) for the
        spectral penalty of the serial solver
        (:func:`repro.linalg.admm.spectral_rho`) taken over the row
        split: each rank finds the extreme non-zero eigenvalues of its
        local ``2 A_i'A_i``, one SUM-allreduce of that 2-vector
        averages them, and every rank derives the identical value —
        one extra (tiny) collective per solve, and ranks stay bitwise
        equal to each other.  An explicit float is used as given.
    max_iter, abstol, reltol:
        Stopping configuration (Boyd §3.3 consensus criteria).
    beta0:
        Optional warm start for the consensus variable ``z``.
    adapt_rho, adapt_tau, adapt_mu:
        Residual balancing (Boyd §3.4.1).  The decision is driven by
        the globally reduced residual norms, so every rank adapts
        identically without extra communication; each adaptation
        triggers a local refactorization.  Worth it against a badly
        scaled fixed ``rho``, not against the spectral default (see
        ``benchmarks/bench_ablation_rho.py`` for all three legs).

    Notes
    -----
    ``p`` (the feature count) must agree across ranks; the row counts
    ``n_i`` may differ.  All collective calls must be reached by every
    rank — convergence is therefore decided on the (identical)
    consensus quantities so no rank exits early.
    """
    sparse_input = scipy.sparse.issparse(A_local)
    if sparse_input:
        A = scipy.sparse.csr_matrix(A_local, dtype=float)
    else:
        A = np.ascontiguousarray(A_local, dtype=float)
    b = np.ascontiguousarray(b_local, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A_local must be 2-D, got shape {A.shape}")
    n_i, p = A.shape
    if b.shape != (n_i,):
        raise ValueError(f"b_local shape {b.shape} incompatible with A {A.shape}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if rho is not None and rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    P = comm.size
    clock, machine = comm.clock, comm.machine

    if adapt_tau <= 1.0 or adapt_mu <= 1.0:
        raise ValueError(
            f"adapt_tau and adapt_mu must be > 1, got {adapt_tau}, {adapt_mu}"
        )

    # Local factorization of (2 A'A + rho I): once per solve, reused
    # every iteration — the paper's cached-factorization optimization.
    # Residual balancing invalidates it, so the Gram base is kept and
    # the factorization rebuilt on each rho change.
    if sparse_input:
        gram_base = (2.0 * (A.T @ A)).tocsc()
        eye = scipy.sparse.identity(p, format="csc")
        Atb2 = 2.0 * (A.T @ b)
        charge_sparse_solve(clock, machine, A.nnz, p)  # A'A
        charge_sparse_solve(clock, machine, A.nnz)  # A'b
        solve_nnz = gram_base.nnz + p

        def make_solver(rho_val):
            _tcount("consensus.factorizations")
            charge_sparse_solve(clock, machine, solve_nnz, p)  # factorization
            return scipy.sparse.linalg.splu(gram_base + rho_val * eye).solve
    else:
        gram_base = 2.0 * (A.T @ A)
        Atb2 = 2.0 * (A.T @ b)
        charge_gemm(clock, machine, p, p, n_i)  # A'A
        charge_gemv(clock, machine, p, n_i)  # A'b
        solve_nnz = 0

        def make_solver(rho_val):
            _tcount("consensus.factorizations")
            charge_cholesky(clock, machine, p)
            gram = gram_base.copy()
            gram[np.diag_indices_from(gram)] += rho_val
            chol = scipy.linalg.cho_factor(gram, lower=True)
            return lambda q: scipy.linalg.cho_solve(chol, q)

    agreed = 0  # collectives spent agreeing on rho
    if rho is None:
        # Extremes of the local spectrum, averaged over the ranks so
        # all derive one rho.  The dense symmetric eigensolve is a p^3
        # kernel like the Cholesky; costed as one p x p x p gemm.
        dense = gram_base.toarray() if sparse_input else gram_base
        extremes = np.array(gram_extremes(dense))
        charge_gemm(clock, machine, p, p, p)
        rho = spectral_rho(*(comm.allreduce(extremes, SUM) / P))
        agreed = 1
    solve_normal = make_solver(rho)

    z = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if z.shape != (p,):
        raise ValueError(f"beta0 shape {z.shape} != ({p},)")
    u = np.zeros(p)
    sqrtp = np.sqrt(p)

    converged = False
    r_norm = s_norm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        x = solve_normal(Atb2 + rho * (z - u))
        if sparse_input:
            charge_sparse_solve(clock, machine, solve_nnz)
        else:
            charge_trsv(clock, machine, p)
            charge_trsv(clock, machine, p)

        # One fused Allreduce carries the consensus sums plus the
        # residual statistics (sum x_i, sum u_i, sum ||x_i - z||^2,
        # sum ||x_i||^2, sum ||u_i||^2) — the call the paper's
        # communication bar is made of.
        xz_sq = float(np.dot(x - z, x - z))
        x_sq = float(np.dot(x, x))
        u_sq = float(np.dot(u, u))
        packed = np.concatenate([x, u, [xz_sq, x_sq, u_sq]])
        summed = comm.allreduce(packed, SUM)
        xbar = summed[:p] / P
        ubar = summed[p : 2 * p] / P
        sum_xz_sq, sum_x_sq, sum_u_sq = summed[2 * p :]

        z_old = z
        z = soft_threshold(xbar + ubar, lam / (rho * P))
        # In-place (u + x) - z: same ops, same order, zero allocations
        # (was ALLOC603 — the rank-local dual is this loop's only
        # per-iteration p-vector that survives the iteration).
        u += x
        u -= z

        # Consensus residuals (Boyd §7.1.1): r^2 = sum_i ||x_i - z||^2
        # uses last iteration's z; recompute the z part locally.
        r_norm = float(np.sqrt(max(sum_xz_sq, 0.0)))
        s_norm = float(rho * np.sqrt(P) * np.linalg.norm(z - z_old))
        eps_pri = sqrtp * np.sqrt(P) * abstol + reltol * max(
            np.sqrt(sum_x_sq), np.sqrt(P) * float(np.linalg.norm(z))
        )
        eps_dual = sqrtp * np.sqrt(P) * abstol + reltol * rho * np.sqrt(sum_u_sq)
        if r_norm < eps_pri and s_norm < eps_dual:
            converged = True
            break

        if adapt_rho:
            # Globally reduced residuals -> identical decision on every
            # rank, no extra collective needed.
            if r_norm > adapt_mu * s_norm:
                rho *= adapt_tau
                u /= adapt_tau
                solve_normal = make_solver(rho)
            elif s_norm > adapt_mu * r_norm:
                rho /= adapt_tau
                u *= adapt_tau
                solve_normal = make_solver(rho)

    # One soft-threshold and one fused allreduce per iteration (the
    # call the paper's communication bar is made of), plus the one
    # that agreed on a spectral rho; no-ops unless a telemetry
    # recorder is installed on this rank.
    _tcount("consensus.solves")
    _tcount("consensus.iterations", it)
    _tcount("consensus.soft_thresholds", it)
    _tcount("consensus.allreduces", it + agreed)
    if converged:
        _tcount("consensus.converged")
    _tgauge("consensus.primal_residual", r_norm)
    _tgauge("consensus.dual_residual", s_norm)
    _tgauge("consensus.rho", rho)

    return ConsensusResult(
        beta=z,
        iterations=it,
        converged=converged,
        primal_residual=r_norm,
        dual_residual=s_norm,
    )
