"""Kernel flop counts and virtual-clock charging.

The functional simulator runs real numpy arithmetic, but the *modeled*
compute time must reflect the paper's machine (KNL with MKL/Eigen), not
this box.  Each helper below computes the standard flop count of a
kernel and divides by the corresponding measured rate from the
:class:`~repro.simmpi.machine.MachineModel` — the same rates the
paper's Intel-Advisor analysis reports — then charges the result to a
rank's clock under :attr:`TimeCategory.COMPUTE`.
"""

from __future__ import annotations

from repro.simmpi.clock import RankClock, TimeCategory
from repro.simmpi.machine import MachineModel

__all__ = [
    "gemm_flops",
    "gemv_flops",
    "cholesky_flops",
    "trsv_flops",
    "charge_gemm",
    "charge_gemv",
    "charge_cholesky",
    "charge_trsv",
]


def _check_dims(*dims: int) -> None:
    for d in dims:
        if d < 0:
            raise ValueError(f"matrix dimensions must be >= 0, got {dims}")


def gemm_flops(m: int, n: int, k: int) -> float:
    """Flops of C(m,n) = A(m,k) @ B(k,n): ``2 m n k``."""
    _check_dims(m, n, k)
    return 2.0 * m * n * k


def gemv_flops(m: int, n: int) -> float:
    """Flops of y(m) = A(m,n) @ x(n): ``2 m n``."""
    _check_dims(m, n)
    return 2.0 * m * n


def cholesky_flops(n: int) -> float:
    """Flops of a Cholesky factorization of an n x n SPD matrix: ``n^3/3``."""
    _check_dims(n)
    return n**3 / 3.0


def trsv_flops(n: int) -> float:
    """Flops of one triangular solve with an n x n factor: ``n^2``."""
    _check_dims(n)
    return float(n) ** 2


def _charge(clock: RankClock, flops: float, gflops_rate: float) -> float:
    seconds = flops / (gflops_rate * 1e9)
    clock.charge(TimeCategory.COMPUTE, seconds)
    return seconds


def charge_gemm(clock: RankClock, machine: MachineModel, m: int, n: int, k: int) -> float:
    """Charge a dense gemm at the machine's measured gemm rate."""
    return _charge(clock, gemm_flops(m, n, k), machine.gemm_gflops)


def charge_gemv(clock: RankClock, machine: MachineModel, m: int, n: int) -> float:
    """Charge a dense gemv at the machine's measured gemv rate."""
    return _charge(clock, gemv_flops(m, n), machine.gemv_gflops)


def charge_cholesky(clock: RankClock, machine: MachineModel, n: int) -> float:
    """Charge a Cholesky factorization (costed at the gemm rate — MKL
    potrf is blocked into gemm-like panels)."""
    return _charge(clock, cholesky_flops(n), machine.gemm_gflops)


def charge_trsv(clock: RankClock, machine: MachineModel, n: int) -> float:
    """Charge one triangular solve at the machine's (poor) trsv rate."""
    return _charge(clock, trsv_flops(n), machine.trsv_gflops)


