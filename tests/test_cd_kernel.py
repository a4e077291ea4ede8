"""The Python-float coordinate-descent kernel against a frozen numpy one.

``repro.linalg.cd.lasso_cd`` runs its per-coordinate scalar work on
Python floats held in lists.  The reference below is the numpy-scalar
kernel it replaced, kept verbatim (with ``soft_threshold`` inlined) so
the comparison cannot drift with the library.

The residual branch does the same IEEE operations in the same order,
so every residual case asserts byte-equal ``beta`` — the sign of zero
included — and equal ``cd.sweeps`` / ``cd.converged`` /
``cd.nonconverged`` counts.

The covariance branch (both row-update forms, either side of
``LIST_ROW_MAX_KDIM``) replaces the reference's inner sweeps with one
exact active-set step per outer iteration, so its bits differ.  Each
of its cases asserts instead that a converged solution is
KKT-certified (``corr = X'y - G beta``), that its support equals the
reference's at ``tol=1e-12``, and that it took no more sweeps than the
reference at the same ``tol`` and budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.linalg import lasso_cd, precompute_gram
from repro.linalg.cd import LIST_ROW_MAX_KDIM
from repro.linalg.homotopy import kkt_certified
from repro.stream import RollingRefitter, SpikeRateSource, StreamConfig
from repro.telemetry import Recorder, use_recorder
from repro.telemetry.recorder import count as _tcount, gauge as _tgauge

COUNTERS = ("cd.sweeps", "cd.converged", "cd.nonconverged")


def reference_lasso_cd(X, y, lam, *, beta0=None, max_iter=2000, tol=1e-9, precomputed=None):
    """The numpy-scalar kernel, frozen: the bitwise reference."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n, p = X.shape
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    half_lam = 0.5 * lam

    if precomputed is not None:
        gram, Xty, col_sq = precomputed
        gram_beta = gram @ beta

        def sweep(indices) -> float:
            max_delta = 0.0
            for j in indices:
                cj = col_sq[j]
                if cj == 0.0:
                    continue
                old = beta[j]
                rho_j = Xty[j] - gram_beta[j] + cj * old
                z = abs(rho_j) - half_lam
                new = 0.0 if z <= 0.0 else (z if rho_j > 0 else -z) / cj
                if new != old:
                    gram_beta[:] += gram[j] * (new - old)
                    beta[j] = new
                    delta = abs(new - old)
                    if delta > max_delta:
                        max_delta = delta
            return max_delta

    else:
        col_sq = np.einsum("ij,ij->j", X, X)
        resid = y - X @ beta

        def sweep(indices) -> float:
            max_delta = 0.0
            for j in indices:
                if col_sq[j] == 0.0:
                    continue
                old = beta[j]
                rho_j = X[:, j] @ resid + col_sq[j] * old
                x = np.asarray(rho_j, dtype=float)
                st = np.sign(x) * np.maximum(np.abs(x) - half_lam, 0.0)
                new = float(st) / col_sq[j]
                if new != old:
                    resid[:] += X[:, j] * (old - new)
                    beta[j] = new
                    max_delta = max(max_delta, abs(new - old))
            return max_delta

    all_indices = range(p)
    sweeps_left = max_iter
    converged = False
    delta = np.inf
    while sweeps_left > 0:
        delta = sweep(all_indices)
        sweeps_left -= 1
        if delta < tol:
            converged = True
            break
        while sweeps_left > 0:
            active = np.flatnonzero(beta)
            if active.size == 0:
                break
            delta = sweep(active)
            sweeps_left -= 1
            if delta < tol:
                break

    _tcount("cd.solves")
    _tcount("cd.sweeps", max_iter - sweeps_left)
    _tcount("cd.converged" if converged else "cd.nonconverged")
    _tgauge("cd.last_delta", delta)
    return beta


def _counted(solver, *args, **kwargs):
    rec = Recorder()
    with use_recorder(rec):
        beta = solver(*args, **kwargs)
    counters = rec.counter_values()
    return beta, {k: counters.get(k, 0.0) for k in COUNTERS}


def assert_same_solve(X, y, lam, **kwargs):
    """Byte-equal beta and equal counters; returns the solution."""
    ref, ref_counts = _counted(reference_lasso_cd, X, y, lam, **kwargs)
    new, new_counts = _counted(lasso_cd, X, y, lam, **kwargs)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes(), (new, ref)
    assert new_counts == ref_counts
    return new, new_counts


EXACT_TOL = 1e-12


def assert_certified_solve(X, y, lam, **kwargs):
    """Covariance branch: no more sweeps than the reference at the same
    settings and, once converged, a KKT-certified point whose support
    is the reference's at ``tol=EXACT_TOL``.  Zero-norm columns are
    frozen by both kernels and left out of the certificate."""
    ref, ref_counts = _counted(reference_lasso_cd, X, y, lam, **kwargs)
    new, new_counts = _counted(lasso_cd, X, y, lam, **kwargs)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new_counts["cd.sweeps"] <= ref_counts["cd.sweeps"]
    assert new_counts["cd.converged"] + new_counts["cd.nonconverged"] == 1
    if new_counts["cd.converged"]:
        gram, Xty, col_sq = kwargs["precomputed"]
        live = col_sq != 0.0
        corr = Xty - gram @ new
        if lam > 0.0:
            assert kkt_certified(corr[live], new[live], lam)
        else:
            assert np.max(np.abs(corr[live])) <= 1e-9 * np.max(np.abs(Xty))
        exact_kwargs = {**kwargs, "tol": EXACT_TOL, "max_iter": 100_000}
        exact, exact_counts = _counted(reference_lasso_cd, X, y, lam, **exact_kwargs)
        assert exact_counts["cd.converged"] == 1
        assert np.array_equal(new != 0.0, exact != 0.0), (new, exact)
    return new, new_counts


def assert_solve(branch, X, y, lam, **kwargs):
    check = assert_certified_solve if branch == "covariance" else assert_same_solve
    return check(X, y, lam, **kwargs)


def _design(kdim, seed):
    rng = np.random.default_rng(seed)
    n = max(2 * kdim, 40)
    X = rng.standard_normal((n, kdim))
    if kdim > 1:
        X[:, 1:] += 0.4 * X[:, :-1]  # correlated, so sweeps take a while
    truth = np.where(rng.random(kdim) < 0.3, rng.standard_normal(kdim), 0.0)
    y = X @ truth + 0.5 * rng.standard_normal(n)
    return X, y


def _triple(X, y):
    gram, _, col_sq = precompute_gram(X)
    return gram, X.T @ y, col_sq


def _lam_max(X, y):
    return 2.0 * float(np.max(np.abs(X.T @ y)))


KDIMS = sorted({1, 2, 4, 31, LIST_ROW_MAX_KDIM, LIST_ROW_MAX_KDIM + 1, 64, 128})
BRANCHES = ["covariance", "residual"]


def _branch_kwargs(branch, X, y):
    return {"precomputed": _triple(X, y)} if branch == "covariance" else {}


class TestBitwiseAgainstReference:
    """Byte-equal on the residual branch; certified against the
    reference (:func:`assert_certified_solve`) on the covariance
    branch, whose exact active-set step changes the bits."""

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("kdim", KDIMS)
    def test_cold_warm_and_transported_paths(self, kdim, branch):
        """A warm-started λ path, then the same path cold, then a second
        window's path seeded by delta transport — as var_path_columns
        chains them."""
        X, y = _design(kdim, seed=kdim)
        extra = _branch_kwargs(branch, X, y)
        lams = _lam_max(X, y) * np.logspace(0, -2.5, 6)
        path, beta = [], None
        for lam in lams:
            beta, _ = assert_solve(branch, X, y, float(lam), beta0=beta, tol=1e-7, **extra)
            path.append(beta)
        for lam in lams:
            assert_solve(branch, X, y, float(lam), tol=1e-7, **extra)
        X2, y2 = _design(kdim, seed=kdim + 1000)
        extra2 = _branch_kwargs(branch, X2, y2)
        beta = None
        for j, lam in enumerate(lams):
            start = path[0] if j == 0 else beta + (path[j] - path[j - 1])
            beta, _ = assert_solve(
                branch, X2, y2, float(lam), beta0=start, tol=1e-7, **extra2
            )

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("kdim", KDIMS)
    def test_lam_zero_and_above_lambda_max(self, kdim, branch):
        X, y = _design(kdim, seed=2 * kdim + 1)
        extra = _branch_kwargs(branch, X, y)
        assert_solve(branch, X, y, 0.0, max_iter=300, **extra)
        beta, counts = assert_solve(branch, X, y, 1.5 * _lam_max(X, y), **extra)
        assert not beta.any() and counts["cd.converged"] == 1
        # a warm start far from zero must be driven to the all-zero point
        start = np.linspace(-1.0, 1.0, kdim)
        beta, _ = assert_solve(branch, X, y, 1.5 * _lam_max(X, y), beta0=start, **extra)
        assert not beta.any()

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("kdim", KDIMS)
    def test_budget_exhaustion_stops_at_the_same_point(self, kdim, branch):
        """The residual branch stops where the reference stops.  On the
        covariance branch one sweep is still the reference's sweep; the
        exact step reaches ``tol=1e-14`` within a few sweeps, so the
        longer budgets run out against ``tol=0`` and must be reported."""
        X, y = _design(kdim, seed=3 * kdim + 2)
        extra = _branch_kwargs(branch, X, y)
        lam = 0.01 * _lam_max(X, y)
        tol = 1e-14
        if branch == "covariance":
            assert_same_solve(X, y, lam, max_iter=1, tol=tol, **extra)
            tol = 0.0
        for max_iter in (1, 2, 3, 7):
            beta, counts = assert_solve(
                branch, X, y, lam, max_iter=max_iter, tol=tol, **extra
            )
            if kdim > 1:
                assert counts["cd.nonconverged"] == 1
                assert counts["cd.sweeps"] == max_iter

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("kdim", [2, 4, LIST_ROW_MAX_KDIM + 1])
    def test_zero_column(self, kdim, branch):
        X, y = _design(kdim, seed=4 * kdim)
        X[:, kdim // 2] = 0.0
        extra = _branch_kwargs(branch, X, y)
        beta, _ = assert_solve(branch, X, y, 0.05 * _lam_max(X, y), **extra)
        assert beta[kdim // 2] == 0.0
        # a warm-started nonzero on the dead column is left where it is
        start = np.zeros(kdim)
        start[kdim // 2] = 0.7
        beta, _ = assert_solve(branch, X, y, 0.05 * _lam_max(X, y), beta0=start, **extra)
        assert beta[kdim // 2] == 0.7

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("kdim", [4, LIST_ROW_MAX_KDIM + 1])
    def test_negative_zero_warm_start(self, kdim, branch):
        """-0.0 == 0.0, so a -0.0 start coordinate that stays at zero is
        never rewritten: its sign bit survives, in both kernels."""
        X, y = _design(kdim, seed=5 * kdim)
        extra = _branch_kwargs(branch, X, y)
        start = np.full(kdim, -0.0)
        beta, _ = assert_solve(branch, X, y, 1.5 * _lam_max(X, y), beta0=start, **extra)
        assert np.all(np.signbit(beta))
        start[0] = 0.3
        beta, _ = assert_solve(branch, X, y, 0.2 * _lam_max(X, y), beta0=start, **extra)
        ref = reference_lasso_cd(X, y, 0.2 * _lam_max(X, y), beta0=start, **extra)
        assert np.array_equal(np.signbit(beta[beta == 0.0]), np.signbit(ref[ref == 0.0]))

    def test_sign_of_zero_differs_by_branch(self):
        """A coordinate thresholded to zero from a negative ``rho`` is
        ``-0.0`` on the residual branch (``soft_threshold``'s
        ``sign(x) * max(|x| - k, 0)``) and ``+0.0`` on the covariance
        branch; each kernel keeps its branch's sign."""
        # Orthonormal columns and y inside their span with negative
        # weights: every rho_j is negative and below lam / 2.
        X, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((30, 3)))
        y = X @ np.array([-0.1, -0.2, -0.3])
        start = -np.ones(3)
        lam = 1.5 * _lam_max(X, y)
        resid, _ = assert_same_solve(X, y, lam, beta0=start, max_iter=1)
        cov, _ = assert_same_solve(X, y, lam, beta0=start, max_iter=1, precomputed=_triple(X, y))
        assert not resid.any() and not cov.any()
        assert np.signbit(resid).any()
        assert not np.signbit(cov).any()




@pytest.mark.parametrize("kdim", [3, 4])
def test_exact_steps_and_singular_fallbacks_are_counted(kdim):
    """A well-posed design settles by exact steps alone; a warm start
    nonzero on two identical columns makes the active Gram singular,
    and that outer iteration falls back to inner sweeps, counted."""
    X, y = _design(kdim, seed=6 * kdim)
    lam = 0.05 * _lam_max(X, y)
    rec = Recorder()
    with use_recorder(rec):
        lasso_cd(X, y, lam, precomputed=_triple(X, y))
    counts = rec.counter_values()
    assert counts["cd.exact_steps"] >= 1 and "cd.exact_fallbacks" not in counts
    X[:, 1] = X[:, 0]
    start = np.zeros(kdim)
    start[:2] = 0.5
    rec = Recorder()
    with use_recorder(rec):
        lasso_cd(X, y, lam, beta0=start, precomputed=_triple(X, y))
    counts = rec.counter_values()
    assert counts["cd.exact_fallbacks"] >= 1 and counts["cd.converged"] == 1

@settings(max_examples=25, deadline=None)
@given(
    kdim=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 0.8),
    frac=st.floats(0.01, 1.2),
)
def test_covariance_branch_certified_on_correlated_designs(kdim, seed, rho, frac):
    """Cold, then warm from the solution at twice the penalty: both
    converge, KKT-certified, on the reference's exact support, in no
    more sweeps than the reference."""
    rng = np.random.default_rng(seed)
    n = max(2 * kdim, 40)
    X = rng.standard_normal((n, kdim))
    for j in range(1, kdim):
        X[:, j] += rho * X[:, j - 1]  # each lag correlated with the last
    truth = np.where(rng.random(kdim) < 0.3, rng.standard_normal(kdim), 0.0)
    y = X @ truth + 0.5 * rng.standard_normal(n)
    extra = {"tol": 1e-7, "precomputed": _triple(X, y)}
    lam = frac * _lam_max(X, y)
    start, counts = assert_certified_solve(X, y, 2.0 * lam, **extra)
    assert counts["cd.converged"] == 1
    _, counts = assert_certified_solve(X, y, lam, beta0=start, **extra)
    assert counts["cd.converged"] == 1

def test_ten_window_stream_verifies_cold_identity():
    """Every window of a ten-window warm-started stream equals an
    independent cold serial fit of it, bit for bit (verify=True)."""
    config = StreamConfig(
        var=UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=5,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                solver="cd",
                max_iter=20000,
                random_state=3,
            ),
        ),
        window=40,
        cadence=4,
        verify=True,
    )
    refitter = RollingRefitter(config, p=4)
    for row in SpikeRateSource(4, seed=8, max_ticks=40 + 4 * 9):
        refitter.offer(row)
    assert len(refitter.windows) == 10
    assert sum(w.nonconverged for w in refitter.windows) == 0
