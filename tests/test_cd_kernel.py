"""The Python-float coordinate-descent kernels against frozen references.

``repro.linalg.cd`` runs its per-coordinate scalar work on Python
floats held in lists.  Two references are kept verbatim here, so the
comparisons cannot drift with the library:

* ``reference_lasso_cd`` is the numpy-scalar kernel the Python-float
  one replaced (with ``soft_threshold`` inlined).  The residual
  ``lasso_cd`` does the same IEEE operations in the same order, so
  every residual case asserts byte-equal ``beta`` — the sign of zero
  included — and equal ``cd.sweeps`` / ``cd.converged`` /
  ``cd.nonconverged`` counts.  The covariance kernel replaces its
  inner sweeps with one exact active-set step per outer iteration, so
  its bits differ: each covariance case asserts instead that a
  converged solution is KKT-certified (``corr = X'y - G beta``), that
  its support equals the reference's at ``tol=1e-12``, and that it
  took no more sweeps than the reference at the same ``tol`` and
  budget.
* ``reference_cov_cd`` is the per-λ covariance kernel that
  ``lasso_cd_path`` replaced: one call per λ, its exact step's sign
  back-off on numpy arrays.  The path kernel runs the λ chain inside
  one call and the back-off on Python floats, with the same IEEE
  operations in the same order, so it must match the chained
  reference bit for bit, with equal ``cd.*`` totals.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.linalg import lasso_cd, lasso_cd_path
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


def reference_cov_cd(gram, Xty, lam, *, beta0=None, max_iter=2000, tol=1e-9):
    """The per-λ covariance kernel with its numpy back-off, frozen: the
    bitwise reference of ``lasso_cd_path``.  It also counts its sign
    back-offs (``ref.backoffs``), so tests can show they ran."""
    p = gram.shape[0]
    col_sq = np.diag(gram).copy()
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    half_lam = 0.5 * lam
    b = beta.tolist()
    all_indices = range(p)
    xty = Xty.tolist()
    cs = col_sq.tolist()
    gram_beta = gram @ beta
    if p <= LIST_ROW_MAX_KDIM:
        rows = gram.tolist()
        gb = gram_beta.tolist()
    else:
        rows = None
        gb = memoryview(gram_beta)

    def sweep(indices):
        max_delta = 0.0
        for j in indices:
            cj = cs[j]
            if cj == 0.0:
                continue
            old = b[j]
            rho_j = xty[j] - gb[j] + cj * old
            z = abs(rho_j) - half_lam
            new = 0.0 if z <= 0.0 else (z if rho_j > 0 else -z) / cj
            if new != old:
                step = new - old
                if rows is None:
                    np.add(gram_beta, gram[j] * step, out=gram_beta)
                else:
                    row = rows[j]
                    for i in all_indices:
                        gb[i] += row[i] * step
                b[j] = new
                delta = abs(step)
                if delta > max_delta:
                    max_delta = delta
        return max_delta

    def exact_step():
        active = [j for j in all_indices if b[j] != 0.0 and cs[j] != 0.0]
        if not active:
            return 0
        idx = np.array(active)
        L, info = dpotrf(gram[idx[:, None], idx], lower=1)
        if info != 0:
            return None
        cur = np.array([b[j] for j in active])
        sign = np.sign(cur)
        keep = np.arange(idx.size)
        while True:
            s = sign[keep]
            target = dpotrs(L, Xty[idx[keep]] - half_lam * s, lower=1)[0]
            crossed = target * s <= 0.0
            if not crossed.any():
                cur[keep] = target
                break
            _tcount("ref.backoffs")
            now = cur[keep]
            step = target - now
            t = now[crossed] / -step[crossed]
            k = int(np.argmin(t))
            first = np.flatnonzero(crossed)[k]
            now += t[k] * step
            now[first] = 0.0
            now[now * s <= 0.0] = 0.0
            cur[keep] = now
            keep = keep[now != 0.0]
            if not keep.size:
                break
            sub = idx[keep]
            L, info = dpotrf(gram[sub[:, None], sub], lower=1)
            if info != 0:
                break
        for j, v in zip(active, cur.tolist()):
            b[j] = v
        if rows is None:
            np.matmul(gram, np.array(b), out=gram_beta)
        else:
            gb[:] = (gram @ np.array(b)).tolist()
        return 1

    sweeps_left = max_iter
    converged = False
    delta = np.inf
    exact_steps = exact_fallbacks = 0
    while sweeps_left > 0:
        delta = sweep(all_indices)
        sweeps_left -= 1
        if delta < tol:
            converged = True
            break
        if sweeps_left > 0:
            taken = exact_step()
            if taken is not None:
                exact_steps += taken
                continue
            exact_fallbacks += 1
        while sweeps_left > 0:
            active = [j for j, v in enumerate(b) if v != 0.0]
            if not active:
                break
            delta = sweep(active)
            sweeps_left -= 1
            if delta < tol:
                break

    _tcount("cd.solves")
    _tcount("cd.sweeps", max_iter - sweeps_left)
    if exact_steps:
        _tcount("cd.exact_steps", exact_steps)
    if exact_fallbacks:
        _tcount("cd.exact_fallbacks", exact_fallbacks)
    _tcount("cd.converged" if converged else "cd.nonconverged")
    _tgauge("cd.last_delta", delta)
    return np.array(b)


def cov_cd(X, y, lam, *, precomputed, beta0=None, max_iter=2000, tol=1e-9):
    """``lasso_cd_path`` for one λ, called as the reference kernels are."""
    gram, xty, _ = precomputed
    return lasso_cd_path(
        gram, xty, [lam], seed=lambda j, prev: beta0, max_iter=max_iter, tol=tol
    )[0]


def kernel(X, y, lam, **kwargs):
    """The library kernel a case exercises: the covariance path kernel
    given a ``precomputed`` triple, else the residual ``lasso_cd``."""
    return (cov_cd if "precomputed" in kwargs else lasso_cd)(X, y, lam, **kwargs)


def _counted(solver, *args, **kwargs):
    rec = Recorder()
    with use_recorder(rec):
        beta = solver(*args, **kwargs)
    counters = rec.counter_values()
    return beta, {k: counters.get(k, 0.0) for k in COUNTERS}


def assert_same_solve(X, y, lam, **kwargs):
    """Byte-equal beta and equal counters; returns the solution."""
    ref, ref_counts = _counted(reference_lasso_cd, X, y, lam, **kwargs)
    new, new_counts = _counted(kernel, X, y, lam, **kwargs)
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
    new, new_counts = _counted(kernel, X, y, lam, **kwargs)
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
    gram = X.T @ X
    return gram, X.T @ y, np.diag(gram).copy()


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
        kernel(X, y, lam, precomputed=_triple(X, y))
    counts = rec.counter_values()
    assert counts["cd.exact_steps"] >= 1 and "cd.exact_fallbacks" not in counts
    X[:, 1] = X[:, 0]
    start = np.zeros(kdim)
    start[:2] = 0.5
    rec = Recorder()
    with use_recorder(rec):
        kernel(X, y, lam, beta0=start, precomputed=_triple(X, y))
    counts = rec.counter_values()
    assert counts["cd.exact_fallbacks"] >= 1 and counts["cd.converged"] == 1

CD_COUNTERS = (
    "cd.solves", "cd.sweeps", "cd.exact_steps", "cd.exact_fallbacks",
    "cd.converged", "cd.nonconverged",
)


def _chained_reference(gram, xty, lams, seed, **kwargs):
    """The chain ``var_path_columns`` ran before the path kernel: one
    reference solve per λ, seeded from the previous solution."""
    out, beta = np.empty((len(lams), gram.shape[0])), None
    for j, lam in enumerate(lams):
        beta = reference_cov_cd(gram, xty, float(lam), beta0=seed(j, beta), **kwargs)
        out[j] = beta
    return out


def assert_same_path(gram, xty, lams, seed, **kwargs):
    """Byte-equal path, equal ``cd.*`` totals and ``cd.last_delta``;
    returns the path, the totals and the reference's back-off count."""
    runs = []
    for path in (_chained_reference, None):
        rec = Recorder()
        with use_recorder(rec):
            if path is None:
                out = lasso_cd_path(gram, xty, lams, seed=seed, **kwargs)
            else:
                out = path(gram, xty, lams, seed, **kwargs)
        counts = rec.counter_values()
        runs.append((out, {k: counts.get(k, 0.0) for k in CD_COUNTERS},
                     rec.gauge_values(), counts.get("ref.backoffs", 0.0)))
    (ref, ref_counts, ref_gauges, backoffs), (new, new_counts, new_gauges, _) = runs
    assert new.shape == ref.shape and new.tobytes() == ref.tobytes(), (new, ref)
    assert new_counts == ref_counts
    assert new_gauges == ref_gauges
    return new, new_counts, backoffs


def _seeding(mode, warm):
    """cold / path / delta transport along ``warm``, as var_path_columns seeds."""
    if mode == "cold":
        return lambda j, prev: None
    if mode == "path":
        return lambda j, prev: prev
    return lambda j, prev: (
        warm[0] if j == 0 or prev is None else prev + (warm[j] - warm[j - 1])
    )


def _correlated(kdim, seed, rho, n=None):
    rng = np.random.default_rng(seed)
    n = n or max(2 * kdim, 40)
    X = rng.standard_normal((n, kdim))
    for j in range(1, kdim):
        X[:, j] += rho * X[:, j - 1]
    truth = np.where(rng.random(kdim) < 0.3, rng.standard_normal(kdim), 0.0)
    y = X @ truth + 0.5 * rng.standard_normal(n)
    return X, y


@settings(max_examples=40, deadline=None)
@given(
    kdim=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 0.9),
    mode=st.sampled_from(["cold", "path", "transport"]),
    duplicate=st.booleans(),
    tol=st.sampled_from([1e-7, 1e-10, 0.0]),
    max_iter=st.sampled_from([1, 2, 5, 300]),
)
def test_path_kernel_matches_per_lambda_reference(
    kdim, seed, rho, mode, duplicate, tol, max_iter
):
    """One ``lasso_cd_path`` call is the per-λ reference chain, bit for
    bit and count for count, on both sides of ``LIST_ROW_MAX_KDIM``."""
    X, y = _correlated(kdim, seed, rho)
    if duplicate and kdim > 1:
        X[:, 1] = X[:, 0]  # singular active Gram: exact_fallbacks
    gram, xty, _ = _triple(X, y)
    lams = _lam_max(X, y) * np.logspace(0, -2.5, 6)
    X2, y2 = _correlated(kdim, seed + 1, rho)
    warm = lasso_cd_path(*_triple(X2, y2)[:2], lams, tol=1e-7)
    assert_same_path(gram, xty, lams, _seeding(mode, warm), tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("kdim", [4, 12, LIST_ROW_MAX_KDIM + 1, 48])
def test_path_kernel_sign_backoffs_are_bitwise(kdim):
    """Strongly correlated lags make the exact step cross sign
    boundaries; the Python-float back-off lands where numpy's does."""
    backoffs = 0
    for seed in range(8):
        X, y = _correlated(kdim, seed, 0.9, n=kdim + 8)
        gram, xty, _ = _triple(X, y)
        lams = _lam_max(X, y) * np.logspace(0, -3, 8)
        for mode in ("cold", "path"):
            _, _, n = assert_same_path(
                gram, xty, lams, _seeding(mode, None), tol=1e-9, max_iter=5000
            )
            backoffs += n
    assert backoffs > 0


@pytest.mark.parametrize("kdim", [3, 6, LIST_ROW_MAX_KDIM + 2])
def test_path_kernel_singular_fallbacks_are_bitwise(kdim):
    """A start nonzero on duplicated columns makes the active Gram
    singular: both kernels fall back to inner sweeps, identically."""
    X, y = _correlated(kdim, 7 * kdim, 0.3)
    X[:, 1] = X[:, 0]
    X[:, -1] = X[:, 0]
    gram, xty, _ = _triple(X, y)
    lams = _lam_max(X, y) * np.logspace(-1, -2, 4)
    start = np.zeros(kdim)
    start[[0, 1, -1]] = 0.5
    _, counts, _ = assert_same_path(
        gram, xty, lams, lambda j, prev: start if prev is None else prev, tol=1e-7
    )
    assert counts["cd.exact_fallbacks"] >= 1 and counts["cd.converged"] == 4


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
