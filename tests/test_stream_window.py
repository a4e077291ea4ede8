"""SlidingLagWindow: incremental lag matrices == full rebuild, always.

The property the whole streaming subsystem leans on: at *every* point
of *any* append/evict history, the window's ``(Y, X)`` is bitwise what
``build_lag_matrices`` builds from the same raw samples.  The sweep below runs it over dimensions, orders, window
capacities and eviction patterns.
"""

import numpy as np
import pytest

from repro.stream import SlidingLagWindow
from repro.var.lag import build_lag_matrices


def _ticks(n, p, seed=0):
    return np.random.default_rng(seed).standard_normal((n, p))


# ---------------------------------------------------------------------------
# the property sweep
# ---------------------------------------------------------------------------
def _evict_schedule(pattern, rng):
    """Evictions to perform after each append, by pattern name."""
    if pattern == "append_only":
        return lambda i: 0
    if pattern == "burst":
        # Every 7th append, manually evict up to 3 extra samples.
        return lambda i: 3 if i % 7 == 6 else 0
    if pattern == "random":
        return lambda i: int(rng.integers(0, 3))
    raise AssertionError(pattern)


@pytest.mark.parametrize("p", [1, 3, 5])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("capacity", [None, 9, 24])
@pytest.mark.parametrize("pattern", ["append_only", "burst", "random"])
def test_matches_rebuild_under_any_history(p, order, capacity, pattern):
    capacity = order + 1 if capacity is None else capacity
    if capacity <= order:
        pytest.skip("capacity must exceed order")
    rng = np.random.default_rng(p * 100 + order * 10 + capacity)
    win = SlidingLagWindow(p, order, capacity)
    evictions = _evict_schedule(pattern, rng)
    for i, row in enumerate(_ticks(3 * capacity + 5, p, seed=order)):
        win.append(row)
        for _ in range(min(evictions(i), max(0, win.n_samples - 1))):
            win.evict()
        # Invariants hold at every step, not just at the end.
        assert win.n_samples <= capacity
        if win.ready:
            win.check_against_rebuild()
    assert win.total_appended == 3 * capacity + 5
    if pattern == "append_only":
        assert win.total_evicted == win.total_appended - win.n_samples


def test_matrices_bitwise():
    p, order, cap = 4, 2, 12
    win = SlidingLagWindow(p, order, cap)
    series = _ticks(40, p, seed=7)
    win.extend(series)
    Y, X = win.matrices()
    Yr, Xr = build_lag_matrices(series[-cap:], order)
    assert np.array_equal(Y, Yr) and np.array_equal(X, Xr)


def test_intercept_column_matches_rebuild():
    win = SlidingLagWindow(3, 2, 10, add_intercept=True)
    win.extend(_ticks(25, 3, seed=1))
    Y, X = win.matrices()
    Yr, Xr = build_lag_matrices(win.series(), 2, add_intercept=True)
    assert np.array_equal(Y, Yr) and np.array_equal(X, Xr)
    assert np.all(X[:, 0] == 1.0)


# ---------------------------------------------------------------------------
# edges and errors
# ---------------------------------------------------------------------------
def test_not_ready_until_order_exceeded():
    win = SlidingLagWindow(2, 3, 8)
    for row in _ticks(3, 2):
        win.append(row)
        assert not win.ready
    with pytest.raises(ValueError, match="no lag rows"):
        win.matrices()
    win.append(np.zeros(2))
    assert win.ready and len(win) == 1


def test_validation_errors():
    with pytest.raises(ValueError, match="capacity must exceed order"):
        SlidingLagWindow(2, 3, 3)
    with pytest.raises(ValueError, match="p must be"):
        SlidingLagWindow(0, 1, 4)
    with pytest.raises(ValueError, match="order must be"):
        SlidingLagWindow(2, 0, 4)
    win = SlidingLagWindow(2, 1, 4)
    with pytest.raises(ValueError, match="shape"):
        win.append(np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        win.evict()


def test_series_round_trips_ring_wrap():
    win = SlidingLagWindow(2, 1, 5)
    series = _ticks(13, 2, seed=9)
    win.extend(series)
    assert np.array_equal(win.series(), series[-5:])
