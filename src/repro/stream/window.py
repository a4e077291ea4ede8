"""Incremental lag matrices over a sliding sample window.

:class:`SlidingLagWindow` is the streaming counterpart of
:func:`repro.var.lag.build_lag_matrices` (paper eqs. 7-8): it holds the
last ``capacity`` raw samples of a ``p``-dimensional series and
maintains, under append + evict, the target matrix ``Y`` and lagged
design ``X`` as rings of precomputed rows, so materializing the
canonical ``(Y, X)`` pair is a reorder of stored bytes and therefore
**bitwise identical** to a full ``build_lag_matrices`` rebuild of the
same raw window.  Each appended sample costs ``O(dp)`` to form its lag
row, independent of the window length.

The downstream re-fit (:mod:`repro.stream.refit`) feeds
:meth:`series` to :class:`repro.engine.plans.VarPlan`, which draws
block bootstraps of the window's rows and forms each bootstrap's own
Gram, so the window keeps no running ``X'X`` / ``X'Y``: no fit could
read them.
"""

from __future__ import annotations

import numpy as np

from repro.var.lag import build_lag_matrices

__all__ = ["SlidingLagWindow"]


class SlidingLagWindow:
    """Sliding window of raw samples with incremental ``(Y, X)``.

    Parameters
    ----------
    p:
        Series dimension (columns of each sample).
    order:
        VAR order ``d``; each lag row concatenates the ``d`` previous
        samples (eq. 8).
    capacity:
        Maximum raw samples retained; appending beyond it evicts the
        oldest sample (and with it the oldest lag row).  Must exceed
        ``order`` so at least one lag row can form.
    add_intercept:
        Prepend a ones column to each lag row, mirroring
        ``build_lag_matrices(add_intercept=True)``.
    """

    def __init__(
        self,
        p: int,
        order: int,
        capacity: int,
        *,
        add_intercept: bool = False,
    ) -> None:
        if p < 1:
            raise ValueError("p must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        if capacity <= order:
            raise ValueError(
                f"capacity must exceed order: capacity={capacity}, d={order}"
            )
        self.p = p
        self.order = order
        self.capacity = capacity
        self.add_intercept = add_intercept
        self.kdim = (1 if add_intercept else 0) + order * p
        self._max_rows = capacity - order

        # Raw-sample ring (ascending time) and lag-row rings (ascending
        # target time).  ``_rstart``/``_start`` index the oldest entry.
        self._raw = np.empty((capacity, p))
        self._rstart = 0
        self._rcount = 0
        self._y = np.empty((self._max_rows, p))
        self._x = np.empty((self._max_rows, self.kdim))
        self._start = 0
        self._count = 0

        self.total_appended = 0
        self.total_evicted = 0

    # ------------------------------------------------------------ sizing
    def __len__(self) -> int:
        """Number of lag rows currently held (``m`` of eqs. 7-8)."""
        return self._count

    @property
    def n_samples(self) -> int:
        """Raw samples currently held."""
        return self._rcount

    @property
    def full(self) -> bool:
        """Whether the next append will evict the oldest sample."""
        return self._rcount == self.capacity

    @property
    def ready(self) -> bool:
        """Whether at least one lag row exists (``n_samples > order``)."""
        return self._count > 0

    # ----------------------------------------------------------- updates
    def append(self, row: np.ndarray) -> None:
        """Add one sample; evicts the oldest first when at capacity."""
        row = np.asarray(row, dtype=float)
        if row.shape != (self.p,):
            raise ValueError(f"row must have shape ({self.p},), got {row.shape}")
        if self._rcount == self.capacity:
            self.evict()
        if self._rcount >= self.order:
            self._push_lag_row(row)
        self._raw[(self._rstart + self._rcount) % self.capacity] = row
        self._rcount += 1
        self.total_appended += 1

    def extend(self, rows: np.ndarray) -> None:
        """Append each row of an ``(n, p)`` block in order."""
        for row in np.asarray(rows, dtype=float):
            self.append(row)

    def evict(self) -> None:
        """Drop the oldest sample (and the lag row it anchors, if any)."""
        if self._rcount == 0:
            raise ValueError("window is empty")
        if self._count > 0:
            # The oldest lag row regresses on the oldest ``d`` samples,
            # so dropping the oldest sample invalidates exactly it.
            self._start = (self._start + 1) % self._max_rows
            self._count -= 1
        self._rstart = (self._rstart + 1) % self.capacity
        self._rcount -= 1
        self.total_evicted += 1

    def _push_lag_row(self, target: np.ndarray) -> None:
        """Form the lag row for ``target`` from the last ``d`` samples."""
        x = np.empty(self.kdim)
        off = 0
        if self.add_intercept:
            x[0] = 1.0
            off = 1
        p = self.p
        for j in range(1, self.order + 1):
            # Lag-j regressor is the sample j steps back (eq. 8).
            idx = (self._rstart + self._rcount - j) % self.capacity
            x[off + (j - 1) * p : off + j * p] = self._raw[idx]
        pos = (self._start + self._count) % self._max_rows
        self._x[pos] = x
        self._y[pos] = target
        self._count += 1

    # ------------------------------------------------------------- views
    def series(self) -> np.ndarray:
        """The raw window as an ascending-time ``(n_samples, p)`` copy."""
        idx = (self._rstart + np.arange(self._rcount)) % self.capacity
        return self._raw[idx].copy()

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ``(Y, X)`` — bitwise what ``build_lag_matrices`` gives.

        Rows come out in the paper's descending-target-time order
        (row ``r`` targets time ``N - r``), i.e. the stored ascending
        rings reversed.
        """
        if self._count == 0:
            raise ValueError("no lag rows yet: need n_samples > order")
        idx = (self._start + np.arange(self._count - 1, -1, -1)) % self._max_rows
        return (
            np.ascontiguousarray(self._y[idx]),
            np.ascontiguousarray(self._x[idx]),
        )

    # ------------------------------------------------------- verification
    def check_against_rebuild(self) -> None:
        """Assert the invariants against a from-scratch rebuild (tests)."""
        Y, X = self.matrices()
        Yr, Xr = build_lag_matrices(
            self.series(), self.order, add_intercept=self.add_intercept
        )
        if not (np.array_equal(Y, Yr) and np.array_equal(X, Xr)):
            raise AssertionError("incremental (Y, X) diverged from rebuild")
