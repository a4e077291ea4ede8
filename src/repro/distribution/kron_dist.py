"""Distributed Kronecker product + vectorization (paper §III-B.2).

UoI_VAR's lifted problem ``(I_p ⊗ X, vec Y)`` is ≈ p³ in the input
size: the data file is megabytes, the lifted design is gigabytes to
terabytes.  It therefore can neither be materialized on one node nor
read from disk.  The paper's strategy, reproduced here:

* a small number of ``n_reader`` processes hold the (small) lag
  matrices ``X`` (m x k) and ``Y`` (m x p) in RMA windows;
* every compute core determines which *lifted* rows it owns under
  block striping of the ``m * p`` lifted rows, maps each lifted row
  ``r`` back to its source coordinates ``(i, j) = (r mod m, r div m)``
  — lifted row ``r`` is ``e_j' ⊗ X[i, :]`` with response ``Y[i, j]`` —
  and one-sided-``Get``\\ s exactly the source rows it needs;
* the local slice is assembled directly in sparse (CSR) form
  (:meth:`DistributedKron.build_local`: the lifted design has sparsity
  ``1 - 1/p`` and the paper's solver is Eigen-Sparse), or kept as the
  dense source rows (:meth:`DistributedKron.build_rows`), which is all
  a per-column solve needs.

The many-origins-few-targets traffic pattern is the UoI_VAR
"Distribution" cost the paper's Figs. 7-10 track; the window's
contention model charges it accordingly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.distribution.randomized import block_bounds
from repro.simmpi.clock import TimeCategory
from repro.simmpi.comm import SimComm
from repro.simmpi.window import Window

__all__ = ["DistributedKron", "lifted_row_block", "lifted_coords"]


def lifted_row_block(m: int, p: int, size: int, rank: int) -> tuple[int, int]:
    """Range ``[lo, hi)`` of lifted rows owned by ``rank``.

    The lifted problem has ``m * p`` rows (``m`` time rows per output
    column, ``p`` output columns, column-major per ``vec``).
    """
    return block_bounds(m * p, size, rank)


def lifted_coords(r: int, m: int) -> tuple[int, int]:
    """Source coordinates ``(i, j)`` of lifted row ``r``: ``vec`` stacking
    puts ``Y[i, j]`` at position ``i + m * j``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    return r % m, r // m


class DistributedKron:
    """Per-rank handle on the distributed Kronecker construction.

    Construction is collective.  Reader ranks (``rank < n_readers``)
    must pass the full lag matrices ``X`` and ``Y``; other ranks may
    pass ``None`` (they learn the shapes over the wire, fetching rows
    one-sidedly) — matching the paper, where only the reader processes
    ever see the source data.

    Parameters
    ----------
    comm:
        Communicator (readers and compute cores together).
    X:
        ``(m, k)`` lag-regressor matrix (eq. 8), or ``None`` on
        non-reader ranks.
    Y:
        ``(m, p)`` response matrix (eq. 7), or ``None`` on non-reader
        ranks.
    n_readers:
        How many leading ranks expose the data ("usually equal to the
        number of samples based on the availability of resources").
    """

    def __init__(
        self,
        comm: SimComm,
        X: np.ndarray | None,
        Y: np.ndarray | None,
        *,
        n_readers: int = 1,
    ) -> None:
        if not (1 <= n_readers <= comm.size):
            raise ValueError(
                f"n_readers must be in [1, {comm.size}], got {n_readers}"
            )
        self.comm = comm
        self.n_readers = n_readers
        self.is_reader = comm.rank < n_readers

        if self.is_reader:
            if X is None or Y is None:
                raise ValueError("reader ranks must provide X and Y")
            X = np.ascontiguousarray(X, dtype=float)
            Y = np.ascontiguousarray(Y, dtype=float)
            if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
                raise ValueError(
                    f"X {None if X is None else X.shape} / "
                    f"Y {None if Y is None else Y.shape} must share rows"
                )
            shape_info = (X.shape, Y.shape)
        else:
            shape_info = None
        self.X_shape, self.Y_shape = comm.bcast(
            shape_info, root=0, category=TimeCategory.DISTRIBUTION
        )
        self.m, self.k = self.X_shape
        self.p = self.Y_shape[1]
        if self.m < n_readers:
            raise ValueError(
                f"{self.m} source rows cannot be striped over {n_readers} readers"
            )

        # Readers expose their row blocks of X and Y; everyone else
        # exposes nothing (pure origins).
        self._reader_bounds = [
            block_bounds(self.m, n_readers, r) for r in range(n_readers)
        ]
        if self.is_reader:
            lo, hi = self._reader_bounds[comm.rank]
            self._x_win = Window(comm, X[lo:hi], category=TimeCategory.DISTRIBUTION)
            self._y_win = Window(comm, Y[lo:hi], category=TimeCategory.DISTRIBUTION)
        else:
            self._x_win = Window(comm, None, category=TimeCategory.DISTRIBUTION)
            self._y_win = Window(comm, None, category=TimeCategory.DISTRIBUTION)

    def _owner_of_source_row(self, i: int) -> int:
        for r, (lo, hi) in enumerate(self._reader_bounds):
            if lo <= i < hi:
                return r
        raise AssertionError("unreachable: reader bounds cover [0, m)")

    def build_rows(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Fetch this rank's lifted rows as their dense source rows.

        Lifted row ``r = i + m * j`` is ``e_j' ⊗ X[i, :]``: its only
        nonzeros are ``X[i, :]``, in columns ``[j*k, (j+1)*k)``.  So the
        rank's rows of one response column ``j`` form a dense block of
        ``X``, and its rows of a column it owns outright are all of
        ``X``.

        Returns
        -------
        rows:
            ``(n_local, k)``: row ``r - lo`` is ``X[r mod m, :]``.
        b_local:
            ``(n_local,)`` slice of ``vec Y``.
        bounds:
            The ``[lo, hi)`` lifted-row range this rank owns.
        """
        comm = self.comm
        m, k, p = self.m, self.k, self.p
        lo, hi = lifted_row_block(m, p, comm.size, comm.rank)
        n_local = hi - lo
        b_local = np.empty(n_local)
        rows = np.empty((n_local, k))

        # Walk the owned lifted rows grouped by (output column j,
        # reader owner) so each group is one batched Get per window.
        r = lo
        while r < hi:
            i, j = lifted_coords(r, m)
            owner = self._owner_of_source_row(i)
            o_lo, o_hi = self._reader_bounds[owner]
            # Longest run staying in column j and owner's block.
            run = min(hi - r, (j + 1) * m - r, o_hi - i)
            x_rows = self._x_win.get(owner, slice(i - o_lo, i - o_lo + run))
            y_vals = self._y_win.get(owner, (slice(i - o_lo, i - o_lo + run), j))
            sel = slice(r - lo, r - lo + run)
            rows[sel] = x_rows
            b_local[sel] = y_vals
            r += run
        self._x_win.fence()
        return rows, b_local, (lo, hi)

    def build_local(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray, tuple[int, int]]:
        """Assemble this rank's slice of ``(I ⊗ X, vec Y)``.

        Returns
        -------
        A_local:
            ``(n_local, k * p)`` CSR slice of the lifted design.
        b_local:
            ``(n_local,)`` slice of ``vec Y``.
        bounds:
            The ``[lo, hi)`` lifted-row range this rank owns.
        """
        rows, b_local, (lo, hi) = self.build_rows()
        n_local, k = hi - lo, self.k
        # CSR assembly: lifted row (i, j) has its k nonzeros in columns
        # [j*k, (j+1)*k).
        col_block = np.arange(lo, hi, dtype=np.intp) // self.m
        indptr = np.arange(0, (n_local + 1) * k, k, dtype=np.intp)
        indices = (
            col_block[:, None] * k + np.arange(k, dtype=np.intp)[None, :]
        ).reshape(-1)
        A_local = scipy.sparse.csr_matrix(
            (rows.reshape(-1), indices, indptr), shape=(n_local, k * self.p)
        )
        return A_local, b_local, (lo, hi)

    def close(self) -> None:
        """Collective teardown of both windows."""
        self._x_win.free()
        self._y_win.free()
