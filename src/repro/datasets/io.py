"""Writers for the paper's on-disk dataset layouts.

The paper's pipeline starts from HDF5 files: UoI_LASSO reads one
``InputData ∈ R^{n x (p+1)}`` matrix (response in column 0, "Samples"
in rows, "Features" in columns).  These helpers generate that file on
the simulated filesystem — including ground truth stored as side
datasets, which examples and tests use to score inference — and are
the canonical way to feed the distributed UoI_LASSO driver.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.regression import SparseRegression, make_sparse_regression
from repro.pfs.hdf5 import SimH5File
from repro.pfs.lustre import STRIPE_THRESHOLD_BYTES

__all__ = [
    "write_regression_file",
    "make_regression_file",
    "INPUT_DATASET",
    "TRUTH_DATASET",
]

#: Dataset names used throughout the repository.
INPUT_DATASET = "data"
TRUTH_DATASET = "truth/beta"


def _pick_stripes(nbytes: int, stripe_count: int | None) -> int | None:
    if stripe_count is not None:
        return stripe_count
    # Mirror the site policy: large files striped wide, small ones not.
    return None if nbytes >= STRIPE_THRESHOLD_BYTES else 1


def write_regression_file(
    ds: SparseRegression,
    path: str = "/input.h5",
    *,
    stripe_count: int | None = None,
) -> SimH5File:
    """Write a generated regression problem in the paper's layout.

    The main dataset (``"data"``) is ``(n, 1 + p)`` with ``y`` in
    column 0; the planted coefficients are stored under
    ``"truth/beta"`` so downstream consumers can score recovery.
    """
    data = np.column_stack([ds.y, ds.X])
    file = SimH5File(path, stripe_count=_pick_stripes(data.nbytes, stripe_count))
    file.create_dataset(INPUT_DATASET, data)
    file.create_dataset(TRUTH_DATASET, ds.beta.reshape(1, -1))
    return file


def make_regression_file(
    n_samples: int,
    n_features: int,
    *,
    path: str = "/input.h5",
    rng: np.random.Generator | None = None,
    **kwargs,
) -> tuple[SimH5File, SparseRegression]:
    """Generate + write a regression problem; returns ``(file, truth)``.

    Keyword arguments are forwarded to
    :func:`repro.datasets.make_sparse_regression`.
    """
    ds = make_sparse_regression(n_samples, n_features, rng=rng, **kwargs)
    return write_regression_file(ds, path), ds


