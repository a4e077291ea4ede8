"""Synthetic dataset generators.

The paper evaluates on (a) synthetic regression/VAR data spanning
16 GB–8 TB problem sizes, (b) S&P-500 stock closes (50- and
470-company subsets, 2013–2016) and (c) a non-human-primate reaching
dataset (192 electrodes, 51,111 samples).  The real datasets are not
redistributable, so :mod:`repro.datasets.finance` and
:mod:`repro.datasets.neuro` generate statistically analogous panels
with the *same shapes and dependence structure* — including a planted
ground-truth Granger network, which the originals cannot offer —
while :mod:`repro.datasets.regression` and
:mod:`repro.datasets.var_synthetic` reproduce the synthetic families.
"""

from repro.datasets.regression import make_sparse_regression
from repro.datasets.var_synthetic import make_sparse_var, random_sparse_coefs
from repro.datasets.finance import (
    make_stock_panel,
    weekly_closes,
    first_differences,
    synthetic_tickers,
)
from repro.datasets.neuro import make_spike_counts
from repro.datasets.io import (
    make_regression_file,
    write_regression_file,
    INPUT_DATASET,
    TRUTH_DATASET,
)

__all__ = [
    "make_sparse_regression",
    "make_sparse_var",
    "random_sparse_coefs",
    "make_stock_panel",
    "weekly_closes",
    "first_differences",
    "synthetic_tickers",
    "make_spike_counts",
    "make_regression_file",
    "write_regression_file",
    "INPUT_DATASET",
    "TRUTH_DATASET",
]
