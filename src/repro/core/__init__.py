"""The Union of Intersections framework (the paper's algorithms).

* :mod:`repro.core.config` — hyperparameter dataclasses
  (``B1``/``B2`` bootstraps, λ grid, solver knobs).
* :mod:`repro.core.bootstrap` — iid bootstraps with train/eval splits
  (UoI_LASSO) and circular block bootstraps (UoI_VAR's
  temporal-dependence-preserving resampling).
* :mod:`repro.core.selection` — the *intersection* step (eq. 3):
  supports intersected across bootstraps per λ.
* :mod:`repro.core.estimation` — the *union* step (eq. 4): per-support
  OLS across estimation bootstraps, best-support-per-bootstrap by
  held-out loss, bagged average.
* :mod:`repro.core.uoi_lasso` — serial :class:`UoILasso`
  (Algorithm 1).
* :mod:`repro.core.uoi_var` — serial :class:`UoIVar` (Algorithm 2).
* :mod:`repro.core.parallel` — the distributed drivers over
  :mod:`repro.simmpi`: P_B x P_lambda x ADMM process grids,
  randomized data distribution, consensus-ADMM solves, and
  collective intersection/union reductions.
"""

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.core.bootstrap import (
    iid_bootstrap,
    bootstrap_train_eval,
    circular_block_bootstrap,
    block_train_eval,
)
from repro.core.selection import intersect_supports, support_family
from repro.core.estimation import best_support_per_bootstrap, union_average
from repro.core.uoi_lasso import UoILasso
from repro.core.uoi_var import UoIVar

__all__ = [
    "UoILassoConfig",
    "UoIVarConfig",
    "iid_bootstrap",
    "bootstrap_train_eval",
    "circular_block_bootstrap",
    "block_train_eval",
    "intersect_supports",
    "support_family",
    "best_support_per_bootstrap",
    "union_average",
    "UoILasso",
    "UoIVar",
]
