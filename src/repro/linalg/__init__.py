"""Numerical substrate for the UoI reproduction.

This package implements, from scratch, every numerical kernel the paper
relies on:

* :mod:`repro.linalg.soft_threshold` — proximal operators used by ADMM
  and the non-convex baselines.
* :mod:`repro.linalg.admm` — the serial dense LASSO-ADMM solver
  (Boyd et al. 2011, §6.4) with cached factorizations and warm starts.
  Setting ``lam = 0`` yields the OLS-by-ADMM solver the paper uses for
  model estimation.
* :mod:`repro.linalg.consensus` — sample-split consensus ADMM
  (Boyd et al. 2011, §8.2) running over a :mod:`repro.simmpi`
  communicator; this is the distributed solver whose per-iteration
  ``Allreduce`` dominates the paper's communication time.
* :mod:`repro.linalg.cd` — coordinate-descent LASSO: the Gram-form
  path kernel behind ``solver="cd"`` VAR fits and the stream, and the
  residual form, the "plain LASSO" baseline.
* :mod:`repro.linalg.homotopy` — the exact piecewise-linear LASSO path
  (homotopy / LARS-lasso), the serial selection solver of ``n < p``
  designs, with a KKT certificate per grid solution.
* :mod:`repro.linalg.ols` — least squares restricted to a support.
* :mod:`repro.linalg.ridge` — ridge regression baseline.
* :mod:`repro.linalg.nonconvex` — MCP and SCAD penalized regression via
  local linear approximation, the non-convex baselines the paper cites
  (and argues are hard to distribute).
* :mod:`repro.linalg.lambda_grid` — regularization-path construction.
* :mod:`repro.linalg.kron` — the ``vec`` / ``I ⊗ X`` machinery of
  eq. (9), both lazily (column-decomposed) and materialized (as the
  paper's distributed implementation does).
"""

from repro.linalg.soft_threshold import (
    soft_threshold,
    mcp_threshold,
    scad_threshold,
)
from repro.linalg.admm import ADMMResult, LassoADMM, lasso_admm
from repro.linalg.cd import lasso_cd, lasso_cd_path
from repro.linalg.ols import ols_family_columns, ols_from_gram, ols_on_support, ols
from repro.linalg.ridge import ridge
from repro.linalg.nonconvex import mcp_regression, scad_regression
from repro.linalg.lambda_grid import lambda_max, lambda_grid
from repro.linalg.cv import CVResult, cv_lasso, kfold_indices
from repro.linalg.kron import (
    vec,
    identity_kron,
    kron_lasso_columnwise,
)

__all__ = [
    "soft_threshold",
    "mcp_threshold",
    "scad_threshold",
    "ADMMResult",
    "LassoADMM",
    "lasso_admm",
    "lasso_cd",
    "lasso_cd_path",
    "ols_on_support",
    "ols",
    "ols_from_gram",
    "ols_family_columns",
    "ridge",
    "mcp_regression",
    "scad_regression",
    "lambda_max",
    "lambda_grid",
    "CVResult",
    "cv_lasso",
    "kfold_indices",
    "vec",
    "identity_kron",
    "kron_lasso_columnwise",
]
