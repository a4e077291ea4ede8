"""``import repro`` stays light: heavy optional imports load on use.

Every fit, engine worker and service process pays ``import repro``;
``scipy.stats`` (one ``chi2.sf`` call) and ``networkx`` (one
``DiGraph``) together doubled it, so they are imported inside the
functions that use them.  Likewise the static-analysis passes: the
service, store and stream layers import the lock factories from
``repro.analysis.dynamic``, which must not drag the passes along.
"""

import os
import subprocess
import sys

import numpy as np

from repro.core import UoILassoConfig, UoIVar, UoIVarConfig
from repro.datasets import make_sparse_var

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _loaded_after(imports: str, candidates: tuple[str, ...]) -> str:
    code = (
        f"import sys, {imports}; "
        f"print(sorted(m for m in {candidates!r} if m in sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_import_repro_does_not_load_scipy_stats_or_networkx():
    assert _loaded_after("repro", ("scipy.stats", "networkx")) == "[]"


def test_production_imports_do_not_load_static_passes():
    passes = tuple(
        f"repro.analysis.{name}"
        for name in (
            "linter", "shapes", "determinism", "threads",
            "alloc", "allocobs", "check", "sarif",
        )
    )
    assert _loaded_after("repro", passes) == "[]"
    assert _loaded_after("repro, repro.service", passes) == "[]"


def test_lazy_imports_still_serve_diagnose_and_granger_graph():
    series = make_sparse_var(3, 60, rng=np.random.default_rng(4)).series
    cfg = UoIVarConfig(
        order=1,
        lasso=UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=2,
            n_estimation_bootstraps=2,
            random_state=1,
        ),
    )
    model = UoIVar(cfg).fit(series)
    diagnosis = model.diagnose(series, lags=5)
    p_values = diagnosis.whiteness.p_value
    assert p_values.shape == (3,)
    assert np.all((p_values >= 0.0) & (p_values <= 1.0))
    graph = model.granger_graph(labels=["a", "b", "c"])
    assert sorted(graph.nodes) == ["a", "b", "c"]
    assert graph.number_of_edges() == model.network_summary()["edges"]
