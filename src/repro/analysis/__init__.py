"""Correctness tooling for the SPMD substrate (``repro.analysis``).

One findings currency (:mod:`~repro.analysis.findings`; rules and
:func:`~repro.analysis.rules.finding` in :mod:`~repro.analysis.rules`)
and one parse of the tree, :class:`~repro.analysis.source.SourceIndex`,
which owns the call resolver and call graph, the per-function visitor
base and the ``# repro: ignore[RULE]`` suppressions.  Six static
passes read it:

* :mod:`~repro.analysis.linter` — SPMD discipline (``SPMD001``-``004``);
* :mod:`~repro.analysis.shapes` — symbolic shape/dtype/memory
  interpretation (``SHAPE101``-``103``), whose evaluation ALLOC reuses;
* :mod:`~repro.analysis.determinism` — taint from nondeterminism
  sources into plan-reachable code (``DET301``-``304``);
* :mod:`~repro.analysis.planver` — the AST side of the plan verifier
  (``PLAN401``, ``PLAN404``), beside the runtime :func:`verify_plan`
  and lease check (``PLAN401``-``405``);
* :mod:`~repro.analysis.threads` — lock order and shared state
  (``LOCK501``-``504``);
* :mod:`~repro.analysis.alloc` — allocation churn in the hot regions
  (``ALLOC601``-``604``).

The runtime side: :mod:`~repro.analysis.dynamic` holds the simmpi
:class:`DynamicChecker` (``DYN201``-``205``) and the
``LockOrderObserver`` (``DYN206``, behind the ``instrumented_lock``
factories and ``REPRO_THREAD_CHECK=1``);
:mod:`~repro.analysis.allocobs` holds the ``AllocationObserver``
(``DYN207``).
``repro check`` (:mod:`~repro.analysis.check`) runs them all and gates
CI on zero findings; ``--format sarif`` exports SARIF 2.1.0
(:mod:`~repro.analysis.sarif`).  Every rule is documented in
``docs/static-analysis.md``.

This package module imports nothing: production code imports the
runtime pieces (``dynamic``, ``planver``) from their defining modules
without loading the static passes.
"""
