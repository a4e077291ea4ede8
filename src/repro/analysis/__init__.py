"""Correctness tooling for the SPMD substrate (``repro.analysis``).

Seven checkers, one findings currency (:mod:`repro.analysis.findings`,
rules in :mod:`repro.analysis.rules`):

* :mod:`repro.analysis.linter` — an AST-based **static SPMD linter**
  enforcing the communication discipline the paper's implementation
  depends on (rules ``SPMD001``-``SPMD004``);
* :mod:`repro.analysis.shapes` — a **symbolic shape/dtype/memory
  abstract interpreter** (rules ``SHAPE101``-``SHAPE103``) proving
  the Kronecker lifting is never densely materialized and no
  allocation exceeds the per-rank budget at paper scale;
* :mod:`repro.analysis.determinism` — a **determinism-taint pass**
  (rules ``DET301``-``DET304``) tracing nondeterminism sources into
  code reachable from ``UoIPlan.run_chain``/``reduce``;
* :mod:`repro.analysis.planver` — a **pre-run plan verifier**
  (rules ``PLAN401``-``PLAN404``): :func:`verify_plan` over
  constructed plans (opt-in at run time via ``run_plan(...,
  verify=True)`` or a ``verify``-marked executor) plus an AST side;
* :mod:`repro.analysis.threads` — a **lock-order / shared-state
  pass** over the threaded layers (rules ``LOCK501``-``LOCK504``);
* :mod:`repro.analysis.alloc` — an **allocation/copy pass** over the
  hot regions (rules ``ALLOC601``-``ALLOC604``), each finding carrying
  a byte estimate at paper scale;
* :mod:`repro.analysis.dynamic` — **runtime checkers** wired into
  :mod:`repro.simmpi` via ``run_spmd(checker=...)`` (rules
  ``DYN201``-``DYN205``), plus the ``LockOrderObserver`` (``DYN206``)
  behind the ``instrumented_lock`` factories and
  ``REPRO_THREAD_CHECK=1``; its allocation twin ``DYN207`` lives in
  :mod:`repro.analysis.allocobs`.

The six static passes read one parse of the tree,
:class:`repro.analysis.source.SourceIndex`, which also owns the
``# repro: ignore[RULE]`` suppressions.  ``repro check
lint|shapes|determinism|plan|threads|alloc|static|dynamic|all`` (see
:mod:`repro.analysis.check`) runs them and gates CI on zero findings;
``--format sarif`` exports SARIF 2.1.0 (:mod:`repro.analysis.sarif`).
Every rule is documented in ``docs/static-analysis.md``.

This package module imports nothing: production code imports the
runtime pieces (``dynamic``, ``planver``) from their defining modules
without loading the static passes.
"""
