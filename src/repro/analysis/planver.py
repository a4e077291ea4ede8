"""PLAN4xx: pre-run verification of :class:`UoIPlan` instances.

The engine trusts a plan's own enumeration: checkpoint records are
keyed by ``Subproblem.key``, warm starts flow down each chain in list
order, reductions index the result table by the (bootstrap, λ) grid,
and a :class:`~repro.engine.Coordinator` built with a grid's
``owns=`` predicate filters chains by grid ownership before any
lookup or collective is posted.  A plan
that violates any of those assumptions does not crash — it silently
corrupts the estimator (clobbered checkpoints, wrong warm starts,
dropped or double-counted subproblems) or deadlocks at scale.

This module proves the assumptions *before* the run:

* :func:`verify_plan` inspects a constructed plan instance —
  ``PLAN401`` checkpoint-key uniqueness, ``PLAN402`` warm-start chain
  ordering, ``PLAN403`` exact coverage of the (bootstrap, λ) grid,
  and ``PLAN404`` a symbolic replay of the grid's ownership partition
  (every cell owns a disjoint, exhaustive slice, so each rank's
  collective sequence is congruent — the static twin of DYN201/202).
  It returns findings; :func:`assert_valid_plan` raises
  :class:`PlanVerificationError` instead.  The engine calls it when
  ``REPRO_PLAN_VERIFY=1`` (see :func:`repro.engine.run_plan`) or via
  ``make_executor(..., verify=True)``.
* :func:`plan_lint_source` is the AST side for ``repro check plan``:
  ``PLAN401`` statically (a constant checkpoint key built inside a
  task loop is a duplicate in waiting) and ``PLAN404`` statically
  (``run_chain`` posting world-communicator collectives, ``reduce``
  posting collectives under a rank/ownership conditional).

Verification is read-only and runs in O(#subproblems): cheap
insurance against a 100k-core launch with a malformed plan.
"""

from __future__ import annotations

import ast
import os
from types import SimpleNamespace
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, format_findings
from repro.analysis.rules import get_rule
from repro.analysis.suppress import filter_findings

__all__ = [
    "PlanVerificationError",
    "verify_plan",
    "assert_valid_plan",
    "verify_lease_disjointness",
    "assert_disjoint_leases",
    "plan_lint_source",
    "plan_lint_file",
    "plan_lint_paths",
    "default_plan_paths",
]

#: Collective methods a communicator exposes (mirrors the SPMD
#: linter's receiver set).
_COLLECTIVE_METHODS = frozenset(
    {
        "allreduce",
        "bcast",
        "barrier",
        "reduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "reduce_scatter",
        "scan",
        "iallreduce",
        "iallgather",
        "ibarrier",
        "fence",
    }
)


class PlanVerificationError(ValueError):
    """A plan failed pre-run verification.

    Carries the full findings list; the message embeds the human
    rendering so engine-level failures are diagnosable from the
    traceback alone.
    """

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = findings
        super().__init__(
            "plan failed pre-run verification:\n" + format_findings(findings)
        )


# ---------------------------------------------------------------------------
# runtime side: verify_plan over a constructed plan instance
# ---------------------------------------------------------------------------
def _plan_finding(
    plan: object, rule_id: str, message: str, **context: object
) -> Finding:
    rule = get_rule(rule_id)
    return Finding(
        rule=rule.id,
        severity=rule.severity,
        message=message,
        file=f"<plan:{type(plan).__name__}>",
        line=0,
        source="plan",
        context=context,
    )


def _check_chain_order(
    plan: object, stage: str, chains: list, findings: list[Finding]
) -> None:
    """PLAN402: each chain is one bootstrap, positions 0..len-1, λ monotone."""
    for ci, chain in enumerate(chains):
        if not chain:
            findings.append(
                _plan_finding(
                    plan,
                    "PLAN402",
                    f"stage {stage!r} chain {ci} is empty",
                    stage=stage,
                    chain=ci,
                )
            )
            continue
        stages = {t.stage for t in chain}
        boots = {t.bootstrap for t in chain}
        if len(stages) > 1 or len(boots) > 1:
            findings.append(
                _plan_finding(
                    plan,
                    "PLAN402",
                    f"stage {stage!r} chain {ci} mixes "
                    f"stages {sorted(stages)!r} / bootstraps {sorted(boots)}: "
                    "a chain shares one bootstrap's data and warm starts",
                    stage=stage,
                    chain=ci,
                )
            )
        positions = [t.pos for t in chain]
        if positions != sorted(positions):
            findings.append(
                _plan_finding(
                    plan,
                    "PLAN402",
                    f"stage {stage!r} chain {ci} positions {positions} are "
                    "not monotone: tasks would warm-start from the wrong β",
                    stage=stage,
                    chain=ci,
                    positions=positions,
                )
            )
        lams = [t.lam_index for t in chain if t.lam_index is not None]
        if lams != sorted(lams):
            findings.append(
                _plan_finding(
                    plan,
                    "PLAN402",
                    f"stage {stage!r} chain {ci} λ indices {lams} are not "
                    "monotone: the λ-path warm start runs large-to-small "
                    "penalties in index order",
                    stage=stage,
                    chain=ci,
                    lam_indices=lams,
                )
            )


def _check_coverage(
    plan: object, stage: str, chains: list, findings: list[Finding]
) -> None:
    """PLAN403: tasks cover the (bootstrap, λ) grid exactly once."""
    first_stage = getattr(plan, "stages", (stage,))[0]
    nboot = getattr(plan, "B1" if stage == first_stage else "B2", None)
    q = getattr(plan, "q", None)
    if nboot is None:
        return  # plan does not expose the grid extents; nothing to prove
    tasks = [t for chain in chains for t in chain]
    per_lambda = any(t.lam_index is not None for t in tasks)
    if per_lambda and q is not None:
        expected = {(k, j) for k in range(nboot) for j in range(q)}
        got = [(t.bootstrap, t.lam_index) for t in tasks]
    else:
        expected = {(k, None) for k in range(nboot)}
        got = [(t.bootstrap, None) for t in tasks]
    seen: set = set()
    dupes: set = set()
    for cell in got:
        if cell in seen:
            dupes.add(cell)
        seen.add(cell)
    missing = expected - seen
    extra = seen - expected
    if missing or extra or dupes:
        findings.append(
            _plan_finding(
                plan,
                "PLAN403",
                f"stage {stage!r} does not cover the (bootstrap, λ) grid "
                f"exactly once: missing={sorted(missing)} "
                f"extra={sorted(extra)} duplicated={sorted(dupes)}",
                stage=stage,
                missing=sorted(missing),
                extra=sorted(extra),
                duplicated=sorted(dupes),
            )
        )


def _check_grid_partition(
    plan: object, stage: str, chains: list, findings: list[Finding]
) -> None:
    """PLAN404: symbolic replay of the grid's ownership partition.

    Replays every cell's ownership predicate (via an attribute-stub
    ``SimpleNamespace``, so no communicators are needed) over the full
    task set: each task must be owned by exactly one (b, l) cell.
    With that proven, a bound executor gives every cell a disjoint,
    exhaustive slice, so ``reduce``'s unconditional world collectives
    see congruent call sequences on every rank — the static
    counterpart of the DYN201/202 runtime checks.
    """
    grid = getattr(plan, "grid", None)
    if grid is None:
        return
    pb = int(getattr(grid, "pb", 1))
    plam = int(getattr(grid, "plam", 1))
    grid_type = type(grid)
    tasks = [t for chain in chains for t in chain]
    for t in tasks:
        owners = []
        for b in range(pb):
            stub_b = SimpleNamespace(pb=pb, plam=plam, b=b, l=0)
            if not grid_type.owns_bootstrap(stub_b, t.bootstrap):
                continue
            for lam in range(plam):
                stub = SimpleNamespace(pb=pb, plam=plam, b=b, l=lam)
                if t.lam_index is None or grid_type.owns_lambda(
                    stub, t.lam_index
                ):
                    owners.append((b, lam))
        expected_owners = plam if t.lam_index is None else 1
        if len(owners) != expected_owners:
            findings.append(
                _plan_finding(
                    plan,
                    "PLAN404",
                    f"stage {stage!r} task {t.key!r} is owned by "
                    f"{len(owners)} grid cells {owners} (expected "
                    f"{expected_owners}): the ownership partition is not "
                    "disjoint/exhaustive, so ranks would disagree on the "
                    "collective schedule",
                    stage=stage,
                    key=t.key,
                    owners=owners,
                )
            )


def verify_plan(plan: object) -> list[Finding]:
    """Pre-run verification of a constructed plan; returns findings.

    Read-only: enumerates ``plan.chains(stage)`` for every stage and
    checks checkpoint-key uniqueness (PLAN401), warm-start chain
    ordering (PLAN402), grid coverage (PLAN403), and the grid
    ownership partition (PLAN404).  An empty list means the plan is
    safe to launch.
    """
    findings: list[Finding] = []
    keys_seen: dict[str, str] = {}
    for stage in getattr(plan, "stages", ()):
        chains = plan.chains(stage)  # type: ignore[attr-defined]
        for chain in chains:
            for task in chain:
                prev = keys_seen.get(task.key)
                if prev is not None:
                    findings.append(
                        _plan_finding(
                            plan,
                            "PLAN401",
                            f"checkpoint key {task.key!r} is used by two "
                            f"subproblems ({prev} and {stage}): the second "
                            "write clobbers the first and restarts recover "
                            "the wrong payload",
                            key=task.key,
                            stages=[prev, stage],
                        )
                    )
                else:
                    keys_seen[task.key] = stage
        _check_chain_order(plan, stage, chains, findings)
        _check_coverage(plan, stage, chains, findings)
        _check_grid_partition(plan, stage, chains, findings)
    return findings


def assert_valid_plan(plan: object) -> None:
    """Raise :class:`PlanVerificationError` unless ``plan`` verifies."""
    findings = verify_plan(plan)
    if findings:
        raise PlanVerificationError(findings)


# ---------------------------------------------------------------------------
# runtime side: lease disjointness (PLAN405)
# ---------------------------------------------------------------------------
def verify_lease_disjointness(leases: Sequence[object]) -> list[Finding]:
    """PLAN405: active coordinator leases never overlap.

    ``leases`` is any sequence of objects with ``keys`` (subproblem
    keys covered), ``chain_index``, ``worker`` and ``speculative``
    attributes (duck-typed so the engine's ``Lease`` needs no import
    here).  The invariant mirrors PLAN404's ownership partition at
    runtime: a subproblem key may be covered by at most one *primary*
    (non-speculative) lease; speculative duplicates of the **same**
    chain are exempt — they re-run a pure chain and only the first
    result is kept — but a speculative lease overlapping a *different*
    chain's keys is still a violation.
    """
    rule = get_rule("PLAN405")
    findings: list[Finding] = []
    primary_by_key: dict[str, object] = {}
    chain_by_key: dict[str, object] = {}
    for lease in leases:
        speculative = bool(getattr(lease, "speculative", False))
        for key in getattr(lease, "keys", ()):
            other = chain_by_key.get(key)
            if other is not None and getattr(
                other, "chain_index", None
            ) != getattr(lease, "chain_index", None):
                findings.append(
                    _lease_finding(rule, key, lease, other, "cross-chain")
                )
            if speculative:
                chain_by_key.setdefault(key, lease)
                continue
            prev = primary_by_key.get(key)
            if prev is not None:
                findings.append(
                    _lease_finding(rule, key, lease, prev, "double-primary")
                )
            else:
                primary_by_key[key] = lease
            chain_by_key.setdefault(key, lease)
    return findings


def _lease_finding(
    rule: object, key: str, lease: object, other: object, shape: str
) -> Finding:
    def _describe(obj: object) -> str:
        worker = getattr(obj, "worker", "?")
        chain = getattr(obj, "chain_index", "?")
        spec = " (speculative)" if getattr(obj, "speculative", False) else ""
        return f"chain {chain} on {worker}{spec}"

    return Finding(
        rule=rule.id,  # type: ignore[attr-defined]
        severity=rule.severity,  # type: ignore[attr-defined]
        message=(
            f"subproblem {key!r} is covered by two active leases "
            f"({_describe(lease)} and {_describe(other)}, {shape}): leases "
            "must partition outstanding work like PLAN404 ownership"
        ),
        file="<coordinator>",
        line=0,
        source="plan",
        context={"key": key, "overlap": shape},
    )


def assert_disjoint_leases(leases: Sequence[object]) -> None:
    """Raise :class:`PlanVerificationError` on any PLAN405 overlap."""
    findings = verify_lease_disjointness(leases)
    if findings:
        raise PlanVerificationError(findings)


# ---------------------------------------------------------------------------
# static side: AST lint for `repro check plan`
# ---------------------------------------------------------------------------
def _plan_classes(tree: ast.Module) -> Iterable[ast.ClassDef]:
    """Classes whose base-name chain (within this file) reaches UoIPlan."""
    classes = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def base_names(node: ast.ClassDef) -> list[str]:
        out = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                out.append(base.id)
            elif isinstance(base, ast.Attribute):
                out.append(base.attr)
        return out

    def is_plan(node: ast.ClassDef, seen: set[str]) -> bool:
        for base in base_names(node):
            if base == "UoIPlan":
                return True
            if base in classes and base not in seen:
                if is_plan(classes[base], seen | {node.name}):
                    return True
        return False

    for node in classes.values():
        if is_plan(node, set()):
            yield node


def _enclosing_loops(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> list[ast.For]:
    out = []
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.For):
            out.append(cur)
        cur = parents.get(cur)
    return out


def _key_argument(call: ast.Call) -> ast.expr | None:
    """The ``key`` argument of a ``Subproblem(...)`` construction."""
    for kw in call.keywords:
        if kw.arg == "key":
            return kw.value
    if len(call.args) >= 4:
        return call.args[3]
    return None


def _check_static_duplicate_keys(
    tree: ast.Module, filename: str, findings: list[Finding]
) -> None:
    """PLAN401 static: constant Subproblem key built inside a loop."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Subproblem"
        ):
            continue
        key = _key_argument(node)
        if key is None or not _enclosing_loops(node, parents):
            continue
        constant = isinstance(key, ast.Constant) or (
            isinstance(key, ast.JoinedStr)
            and not any(
                isinstance(part, ast.FormattedValue) for part in key.values
            )
        )
        if constant:
            rule = get_rule("PLAN401")
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    message=(
                        "Subproblem key is a constant built inside a task "
                        "loop: every iteration produces the same checkpoint "
                        "key, so records clobber each other — interpolate "
                        "the loop indices into the key"
                    ),
                    file=filename,
                    line=node.lineno,
                    source="lint",
                    context={},
                )
            )


def _comm_receiver(call: ast.Call) -> str | None:
    """Dotted receiver of a collective call, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in _COLLECTIVE_METHODS:
        return None
    parts: list[str] = []
    cur: ast.expr = func.value
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return ".".join(reversed(parts)) if parts else None


def _mentions_rank_or_ownership(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("owns", "owns_bootstrap", "owns_lambda")
        ):
            return True
    return False


def _check_static_congruence(
    tree: ast.Module, filename: str, findings: list[Finding]
) -> None:
    """PLAN404 static: collective discipline inside plan classes.

    ``run_chain`` runs only on the owning cell's ranks, so a
    world-communicator collective there is rank-divergent by
    construction; ``reduce`` runs on every rank, so its collectives
    must be unconditional (not nested under a rank or ownership
    check).
    """
    rule = get_rule("PLAN404")
    for cls in _plan_classes(tree):
        for meth in cls.body:
            if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if meth.name == "run_chain":
                for node in ast.walk(meth):
                    if not isinstance(node, ast.Call):
                        continue
                    receiver = _comm_receiver(node)
                    if receiver is None:
                        continue
                    terminal = receiver.split(".")[-1]
                    if receiver == "self.comm" or terminal == "world":
                        findings.append(
                            Finding(
                                rule=rule.id,
                                severity=rule.severity,
                                message=(
                                    f"world-communicator collective "
                                    f"`{receiver}.{node.func.attr}` inside "  # type: ignore[union-attr]
                                    "run_chain: ownership filtering means "
                                    "only the owning cell reaches it — "
                                    "other ranks block forever; use the "
                                    "cell/solver communicator"
                                ),
                                file=filename,
                                line=node.lineno,
                                source="lint",
                                context={"receiver": receiver},
                            )
                        )
            elif meth.name == "reduce":
                parents: dict[ast.AST, ast.AST] = {}
                for node in ast.walk(meth):
                    for child in ast.iter_child_nodes(node):
                        parents[child] = node
                for node in ast.walk(meth):
                    if not isinstance(node, ast.Call):
                        continue
                    receiver = _comm_receiver(node)
                    if receiver is None:
                        continue
                    cur = parents.get(node)
                    guarded = None
                    while cur is not None and cur is not meth:
                        if isinstance(
                            cur, ast.If
                        ) and _mentions_rank_or_ownership(cur.test):
                            guarded = cur
                            break
                        cur = parents.get(cur)
                    if guarded is not None:
                        findings.append(
                            Finding(
                                rule=rule.id,
                                severity=rule.severity,
                                message=(
                                    f"collective `{receiver}."
                                    f"{node.func.attr}` in reduce is "  # type: ignore[union-attr]
                                    "guarded by a rank/ownership "
                                    "conditional: reduce runs on every "
                                    "rank and its collectives must be "
                                    "unconditional (accumulate under the "
                                    "guard, reduce outside it)"
                                ),
                                file=filename,
                                line=node.lineno,
                                source="lint",
                                context={"receiver": receiver},
                            )
                        )


def plan_lint_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Run the static PLAN checks over one source string."""
    tree = ast.parse(source, filename=filename)
    findings: list[Finding] = []
    _check_static_duplicate_keys(tree, filename, findings)
    _check_static_congruence(tree, filename, findings)
    return filter_findings(source, filename, findings, families=("PLAN",))


def plan_lint_file(path: str) -> list[Finding]:
    """Run the static PLAN checks over one file."""
    with open(path, "r", encoding="utf-8") as fh:
        return plan_lint_source(fh.read(), filename=path)


def default_plan_paths() -> list[str]:
    """Where plans live: the engine and the distributed core."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [os.path.join(here, "engine"), os.path.join(here, "core")]


def plan_lint_paths(paths: Sequence[str] | None = None) -> list[Finding]:
    """Run the static PLAN checks over ``.py`` files under ``paths``."""
    targets: list[str] = []
    for path in paths if paths else default_plan_paths():
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                targets.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        elif path.endswith(".py"):
            targets.append(path)
        else:
            raise ValueError(f"not a directory or .py file: {path}")
    findings: list[Finding] = []
    for target in targets:
        findings.extend(plan_lint_file(target))
    return findings
