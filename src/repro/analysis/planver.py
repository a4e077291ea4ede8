"""PLAN4xx: pre-run verification of :class:`UoIPlan` instances.

The engine trusts a plan's own enumeration: checkpoint records are
keyed by ``Subproblem.key``, warm starts flow down each chain in list
order, reductions index the result table by the (bootstrap, λ) grid,
and a grid's ``owns=`` predicate filters chains before any collective
is posted.  A plan that breaks one of those assumptions silently
corrupts the estimator or deadlocks at scale.  :func:`verify_plan`
checks a constructed plan before the run (``PLAN401`` key uniqueness,
``PLAN402`` chain order, ``PLAN403`` grid coverage, ``PLAN404`` a
symbolic replay of the ownership partition); the engine calls it on
``run_plan(..., verify=True)`` and the service at every submit.
:func:`assert_disjoint_leases` checks the coordinator's leases
(``PLAN405``).  :func:`plan_lint_index` is the AST side for ``repro
check plan`` (``PLAN401`` and ``PLAN404`` from the syntax).
"""

from __future__ import annotations

import ast
import os
from types import SimpleNamespace
from typing import Sequence

from repro.analysis.findings import Finding, format_findings
from repro.analysis.rules import finding
from repro.analysis.source import ClassInfo, ModuleInfo, SourceIndex, package_root, terminal

__all__ = [
    "PlanVerificationError",
    "verify_plan",
    "assert_valid_plan",
    "verify_lease_disjointness",
    "assert_disjoint_leases",
    "plan_lint_index",
    "default_plan_paths",
]

#: Collective methods a communicator exposes (the SPMD linter adds the
#: communicator-lifecycle calls to this set).
COLLECTIVES = frozenset(
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
    where = f"<plan:{type(plan).__name__}>"
    return finding(rule_id, where, 0, message, source="plan", **context)


def _check_chain_order(
    plan: object, stage: str, chains: list, findings: list[Finding]
) -> None:
    """PLAN402: each chain is one bootstrap, positions 0..len-1, λ monotone."""
    def bad(ci: int, message: str, **context: object) -> None:
        findings.append(_plan_finding(
            plan, "PLAN402", f"stage {stage!r} chain {ci} {message}",
            stage=stage, chain=ci, **context,
        ))

    for ci, chain in enumerate(chains):
        if not chain:
            bad(ci, "is empty")
            continue
        stages = {t.stage for t in chain}
        boots = {t.bootstrap for t in chain}
        if len(stages) > 1 or len(boots) > 1:
            bad(
                ci,
                f"mixes stages {sorted(stages)!r} / bootstraps {sorted(boots)}: "
                "a chain shares one bootstrap's data and warm starts"
            )
        positions = [t.pos for t in chain]
        if positions != sorted(positions):
            bad(
                ci,
                f"positions {positions} are not monotone: tasks would "
                "warm-start from the wrong β",
                positions=positions,
            )
        lams = [t.lam_index for t in chain if t.lam_index is not None]
        if lams != sorted(lams):
            bad(
                ci,
                f"λ indices {lams} are not monotone: the λ-path warm start "
                "runs large-to-small penalties in index order",
                lam_indices=lams,
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
                findings.append(_lease_finding(key, lease, other, "cross-chain"))
            if speculative:
                chain_by_key.setdefault(key, lease)
                continue
            prev = primary_by_key.get(key)
            if prev is not None:
                findings.append(_lease_finding(key, lease, prev, "double-primary"))
            else:
                primary_by_key[key] = lease
            chain_by_key.setdefault(key, lease)
    return findings


def _lease_finding(key: str, lease: object, other: object, shape: str) -> Finding:
    def _describe(obj: object) -> str:
        worker = getattr(obj, "worker", "?")
        chain = getattr(obj, "chain_index", "?")
        spec = " (speculative)" if getattr(obj, "speculative", False) else ""
        return f"chain {chain} on {worker}{spec}"

    return finding(
        "PLAN405", "<coordinator>", 0,
        f"subproblem {key!r} is covered by two active leases "
        f"({_describe(lease)} and {_describe(other)}, {shape}): leases "
        "must partition outstanding work like PLAN404 ownership",
        source="plan", key=key, overlap=shape,
    )


def assert_disjoint_leases(leases: Sequence[object]) -> None:
    """Raise :class:`PlanVerificationError` on any PLAN405 overlap."""
    findings = verify_lease_disjointness(leases)
    if findings:
        raise PlanVerificationError(findings)


# ---------------------------------------------------------------------------
# static side: AST lint for `repro check plan`
# ---------------------------------------------------------------------------
def _plan_classes(index: SourceIndex, mod: ModuleInfo) -> list[ClassInfo]:
    """Classes whose base-name chain within the module reaches UoIPlan."""
    return [
        cls
        for cls in mod.classes.values()
        if any("UoIPlan" in info.bases for info in index.lineage(cls) if info.module is mod)
    ]


def _key_argument(call: ast.Call) -> ast.expr | None:
    """The ``key`` argument of a ``Subproblem(...)`` construction."""
    for kw in call.keywords:
        if kw.arg == "key":
            return kw.value
    return call.args[3] if len(call.args) >= 4 else None


def _check_static_duplicate_keys(mod: ModuleInfo, findings: list[Finding]) -> None:
    """PLAN401 static: constant Subproblem key built inside a loop."""
    for node in ast.walk(mod.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Subproblem"
        ):
            continue
        key = _key_argument(node)
        if key is None or not any(isinstance(a, ast.For) for a in mod.ancestors(node)):
            continue
        if isinstance(key, ast.Constant) or (
            isinstance(key, ast.JoinedStr)
            and not any(isinstance(part, ast.FormattedValue) for part in key.values)
        ):
            findings.append(finding(
                "PLAN401", mod.path, node.lineno,
                "Subproblem key is a constant built inside a task "
                "loop: every iteration produces the same checkpoint "
                "key, so records clobber each other — interpolate "
                "the loop indices into the key",
            ))


def _comm_receiver(call: ast.AST) -> str | None:
    """Dotted receiver of a collective call, or None."""
    func = call.func if isinstance(call, ast.Call) else None
    if not isinstance(func, ast.Attribute) or func.attr not in COLLECTIVES:
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
    return any(
        isinstance(node, ast.Attribute) and node.attr == "rank"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("owns", "owns_bootstrap", "owns_lambda")
        for node in ast.walk(test)
    )


def _check_static_congruence(
    index: SourceIndex, mod: ModuleInfo, findings: list[Finding]
) -> None:
    """PLAN404 static: collective discipline inside plan classes.

    ``run_chain`` runs only on the owning cell's ranks, so a
    world-communicator collective there is rank-divergent by
    construction; ``reduce`` runs on every rank, so its collectives
    must be unconditional (not nested under a rank or ownership
    check).
    """
    for cls in _plan_classes(index, mod):
        for meth in cls.node.body:
            if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                meth.name not in ("run_chain", "reduce")
            ):
                continue
            for node in ast.walk(meth):
                receiver = _comm_receiver(node)
                if receiver is None or not isinstance(node, ast.Call):
                    continue
                call = f"{receiver}.{terminal(node.func)}"
                if meth.name == "run_chain" and (
                    receiver == "self.comm" or receiver.split(".")[-1] == "world"
                ):
                    findings.append(finding(
                        "PLAN404", mod.path, node.lineno,
                        f"world-communicator collective `{call}` inside "
                        "run_chain: ownership filtering means only the owning "
                        "cell reaches it — other ranks block forever; use the "
                        "cell/solver communicator",
                        receiver=receiver,
                    ))
                guard = next(
                    (
                        a for a in mod.ancestors(node)
                        if a is meth
                        or isinstance(a, ast.If) and _mentions_rank_or_ownership(a.test)
                    ),
                    meth,
                )
                if meth.name == "reduce" and guard is not meth:
                    findings.append(finding(
                        "PLAN404", mod.path, node.lineno,
                        f"collective `{call}` in reduce is guarded by a "
                        "rank/ownership conditional: reduce runs on every "
                        "rank and its collectives must be unconditional "
                        "(accumulate under the guard, reduce outside it)",
                        receiver=receiver,
                    ))


def plan_lint_index(index: SourceIndex) -> list[Finding]:
    """Run the static PLAN checks over every module of ``index``."""
    findings: list[Finding] = []
    for mod in index.modules:
        _check_static_duplicate_keys(mod, findings)
        _check_static_congruence(index, mod, findings)
    return index.suppress(findings, ("PLAN",))


def default_plan_paths() -> list[str]:
    """Where plans live: the engine and the distributed core."""
    here = package_root()
    return [os.path.join(here, "engine"), os.path.join(here, "core")]
