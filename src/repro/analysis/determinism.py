"""DET3xx: determinism taint from nondeterminism sources into plans.

The engine's headline invariant — same seed → bitwise-identical
coefficients on every backend — rests on the contract in
:mod:`repro.engine.plan`: all random draws happen in ``__init__``,
``run_chain`` is a pure function of plan state, and ``reduce``
consumes results in a fixed order.  This pass proves it statically:
from every ``run_chain``/``reduce`` of a
:class:`~repro.engine.plan.UoIPlan` subclass (:func:`plan_roots`,
which ALLOC shares) it follows the shared index's call graph, in its
strict, precision-first mode, and flags wall-clock reads
(``DET301``), unsorted os-ordered listings (``DET302``), set
iteration (``DET303``) and unseeded RNGs (``DET304``) in the reachable
closure; ``docs/static-analysis.md`` has each rule's exact shape.
Observational substrate (:data:`EXCLUDED_SUBPACKAGES`) is left out of
the index by design.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import (
    ClassInfo,
    FuncInfo,
    FunctionVisitor,
    SourceIndex,
    dotted,
    whole_package,
)

__all__ = [
    "EXCLUDED_SUBPACKAGES",
    "SCANNED_EXCEPTIONS",
    "PLAN_BASE",
    "ROOT_METHODS",
    "plan_roots",
    "determinism_check_index",
    "default_determinism_paths",
]

#: Observational substrate never traversed or scanned: these packages
#: read clocks, sockets and directories *by design* (telemetry,
#: tracing, performance reporting, this tooling; the service, lease
#: coordinator, elastic fleet and live-stream layers, which decide
#: *where and when* a chain runs or a window refits) and feed nothing
#: back into plan arithmetic: every number comes out of the member
#: plans they drive, which stay inside the taint pass.  ``transports``
#: and ``plan`` (the ``run_plan`` loop) call straight into plan code
#: and stay scanned, as do the pure-compute stream modules in
#: :data:`SCANNED_EXCEPTIONS`.
EXCLUDED_SUBPACKAGES: tuple[str, ...] = (
    "telemetry",
    "simmpi",
    "analysis",
    "perf",
    "service",
    "coordinator",
    "elastic",
    "stream",
)

#: Modules scanned *despite* living in an excluded subpackage: the
#: incremental lag matrices and the network-diff arithmetic are pure
#: computation whose numbers feed window fits directly.
SCANNED_EXCEPTIONS: tuple[str, ...] = (
    "repro.stream.window",
    "repro.stream.diff",
)

#: Base class whose subclasses carry the determinism contract.
PLAN_BASE = "UoIPlan"

#: Methods rooting the taint traversal.  ``__init__`` is deliberately
#: absent: the contract *requires* randomness there (pre-drawn from the
#: run's seed).
ROOT_METHODS: tuple[str, ...] = ("run_chain", "reduce")

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

_OS_ORDER_CALLS = {
    "glob.glob",
    "glob.iglob",
    "os.listdir",
    "os.scandir",
}

_RANDOM_MODULE_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "shuffle",
        "choice",
        "choices",
        "sample",
        "betavariate",
        "expovariate",
        "normalvariate",
    }
)


def _is_plan_class(index: SourceIndex, cls: ClassInfo) -> bool:
    """Whether the class transitively derives from ``UoIPlan``.

    An *unresolvable* base named ``UoIPlan`` still counts: a
    single-file fixture subclassing the (unindexed) engine base is a
    plan by declaration.
    """
    return any(
        info.name == PLAN_BASE or PLAN_BASE in info.bases
        for info in index.lineage(cls)
    )


def plan_roots(index: SourceIndex) -> list[FuncInfo]:
    """Every ``run_chain``/``reduce`` of a plan class, in source order."""
    out = [
        cls.methods[meth]
        for mod in index.modules
        for cls in mod.classes.values()
        if _is_plan_class(index, cls)
        for meth in ROOT_METHODS
        if meth in cls.methods
    ]
    return sorted(out, key=lambda f: (f.module.path, f.node.lineno))


class _TaintScan(FunctionVisitor):
    """Scan one reachable function for nondeterminism sources."""

    def __init__(self, index: SourceIndex, info: FuncInfo, path: list[str]) -> None:
        super().__init__(index, info)
        self.path = path  # display names, root first

    def emit(self, rule_id: str, lineno: int, message: str, **context: object) -> None:
        via = " -> ".join(self.path)
        super().emit(rule_id, lineno, f"{message} [reachable via {via}]", path=list(self.path))

    def scan(self) -> list[Finding]:
        #: local names provably bound to sets.
        sets = {
            node.targets[0].id
            for stmt in self.info.node.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_set(node.value)
        }
        for stmt in self.info.node.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._check_call(node)
                elif isinstance(node, (ast.For, ast.comprehension)) and (
                    _is_set(node.iter)
                    or (isinstance(node.iter, ast.Name) and node.iter.id in sets)
                ):
                    self.emit(
                        "DET303",
                        node.iter.lineno,
                        "iteration over a set in plan-reachable code: order "
                        "depends on hash randomization and insertion history — "
                        "iterate sorted(...) instead",
                    )
        return self.findings

    def _check_call(self, call: ast.Call) -> None:
        name = dotted(call.func)
        if name is None:
            return
        if name in _WALL_CLOCK_CALLS:
            self.emit(
                "DET301",
                call.lineno,
                f"wall-clock read `{name}()` in plan-reachable code: "
                "results would depend on when the run started, breaking "
                "same-seed bitwise replay",
            )
        elif (name in _OS_ORDER_CALLS or name.endswith(".iterdir")) and not (
            isinstance(wrapper := self.info.module.parents.get(call), ast.Call)
            and isinstance(wrapper.func, ast.Name)
            and wrapper.func.id in ("sorted", "len", "any", "all")
        ):
            self.emit(
                "DET302",
                call.lineno,
                f"os-ordered listing `{name}()` feeds plan-reachable "
                "code without sorted(...): filesystem order differs "
                "across nodes and runs",
            )
        elif name.rsplit(".", 1)[-1] == "default_rng" and not (
            call.args or call.keywords
        ):
            self.emit(
                "DET304",
                call.lineno,
                "unseeded default_rng() in plan-reachable code: draws OS "
                "entropy and cannot replay — pre-draw in __init__ from "
                "the run's random_state",
            )
        elif name.startswith("random.") and name[7:] in _RANDOM_MODULE_FUNCS:
            self.emit(
                "DET304",
                call.lineno,
                f"stdlib global-state RNG `{name}()` in plan-reachable "
                "code: process-wide state interleaves across simulated "
                "ranks and cannot replay from the run's seed",
            )


def _is_set(node: ast.expr) -> bool:
    """A set display, comprehension, or ``set()``/``frozenset()`` call."""
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _excluded(modname: str) -> bool:
    if modname in SCANNED_EXCEPTIONS:
        return False
    parts = modname.split(".")
    return any(sub in parts for sub in EXCLUDED_SUBPACKAGES)


def determinism_check_index(index: SourceIndex) -> list[Finding]:
    """Run the DET pass over ``index`` minus the excluded subpackages.

    All modules are indexed together, so reachability crosses module
    boundaries (``run_chain`` → ``lasso_path`` → solver internals).
    """
    index = index.select(lambda mod: not _excluded(mod.name))
    findings = [
        f
        for info, path in index.reachable(plan_roots(index))
        for f in _TaintScan(index, info, path).scan()
    ]
    return index.suppress(findings, ("DET",))


default_determinism_paths = whole_package
