"""DET3xx: determinism taint from nondeterminism sources into plans.

The engine's headline invariant — same seed → bitwise-identical
coefficients on every backend — is stated as a contract in
:mod:`repro.engine.plan`: all random draws happen in ``__init__``,
``run_chain`` is a pure function of plan state, and ``reduce``
consumes results in a fixed order.  PR 4's runtime checkers can only
catch violations on schedules that actually execute; this pass proves
the contract statically by answering one question: *can a
nondeterminism source flow into code reachable from
``UoIPlan.run_chain`` or ``reduce``?*

The pass reads the whole-package symbol index
(:class:`~repro.analysis.source.SourceIndex`), roots the call graph at
every ``run_chain``/``reduce`` method of a
:class:`~repro.engine.plan.UoIPlan` subclass, and walks the reachable
closure looking for:

* ``DET301`` — wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``, ...);
* ``DET302`` — os-ordered listings (``glob``, ``os.listdir``,
  ``os.scandir``, ``Path.iterdir``) not wrapped in ``sorted(...)``;
* ``DET303`` — iteration over a ``set`` (literal, ``set()`` /
  ``frozenset()`` call, or a local provably bound to one), whose
  order depends on hash randomization;
* ``DET304`` — unseeded RNGs: ``np.random.default_rng()`` with no
  seed, or stdlib ``random.*`` global-state calls (extending SPMD002,
  which covers the global numpy RNG everywhere).

Call resolution is deliberately conservative (precision-first, like
the SPMD linter): names resolve through the module's own defs, its
``from``-imports, local ``var = ClassName(...)`` instantiations, and
``self.``-methods up the base-class chain; an attribute call on an
object of unknown type is *not* traversed.  Observational substrate —
``repro.telemetry``, ``repro.simmpi``, ``repro.perf``,
``repro.analysis`` — is excluded from the index by design: it may
read clocks (that is its job) but never feeds values back into plan
arithmetic.  Suppress per line with ``# repro: ignore[DET30x]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.analysis.source import (
    ClassInfo,
    FuncInfo,
    ModuleInfo,
    SourceIndex,
    dotted,
    package_root,
)

__all__ = [
    "EXCLUDED_SUBPACKAGES",
    "SCANNED_EXCEPTIONS",
    "PLAN_BASE",
    "ROOT_METHODS",
    "determinism_check_index",
    "default_determinism_paths",
]

#: Observational substrate never traversed or scanned: these packages
#: read clocks and walk directories *by design* (telemetry, tracing,
#: performance reporting, this very tooling) and feed nothing back
#: into plan arithmetic.  ``service`` is orchestration above the
#: engine: its wall clocks, thread scheduling, socket I/O and Lamport
#: timestamps order *jobs and replica writes*, never floats — every
#: numeric result is produced by the member plans it wraps, which
#: stay inside the taint pass.  ``coordinator`` and ``elastic`` are
#: the PR-7 orchestration layer: lease issue/expiry, straggler
#: percentiles and worker join/leave all read the monotonic clock *by
#: design*, but they only decide *where and when* a chain runs —
#: every payload comes out of ``UoIPlan.run_chain`` and is replayed
#: through hooks in deterministic chain order, so no clock value can
#: reach plan arithmetic.  ``transports`` (the in-process
#: serial/multiprocess/simmpi worker shims) and ``plan`` (the
#: ``run_plan`` driver loop) deliberately stay scanned: they call
#: straight into plan code.  ``stream`` is the live-data layer:
#: socket reads and per-window wall-clock seconds are its *job* — they
#: pace and annotate the rolling loop, while every number in a window's
#: result comes out of the ``VarPlan`` it builds, which stays inside
#: the taint pass (and is asserted bitwise-equal to a cold batch fit
#: under ``StreamConfig(verify=True)``) — except its two pure-compute
#: modules, listed in :data:`SCANNED_EXCEPTIONS` below.
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

#: Modules scanned *despite* living in an excluded subpackage.
#: ``repro.stream.window`` (incremental lag matrices)
#: and ``repro.stream.diff`` (network-diff arithmetic) are pure
#: computation — no sockets, no clocks, no thread scheduling — and
#: their numbers feed window fits directly, so they stay under the
#: taint pass even though the rest of ``repro.stream`` is
#: observational pacing.
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


def _is_plan_class(
    index: SourceIndex, site: tuple[ModuleInfo, ClassInfo]
) -> bool:
    """Whether the class transitively derives from ``UoIPlan``.

    An *unresolvable* base named ``UoIPlan`` still counts: a
    single-file fixture subclassing the (unindexed) engine base is a
    plan by declaration.
    """
    return any(
        info.name == PLAN_BASE or PLAN_BASE in info.bases
        for _mod, info in index.lineage(site)
    )


class _FunctionScanner:
    """Scan one reachable function for sources and outgoing calls."""

    def __init__(self, index: SourceIndex, info: FuncInfo, path: list[str]) -> None:
        self.index = index
        self.info = info
        self.path = path  # display names, root first
        self.findings: list[Finding] = []
        self.callees: list[FuncInfo] = []
        #: local name -> class site, from ``x = ClassName(...)``.
        self._local_types: dict[str, tuple[ModuleInfo, ClassInfo]] = {}
        #: local names provably bound to sets.
        self._local_sets: set[str] = set()

    # ------------------------------------------------------------ emit
    def _emit(self, rule_id: str, lineno: int, message: str) -> None:
        rule = get_rule(rule_id)
        via = " -> ".join(self.path)
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                message=f"{message} [reachable via {via}]",
                file=self.info.module.path,
                line=lineno,
                source="lint",
                context={"path": list(self.path)},
            )
        )

    # ------------------------------------------------------------ scan
    def scan(self) -> None:
        body = self.info.node.body
        self._prepass(body)
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._check_call(node)
                    self._resolve_call(node)
                elif isinstance(node, ast.For):
                    self._check_set_iteration(node.iter)
                elif isinstance(node, ast.comprehension):
                    self._check_set_iteration(node.iter)

    def _prepass(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = node.value
                if isinstance(value, (ast.Set, ast.SetComp)):
                    self._local_sets.add(target.id)
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                ):
                    if value.func.id in ("set", "frozenset"):
                        self._local_sets.add(target.id)
                    else:
                        site = self.index.resolve_class(
                            value.func.id, self.info.module
                        )
                        if site is not None:
                            self._local_types[target.id] = site

    # ----------------------------------------------------- taint rules
    def _check_call(self, call: ast.Call) -> None:
        name = dotted(call.func)
        if name is None:
            return
        if name in _WALL_CLOCK_CALLS:
            self._emit(
                "DET301",
                call.lineno,
                f"wall-clock read `{name}()` in plan-reachable code: "
                "results would depend on when the run started, breaking "
                "same-seed bitwise replay",
            )
            return
        if (
            name in _OS_ORDER_CALLS or name.endswith(".iterdir")
        ) and not self._wrapped_in_sorted(call):
            self._emit(
                "DET302",
                call.lineno,
                f"os-ordered listing `{name}()` feeds plan-reachable "
                "code without sorted(...): filesystem order differs "
                "across nodes and runs",
            )
            return
        # DET304: unseeded RNG.
        terminal = name.rsplit(".", 1)[-1]
        if terminal == "default_rng" and not call.args and not call.keywords:
            self._emit(
                "DET304",
                call.lineno,
                "unseeded default_rng() in plan-reachable code: draws OS "
                "entropy and cannot replay — pre-draw in __init__ from "
                "the run's random_state",
            )
            return
        parts = name.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _RANDOM_MODULE_FUNCS
        ):
            self._emit(
                "DET304",
                call.lineno,
                f"stdlib global-state RNG `{name}()` in plan-reachable "
                "code: process-wide state interleaves across simulated "
                "ranks and cannot replay from the run's seed",
            )

    def _wrapped_in_sorted(self, call: ast.Call) -> bool:
        parent = self.info.module.parents.get(call)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("sorted", "len", "any", "all")
        )

    def _check_set_iteration(self, it: ast.expr) -> None:
        is_set = isinstance(it, (ast.Set, ast.SetComp))
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("set", "frozenset")
        ):
            is_set = True
        if isinstance(it, ast.Name) and it.id in self._local_sets:
            is_set = True
        if is_set:
            self._emit(
                "DET303",
                it.lineno,
                "iteration over a set in plan-reachable code: order "
                "depends on hash randomization and insertion history — "
                "iterate sorted(...) instead",
            )

    # ------------------------------------------------- call resolution
    def _resolve_call(self, call: ast.Call) -> None:
        func = call.func
        mod = self.info.module
        if isinstance(func, ast.Name):
            site = self.index.resolve_class(func.id, mod)
            if site is not None:
                init = self.index.resolve_method(site, "__init__")
                if init is not None:
                    self.callees.append(init)
                return
            fn = self.index.resolve_function(func.id, mod)
            if fn is not None:
                self.callees.append(fn)
            return
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "self" and self.info.cls is not None:
                cls = mod.classes.get(self.info.cls)
                if cls is not None:
                    meth = self.index.resolve_method((mod, cls), func.attr)
                    if meth is not None:
                        self.callees.append(meth)
                return
            if value.id in self._local_types:
                meth = self.index.resolve_method(
                    self._local_types[value.id], func.attr
                )
                if meth is not None:
                    self.callees.append(meth)
                return
            other = self.index.by_name.get(mod.imports.get(value.id, ""))
            if other is not None and func.attr in other.functions:
                self.callees.append(other.functions[func.attr])


def _excluded(modname: str) -> bool:
    if modname in SCANNED_EXCEPTIONS:
        return False
    parts = modname.split(".")
    return any(sub in parts for sub in EXCLUDED_SUBPACKAGES)


def _roots(index: SourceIndex) -> list[FuncInfo]:
    out: list[FuncInfo] = []
    for mod in index.modules:
        for cls in mod.classes.values():
            if not _is_plan_class(index, (mod, cls)):
                continue
            for meth in ROOT_METHODS:
                if meth in cls.methods:
                    out.append(cls.methods[meth])
    out.sort(key=lambda f: (f.module.path, f.node.lineno))
    return out


def reachable(index: SourceIndex) -> Iterator[_FunctionScanner]:
    """BFS the call graph from every plan root, yielding each reached
    function's finished scan once (the ALLOC pass reuses the closure)."""
    visited: set[str] = set()
    queue: list[tuple[FuncInfo, list[str]]] = [
        (root, [root.display]) for root in _roots(index)
    ]
    while queue:
        info, path = queue.pop(0)
        if info.qualname in visited:
            continue
        visited.add(info.qualname)
        scanner = _FunctionScanner(index, info, path)
        scanner.scan()
        yield scanner
        for callee in scanner.callees:
            if callee.qualname not in visited:
                queue.append((callee, path + [callee.display]))


def determinism_check_index(index: SourceIndex) -> list[Finding]:
    """Run the DET pass over ``index`` minus the excluded subpackages.

    All modules are indexed together, so reachability crosses module
    boundaries (``run_chain`` → ``lasso_path`` → solver internals).
    """
    index = index.select(lambda mod: not _excluded(mod.name))
    findings = [f for scanner in reachable(index) for f in scanner.findings]
    return index.suppress(findings, ("DET",))


def default_determinism_paths() -> list[str]:
    """The whole ``repro`` package (exclusions applied per module)."""
    return [package_root()]
