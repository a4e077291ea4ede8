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

The pass builds a whole-package index (modules, imports, classes,
functions), roots the call graph at every ``run_chain``/``reduce``
method of a :class:`~repro.engine.plan.UoIPlan` subclass, and walks
the reachable closure looking for:

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
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.analysis.suppress import filter_findings

__all__ = [
    "EXCLUDED_SUBPACKAGES",
    "SCANNED_EXCEPTIONS",
    "PLAN_BASE",
    "ROOT_METHODS",
    "determinism_check_source",
    "determinism_check_paths",
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
#: straight into plan code.  ``stream`` is the
#: live-data layer: ingestion timestamps, buffer timeouts, socket
#: reads and per-window wall-clock seconds are its *job* — they pace
#: and annotate the rolling loop, while every number in a window's
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


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass
class _FuncInfo:
    module: "_ModuleInfo"
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def qualname(self) -> str:
        prefix = f"{self.cls}." if self.cls else ""
        return f"{self.module.name}.{prefix}{self.name}"

    @property
    def display(self) -> str:
        prefix = f"{self.cls}." if self.cls else ""
        return f"{prefix}{self.name}"


@dataclass
class _ClassInfo:
    name: str
    bases: list[str] = field(default_factory=list)  # terminal base names
    methods: dict[str, _FuncInfo] = field(default_factory=dict)


@dataclass
class _ModuleInfo:
    name: str  # dotted module name (repro.engine.plans)
    path: str
    source: str
    tree: ast.Module
    functions: dict[str, _FuncInfo] = field(default_factory=dict)
    classes: dict[str, _ClassInfo] = field(default_factory=dict)
    #: ``from repro.x import f`` / ``import repro.x as y`` bindings:
    #: local name -> dotted source module.
    imports: dict[str, str] = field(default_factory=dict)


class _Index:
    """Whole-package symbol index for call resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, _ModuleInfo] = {}
        #: module-level function name -> every definition site.
        self.functions_by_name: dict[str, list[_FuncInfo]] = {}
        #: class name -> every (module, class) definition site.
        self.classes_by_name: dict[str, list[tuple[_ModuleInfo, _ClassInfo]]] = {}

    # -------------------------------------------------------- building
    def add_source(self, source: str, path: str, modname: str) -> None:
        tree = ast.parse(source, filename=path)
        mod = _ModuleInfo(name=modname, path=path, source=source, tree=tree)
        for stmt in tree.body:
            self._index_stmt(mod, stmt)
        self.modules[modname] = mod
        for fn in mod.functions.values():
            self.functions_by_name.setdefault(fn.name, []).append(fn)
        for cls in mod.classes.values():
            self.classes_by_name.setdefault(cls.name, []).append((mod, cls))

    def _index_stmt(self, mod: _ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions[stmt.name] = _FuncInfo(mod, None, stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            cls = _ClassInfo(name=stmt.name)
            for base in stmt.bases:
                terminal = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if terminal:
                    cls.bases.append(terminal)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[sub.name] = _FuncInfo(
                        mod, stmt.name, sub.name, sub
                    )
            mod.classes[stmt.name] = cls
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name] = stmt.module
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name] = alias.name
        elif isinstance(stmt, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._index_stmt(mod, child)

    # ------------------------------------------------------ resolution
    def resolve_class(
        self, name: str, mod: _ModuleInfo
    ) -> tuple[_ModuleInfo, _ClassInfo] | None:
        if name in mod.classes:
            return mod, mod.classes[name]
        src = mod.imports.get(name)
        if src is not None and src in self.modules:
            other = self.modules[src]
            if name in other.classes:
                return other, other.classes[name]
        sites = self.classes_by_name.get(name, [])
        if len(sites) == 1:
            return sites[0]
        return None

    def resolve_function(self, name: str, mod: _ModuleInfo) -> _FuncInfo | None:
        if name in mod.functions:
            return mod.functions[name]
        src = mod.imports.get(name)
        if src is not None and src in self.modules:
            other = self.modules[src]
            if name in other.functions:
                return other.functions[name]
        sites = self.functions_by_name.get(name, [])
        if len(sites) == 1:
            return sites[0]
        return None

    def resolve_method(
        self, cls_site: tuple[_ModuleInfo, _ClassInfo], name: str
    ) -> _FuncInfo | None:
        """Look up ``name`` on the class, walking the base-name chain."""
        seen: set[str] = set()
        stack = [cls_site]
        while stack:
            mod, cls = stack.pop()
            if cls.name in seen:
                continue
            seen.add(cls.name)
            if name in cls.methods:
                return cls.methods[name]
            for base in cls.bases:
                site = self.resolve_class(base, mod)
                if site is not None:
                    stack.append(site)
        return None

    def is_plan_class(self, mod: _ModuleInfo, cls: _ClassInfo) -> bool:
        """Whether ``cls`` transitively derives from ``UoIPlan``.

        An *unresolvable* base named ``UoIPlan`` still counts: a
        single-file fixture subclassing the (unindexed) engine base is
        a plan by declaration.
        """
        seen: set[str] = set()
        stack: list[tuple[_ModuleInfo, _ClassInfo]] = [(mod, cls)]
        while stack:
            m, c = stack.pop()
            if c.name in seen:
                continue
            seen.add(c.name)
            if c.name == PLAN_BASE:
                return True
            for base in c.bases:
                if base == PLAN_BASE:
                    return True
                site = self.resolve_class(base, m)
                if site is not None:
                    stack.append(site)
        return False


class _FunctionScanner:
    """Scan one reachable function for sources and outgoing calls."""

    def __init__(self, index: _Index, info: _FuncInfo, path: list[str]) -> None:
        self.index = index
        self.info = info
        self.path = path  # display names, root first
        self.findings: list[Finding] = []
        self.callees: list[_FuncInfo] = []
        self._parents: dict[ast.AST, ast.AST] = {}
        #: local name -> class site, from ``x = ClassName(...)``.
        self._local_types: dict[str, tuple[_ModuleInfo, _ClassInfo]] = {}
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
        for stmt in body:
            for node in ast.walk(stmt):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
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
        dotted = _dotted(call.func)
        if dotted is None:
            return
        if dotted in _WALL_CLOCK_CALLS:
            self._emit(
                "DET301",
                call.lineno,
                f"wall-clock read `{dotted}()` in plan-reachable code: "
                "results would depend on when the run started, breaking "
                "same-seed bitwise replay",
            )
            return
        if (
            dotted in _OS_ORDER_CALLS or dotted.endswith(".iterdir")
        ) and not self._wrapped_in_sorted(call):
            self._emit(
                "DET302",
                call.lineno,
                f"os-ordered listing `{dotted}()` feeds plan-reachable "
                "code without sorted(...): filesystem order differs "
                "across nodes and runs",
            )
            return
        # DET304: unseeded RNG.
        terminal = dotted.rsplit(".", 1)[-1]
        if terminal == "default_rng" and not call.args and not call.keywords:
            self._emit(
                "DET304",
                call.lineno,
                "unseeded default_rng() in plan-reachable code: draws OS "
                "entropy and cannot replay — pre-draw in __init__ from "
                "the run's random_state",
            )
            return
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _RANDOM_MODULE_FUNCS
        ):
            self._emit(
                "DET304",
                call.lineno,
                f"stdlib global-state RNG `{dotted}()` in plan-reachable "
                "code: process-wide state interleaves across simulated "
                "ranks and cannot replay from the run's seed",
            )

    def _wrapped_in_sorted(self, call: ast.Call) -> bool:
        node: ast.AST = call
        parent = self._parents.get(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            if parent.func.id in ("sorted", "len", "any", "all"):
                return True
        return False

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
            src = mod.imports.get(value.id)
            if src is not None and src in self.index.modules:
                other = self.index.modules[src]
                if func.attr in other.functions:
                    self.callees.append(other.functions[func.attr])
            return


def _module_name_for(path: str) -> str:
    """Dotted module name of ``path``; falls back to the stem."""
    posix = os.path.abspath(path).replace(os.sep, "/")
    marker = "/src/repro/"
    idx = posix.rfind(marker)
    if idx >= 0:
        rel = posix[idx + len("/src/") :]
        return rel[: -len(".py")].replace("/", ".").replace(".__init__", "")
    return os.path.basename(path)[: -len(".py")]


def _excluded(modname: str) -> bool:
    if modname in SCANNED_EXCEPTIONS:
        return False
    parts = modname.split(".")
    return any(sub in parts for sub in EXCLUDED_SUBPACKAGES)


def _roots(index: _Index) -> list[_FuncInfo]:
    out: list[_FuncInfo] = []
    for mod in index.modules.values():
        for cls in mod.classes.values():
            if not index.is_plan_class(mod, cls):
                continue
            for meth in ROOT_METHODS:
                if meth in cls.methods:
                    out.append(cls.methods[meth])
    out.sort(key=lambda f: (f.module.path, f.node.lineno))
    return out


def _taint(index: _Index) -> list[Finding]:
    """BFS the call graph from every plan root, scanning as we go."""
    findings: list[Finding] = []
    visited: set[str] = set()
    queue: list[tuple[_FuncInfo, list[str]]] = [
        (root, [root.display]) for root in _roots(index)
    ]
    while queue:
        info, path = queue.pop(0)
        if info.qualname in visited:
            continue
        visited.add(info.qualname)
        scanner = _FunctionScanner(index, info, path)
        scanner.scan()
        findings.extend(scanner.findings)
        for callee in scanner.callees:
            if callee.qualname not in visited:
                queue.append((callee, path + [callee.display]))
    return findings


def _apply_suppressions(
    index: _Index, findings: list[Finding]
) -> list[Finding]:
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.file, []).append(f)
    out: list[Finding] = []
    sources = {mod.path: mod.source for mod in index.modules.values()}
    for path, source in sorted(sources.items()):
        out.extend(
            filter_findings(
                source, path, by_file.get(path, []), families=("DET",)
            )
        )
    return out


def determinism_check_source(
    source: str, filename: str = "<string>"
) -> list[Finding]:
    """Run the DET pass over one standalone source string.

    The file is indexed in isolation: classes subclassing a base
    *named* ``UoIPlan`` root the traversal even though the engine base
    itself is not indexed.
    """
    index = _Index()
    index.add_source(source, filename, "<standalone>")
    return _apply_suppressions(index, _taint(index))


def default_determinism_paths() -> list[str]:
    """The whole ``repro`` package (exclusions applied per module)."""
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def determinism_check_paths(
    paths: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the DET pass over ``.py`` files under ``paths``.

    All files are indexed together, so reachability crosses module
    boundaries (``run_chain`` → ``lasso_path`` → solver internals).
    """
    roots = paths if paths else default_determinism_paths()
    targets: list[str] = []
    for path in roots:
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
    index = _Index()
    for target in targets:
        modname = _module_name_for(target)
        if _excluded(modname):
            continue
        with open(target, "r", encoding="utf-8") as fh:
            index.add_source(fh.read(), target, modname)
    return _apply_suppressions(index, _taint(index))
