"""LOCK5xx: lock-order and shared-state analysis for threaded layers.

PRs 6-8 moved the repo into heavily threaded territory — the
multi-tenant scheduler, the socket :class:`~repro.engine.elastic.WorkerHub`
and the replicated results store all coordinate via
``threading.Lock``/``RLock``/``Condition`` — and none of the existing
passes look at any of it.  This pass is the
ThreadSanitizer-shaped rung of the verification ladder (in the
lock-set spirit of Eraser): over the shared
:class:`~repro.analysis.source.SourceIndex` it identifies every lock
object
(``self.x = threading.Lock()`` attributes, annotated
``threading.Condition`` dataclass fields, module-level locks, local
``cv = threading.Condition()`` bindings — the ``instrumented_*``
factory spellings count too), and checks four rules:

* ``LOCK501`` — lock-order inversion: the pass builds the directed
  lock-acquisition graph (edge ``A -> B`` wherever ``B`` is acquired
  while ``A`` is held, following resolved calls made under a lock)
  and reports every edge participating in a cycle;
* ``LOCK502`` — ``Condition.wait()`` whose nearest enclosing loop is
  not a ``while`` with a real predicate (``wait_for`` is exempt — it
  loops internally);
* ``LOCK503`` — an attribute written under a lock in one method and
  written without that lock in another (Eraser-style lock-set, with
  caller-coverage: a helper only ever called with the lock held
  counts as locked, and ``__init__``/``__post_init__`` are
  pre-publication and exempt);
* ``LOCK504`` — a blocking call (socket ``recv``/``accept``,
  ``Queue.get`` with a timeout, ``future.result``, ``time.sleep``,
  engine ``run_plan``/``run_stage``/``run_rolling``) textually inside
  a ``with <lock>:`` block.  ``Condition.wait`` is exempt: it
  releases the lock while waiting.

Lock identity is name-based and precision-first: ``self.x`` resolves
through the enclosing class, ``obj.x`` through local construction
(``obj = ClassName(...)``), parameter annotations, annotated-return
helper calls, and — last — a unique attribute name across every
indexed class.  An acquisition whose receiver cannot be resolved
still counts as *a* lock for LOCK504 but contributes no graph edges.
Suppress per line with ``# repro: ignore[LOCK50x]``; unused LOCK
suppressions are reported as ``SUP001``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
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
    terminal,
)

__all__ = [
    "BLOCKING_TERMINALS",
    "LOCK_FACTORIES",
    "CONDITION_FACTORIES",
    "threads_check_index",
    "default_threads_paths",
]

#: Call terminals that create a plain lock / reentrant lock.  The
#: ``instrumented_*`` spellings are the :mod:`repro.analysis.dynamic`
#: factories production code routes through so a LockOrderObserver can
#: wrap them; statically they are the same lock.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "instrumented_lock", "instrumented_rlock"})

#: Call terminals that create a condition variable (a lock that also
#: waits; LOCK502 applies to its ``wait()`` sites).
CONDITION_FACTORIES = frozenset({"Condition", "instrumented_condition"})

#: Methods exempt from LOCK503: they run before the object is
#: published to other threads.
_INIT_METHODS = frozenset({"__init__", "__post_init__"})

#: Attribute-call terminals that block unboundedly (LOCK504).
#: ``get``/``join`` are deliberately absent from the unconditional set
#: (``dict.get`` / ``str.join`` would drown the pass) — ``.get`` only
#: counts with a ``timeout=`` keyword or a queue-shaped receiver.
BLOCKING_TERMINALS = frozenset(
    {"recv", "accept", "result", "run_plan", "run_stage", "run_rolling"}
)

#: Dotted calls that block (module-level spellings).
_BLOCKING_DOTTED = frozenset({"time.sleep", "select.select"})

#: Container-mutating method names: a call ``self.x.append(...)``
#: writes ``x`` for LOCK503 purposes.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
    }
)


@dataclass(frozen=True)
class LockId:
    """Identity of one lock: owner scope + attribute/variable name.

    ``owner`` is a class name (``Scheduler``), a module name for
    module-level locks, or ``"?"`` for an acquisition whose receiver
    could not be resolved (kept for held-ness, excluded from graph
    edges).
    """

    owner: str
    attr: str
    condition: bool = False

    @property
    def resolved(self) -> bool:
        return self.owner != "?"

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


def _is_init(info: FuncInfo) -> bool:
    return info.name in _INIT_METHODS


def _lock_kind(value: ast.expr) -> str | None:
    """``"lock"``/``"condition"`` when ``value`` constructs one."""
    if not isinstance(value, ast.Call):
        return None
    name = terminal(value.func)
    if name in LOCK_FACTORIES:
        return "lock"
    if name in CONDITION_FACTORIES:
        return "condition"
    return None


def _annotation_is_condition(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    return terminal(annotation) == "Condition"


class _LockTables:
    """LOCK's side tables over the shared index's classes and modules."""

    def __init__(self, index: SourceIndex) -> None:
        self.index = index
        #: class -> lock attribute name -> LockId (``self.x =
        #: threading.Lock()`` anywhere in the class, or an annotated
        #: Condition field).
        self.class_locks: dict[ClassInfo, dict[str, LockId]] = {}
        #: class -> non-lock attribute name -> class name it is
        #: constructed from (``self.store = CheckpointStore(...)``).
        self.attr_types: dict[ClassInfo, dict[str, str]] = {}
        #: module -> module-level lock name -> LockId.
        self.module_locks: dict[ModuleInfo, dict[str, LockId]] = {}
        #: lock attr name -> owning classes (for unique-name fallback).
        self.lock_attr_owners: dict[str, list[LockId]] = {}
        for mod in index.modules:
            locks = self.module_locks[mod] = {}
            for stmt in mod.statements():
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    kind = _lock_kind(stmt.value)
                    if isinstance(target, ast.Name) and kind is not None:
                        locks[target.id] = LockId(
                            mod.name.rsplit(".", 1)[-1],
                            target.id,
                            condition=kind == "condition",
                        )
            for info in mod.classes.values():
                self._index_class(info)
                for lock in self.class_locks[info].values():
                    self.lock_attr_owners.setdefault(lock.attr, []).append(lock)

    def _index_class(self, info: ClassInfo) -> None:
        locks = self.class_locks[info] = {}
        types = self.attr_types[info] = {}
        for sub in info.node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(sub):
                    self._note_self_assign(info.name, locks, types, node)
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                # Dataclass-style field: ``cond: threading.Condition = ...``.
                if _annotation_is_condition(sub.annotation):
                    locks[sub.target.id] = LockId(
                        info.name, sub.target.id, condition=True
                    )
                kind = _lock_kind(sub.value) if sub.value is not None else None
                if kind is not None:
                    locks[sub.target.id] = LockId(
                        info.name, sub.target.id, condition=kind == "condition"
                    )

    @staticmethod
    def _note_self_assign(
        owner: str,
        locks: dict[str, LockId],
        types: dict[str, str],
        node: ast.AST,
    ) -> None:
        """Record ``self.x = <lock factory / ClassName(...)>``."""
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        kind = _lock_kind(node.value)
        if kind is not None:
            locks[target.attr] = LockId(
                owner, target.attr, condition=kind == "condition"
            )
            return
        if isinstance(node.value, ast.Call) and isinstance(
            node.value.func, (ast.Name, ast.Attribute)
        ):
            ctor = terminal(node.value.func)
            if ctor and ctor[:1].isupper():
                types.setdefault(target.attr, ctor)

    def class_lock(
        self, site: tuple[ModuleInfo, ClassInfo], attr: str
    ) -> LockId | None:
        """Lock attribute ``attr`` on the class or its bases."""
        for _mod, info in self.index.lineage(site):
            if attr in self.class_locks[info]:
                return self.class_locks[info][attr]
        return None

    def unique_lock_attr(self, attr: str) -> LockId | None:
        """Unique-name fallback: ``attr`` is a lock on exactly one class."""
        owners = self.lock_attr_owners.get(attr, [])
        if len(owners) == 1:
            return owners[0]
        return None


# ---------------------------------------------------------------------------
# per-function summaries
# ---------------------------------------------------------------------------
@dataclass
class _Acquisition:
    lock: LockId
    lineno: int
    #: locks syntactically held when this one is taken.
    held: tuple[LockId, ...]


@dataclass
class _CallSite:
    callee: FuncInfo
    lineno: int
    held: tuple[LockId, ...]


@dataclass
class _Write:
    attr: str
    lineno: int
    held: tuple[LockId, ...]


@dataclass
class _BlockingCall:
    description: str
    lineno: int
    held: tuple[LockId, ...]


@dataclass
class _WaitSite:
    lock: LockId
    lineno: int
    #: nearest enclosing loop: "while-predicate", "while-true", "for",
    #: or None (no loop at all).
    loop: str | None


@dataclass
class _Summary:
    info: FuncInfo
    acquisitions: list[_Acquisition] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    writes: list[_Write] = field(default_factory=list)
    blocking: list[_BlockingCall] = field(default_factory=list)
    waits: list[_WaitSite] = field(default_factory=list)


class _FunctionScanner:
    """Build one function's :class:`_Summary` (single recursive walk
    carrying the syntactically-held lock stack)."""

    def __init__(self, tables: _LockTables, info: FuncInfo) -> None:
        self.tables = tables
        self.index = tables.index
        self.info = info
        self.summary = _Summary(info)
        self._local_types: dict[str, str] = {}
        self._local_locks: dict[str, LockId] = {}
        self._loop_stack: list[str] = []

    # ------------------------------------------------------------ types
    def _prepass(self) -> None:
        node = self.info.node
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if arg.arg in ("self", "cls") or arg.annotation is None:
                continue
            annotated = terminal(arg.annotation)
            if annotated and annotated[:1].isupper():
                self._local_types[arg.arg] = annotated
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = _lock_kind(sub.value)
            if kind is not None:
                self._local_locks[target.id] = LockId(
                    self.info.display, target.id, condition=kind == "condition"
                )
                continue
            if isinstance(sub.value, ast.Call):
                func = sub.value.func
                ctor = terminal(func)
                if ctor and ctor[:1].isupper():
                    self._local_types[target.id] = ctor
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    # ``job = self._job(...)`` with an annotated return.
                    meth = self._self_method(func.attr)
                    if meth is not None and meth.node.returns is not None:
                        ret = terminal(meth.node.returns)
                        if ret and ret[:1].isupper():
                            self._local_types[target.id] = ret

    def _self_method(self, name: str) -> FuncInfo | None:
        if self.info.cls is None:
            return None
        cls = self.info.module.classes.get(self.info.cls)
        if cls is None:
            return None
        return self.index.resolve_method((self.info.module, cls), name)

    # ------------------------------------------------------------ locks
    def _lock_of(self, expr: ast.expr) -> LockId | None:
        """Resolve a lock-valued expression to a :class:`LockId`.

        Returns ``None`` when ``expr`` is clearly not a lock; returns
        an unresolved ``LockId("?", attr)`` when it plausibly is one
        (attribute named like a known lock) but the receiver type is
        unknown.
        """
        if isinstance(expr, ast.Name):
            if expr.id in self._local_locks:
                return self._local_locks[expr.id]
            mod = self.info.module
            mod_lock = self.tables.module_locks[mod].get(expr.id)
            if mod_lock is not None:
                return mod_lock
            other = self.index.by_name.get(mod.imports.get(expr.id, ""))
            if other is not None:
                return self.tables.module_locks[other].get(expr.id)
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        value = expr.value
        if isinstance(value, ast.Name):
            owner_cls: str | None = None
            if value.id == "self":
                owner_cls = self.info.cls
            else:
                owner_cls = self._local_types.get(value.id)
            if owner_cls is not None:
                site = self.index.resolve_class(owner_cls, self.info.module)
                if site is not None:
                    lock = self.tables.class_lock(site, attr)
                    if lock is not None:
                        return lock
                    if value.id == "self":
                        # self.<attr> on a class where <attr> is not a
                        # lock: definitely not an acquisition target.
                        return None
        unique = self.tables.unique_lock_attr(attr)
        if unique is not None:
            return unique
        if attr in self.tables.lock_attr_owners:
            return LockId("?", attr)
        return None

    # ------------------------------------------------------------- walk
    def scan(self) -> _Summary:
        self._prepass()
        for stmt in self.info.node.body:
            self._visit(stmt, ())
        return self.summary

    def _visit(self, node: ast.AST, held: tuple[LockId, ...]) -> None:
        if isinstance(node, ast.With):
            acquired: list[LockId] = []
            for item in node.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self.summary.acquisitions.append(
                        _Acquisition(lock, item.context_expr.lineno, held)
                    )
                    acquired.append(lock)
                else:
                    self._visit(item.context_expr, held)
            inner = held + tuple(acquired)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.While, ast.For)):
            if isinstance(node, ast.While):
                predicate = not (
                    isinstance(node.test, ast.Constant) and bool(node.test.value)
                )
                self._loop_stack.append(
                    "while-predicate" if predicate else "while-true"
                )
            else:
                self._loop_stack.append("for")
            self._visit_children(node, held)
            self._loop_stack.pop()
            return
        if isinstance(node, ast.Call):
            self._check_call(node, held)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate scopes; skip
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            self._check_write(node, held)
        self._visit_children(node, held)

    def _visit_children(self, node: ast.AST, held: tuple[LockId, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    # ------------------------------------------------------------ calls
    def _check_call(self, call: ast.Call, held: tuple[LockId, ...]) -> None:
        func = call.func
        method = terminal(func)
        # Explicit .acquire() on a lock expression.
        if method == "acquire" and isinstance(func, ast.Attribute):
            lock = self._lock_of(func.value)
            if lock is not None:
                self.summary.acquisitions.append(
                    _Acquisition(lock, call.lineno, held)
                )
                return
        # Condition.wait discipline (LOCK502).
        if method == "wait" and isinstance(func, ast.Attribute):
            lock = self._lock_of(func.value)
            if lock is not None and lock.condition:
                loop = self._loop_stack[-1] if self._loop_stack else None
                self.summary.waits.append(_WaitSite(lock, call.lineno, loop))
                return
        # Blocking calls (LOCK504); Condition.wait was handled above
        # and is exempt (it releases the lock while waiting).
        blocking = self._blocking_description(call, method)
        if blocking is not None and held:
            self.summary.blocking.append(
                _BlockingCall(blocking, call.lineno, held)
            )
        # Container mutation through a method call (LOCK503 write).
        if (
            method in _MUTATORS
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self.summary.writes.append(
                _Write(func.value.attr, call.lineno, held)
            )
        # Call-graph edge.
        callee = self._resolve_call(call)
        if callee is not None:
            self.summary.calls.append(_CallSite(callee, call.lineno, held))

    def _blocking_description(
        self, call: ast.Call, method: str | None
    ) -> str | None:
        name = dotted(call.func)
        if name in _BLOCKING_DOTTED:
            return f"{name}()"
        if method is None:
            return None
        if method in BLOCKING_TERMINALS:
            return f"{method}()"
        if method == "get":
            has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
            receiver = (
                terminal(call.func.value)
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if has_timeout or receiver in ("events", "queue"):
                return "Queue.get()"
        return None

    def _resolve_call(self, call: ast.Call) -> FuncInfo | None:
        func = call.func
        mod = self.info.module
        if isinstance(func, ast.Name):
            site = self.index.resolve_class(func.id, mod)
            if site is not None:
                return self.index.resolve_method(site, "__init__")
            return self.index.resolve_function(func.id, mod)
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "self" and self.info.cls is not None:
                meth = self._self_method(func.attr)
                if meth is not None:
                    return meth
                return None
            owner = self._local_types.get(value.id)
            if owner is not None:
                site = self.index.resolve_class(owner, mod)
                if site is not None:
                    return self.index.resolve_method(site, func.attr)
                return None
            other = self.index.by_name.get(mod.imports.get(value.id, ""))
            return other.functions.get(func.attr) if other is not None else None
        # ``self.<attr>.<method>()`` through a typed attribute
        # (``self.clock.tick()`` where __init__ did
        # ``self.clock = LamportClock()``).
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.info.cls is not None
        ):
            cls = mod.classes.get(self.info.cls)
            if cls is not None:
                owner = self.tables.attr_types[cls].get(value.attr)
                if owner is not None:
                    site = self.index.resolve_class(owner, mod)
                    if site is not None:
                        return self.index.resolve_method(site, func.attr)
        return None

    # ----------------------------------------------------------- writes
    def _check_write(
        self, node: ast.Assign | ast.AugAssign, held: tuple[LockId, ...]
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            for attr, lineno in self._self_attr_stores(target):
                self.summary.writes.append(_Write(attr, lineno, held))

    def _self_attr_stores(
        self, target: ast.expr
    ) -> Iterator[tuple[str, int]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._self_attr_stores(elt)
            return
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value  # self.x[k] = v writes x
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr, target.lineno


# ---------------------------------------------------------------------------
# whole-program analysis
# ---------------------------------------------------------------------------
class _Analysis:
    def __init__(self, index: SourceIndex) -> None:
        self.index = index
        self.tables = _LockTables(index)
        self.findings: list[Finding] = []
        self.summaries: dict[str, _Summary] = {}
        for mod in index.modules:
            for fn in mod.defs():
                self.summaries[fn.qualname] = _FunctionScanner(self.tables, fn).scan()
        self._effective = self._effective_acquisitions()
        self._coverage = self._caller_coverage()

    # ------------------------------------------------------------- emit
    def _emit(
        self, rule_id: str, path: str, lineno: int, message: str, **context: object
    ) -> None:
        rule = get_rule(rule_id)
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                message=message,
                file=path,
                line=lineno,
                source="lint",
                context=dict(context),
            )
        )

    # ------------------------------------------- transitive acquisitions
    def _effective_acquisitions(self) -> dict[str, frozenset[LockId]]:
        """Locks each function may acquire, directly or via callees."""
        eff: dict[str, set[LockId]] = {
            q: {a.lock for a in s.acquisitions if a.lock.resolved}
            for q, s in self.summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for q, s in self.summaries.items():
                for call in s.calls:
                    callee = eff.get(call.callee.qualname)
                    if callee and not callee <= eff[q]:
                        eff[q] |= callee
                        changed = True
        return {q: frozenset(v) for q, v in eff.items()}

    # ------------------------------------------------- caller lock cover
    def _caller_coverage(self) -> dict[str, frozenset[LockId]]:
        """Locks provably held at *every* resolved call site of a
        function (Eraser-style: a helper only ever invoked under the
        lock counts as locked).  Call sites inside ``__init__`` are
        pre-publication and skipped; a function whose call sites are
        all inits (or that has none at all) gets the conservative
        answer for its role: all-locks for init-only helpers, none for
        public entry points.
        """
        sites: dict[str, list[tuple[str, tuple[LockId, ...]]]] = {
            q: [] for q in self.summaries
        }
        for q, s in self.summaries.items():
            for call in s.calls:
                target = call.callee.qualname
                if target in sites:
                    sites[target].append((q, call.held))
        all_locks = frozenset(
            lock
            for s in self.summaries.values()
            for a in s.acquisitions
            if a.lock.resolved
            for lock in (a.lock,)
        )
        coverage: dict[str, frozenset[LockId]] = {}
        for q in self.summaries:
            non_init = [
                (caller, held)
                for caller, held in sites[q]
                if not _is_init(self.summaries[caller].info)
            ]
            if sites[q] and not non_init:
                coverage[q] = all_locks  # init-only helper: exempt
            elif not non_init:
                coverage[q] = frozenset()  # no known callers: entry point
            else:
                coverage[q] = all_locks  # refined below
        changed = True
        while changed:
            changed = False
            for q in self.summaries:
                non_init = [
                    (caller, held)
                    for caller, held in sites[q]
                    if not _is_init(self.summaries[caller].info)
                ]
                if not non_init:
                    continue
                new = frozenset.intersection(
                    *(
                        frozenset(held) | coverage[caller]
                        for caller, held in non_init
                    )
                )
                if new != coverage[q]:
                    coverage[q] = new
                    changed = True
        return coverage

    # ---------------------------------------------------------- LOCK501
    def check_lock_order(self) -> None:
        """Edges ``A -> B`` for every B acquired (directly or via a
        call) while A is held; report each edge on a cycle."""
        edges: dict[tuple[LockId, LockId], tuple[str, int, str]] = {}

        def note(
            a: LockId, b: LockId, path: str, lineno: int, via: str
        ) -> None:
            if a == b or not (a.resolved and b.resolved):
                return
            edges.setdefault((a, b), (path, lineno, via))

        for q in sorted(self.summaries):
            s = self.summaries[q]
            path = s.info.module.path
            for acq in s.acquisitions:
                for held in acq.held:
                    note(held, acq.lock, path, acq.lineno, s.info.display)
            for call in s.calls:
                if not call.held:
                    continue
                for lock in sorted(
                    self._effective.get(call.callee.qualname, ()),
                    key=str,
                ):
                    for held in call.held:
                        note(
                            held,
                            lock,
                            path,
                            call.lineno,
                            f"{s.info.display} -> {call.callee.display}",
                        )

        adjacency: dict[LockId, set[LockId]] = {}
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)

        def reaches(src: LockId, dst: LockId) -> bool:
            seen: set[LockId] = set()
            stack = [src]
            while stack:
                node = stack.pop()
                if node == dst:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return False

        for (a, b), (path, lineno, via) in sorted(
            edges.items(), key=lambda kv: (kv[1][0], kv[1][1], str(kv[0][0]))
        ):
            if reaches(b, a):
                self._emit(
                    "LOCK501",
                    path,
                    lineno,
                    f"lock-order inversion: `{b}` is acquired while "
                    f"`{a}` is held (in {via}), but another path "
                    f"acquires `{a}` while holding `{b}` — two threads "
                    "interleaving these paths deadlock",
                    edge=[str(a), str(b)],
                    via=via,
                )

    # ---------------------------------------------------------- LOCK502
    def check_condition_waits(self) -> None:
        for q in sorted(self.summaries):
            s = self.summaries[q]
            for wait in s.waits:
                if wait.loop == "while-predicate":
                    continue
                shape = {
                    None: "outside any loop",
                    "while-true": "inside `while True`",
                    "for": "inside a `for` loop",
                }[wait.loop]
                self._emit(
                    "LOCK502",
                    s.info.module.path,
                    wait.lineno,
                    f"`{wait.lock}.wait()` {shape} in {s.info.display}: "
                    "condition waits wake spuriously and the predicate "
                    "can re-falsify before the waiter runs — use "
                    "`while not <predicate>: wait()` (or wait_for)",
                    lock=str(wait.lock),
                    function=s.info.display,
                )

    # ---------------------------------------------------------- LOCK503
    def check_shared_state(self) -> None:
        for mod in sorted(self.index.modules, key=lambda m: m.name):
            for clsname in sorted(mod.classes):
                cls = mod.classes[clsname]
                if not self.tables.class_locks[cls]:
                    continue
                self._check_class_state(mod, cls)

    def _held_at(
        self, summary: _Summary, held: tuple[LockId, ...]
    ) -> frozenset[LockId]:
        return frozenset(held) | self._coverage.get(
            summary.info.qualname, frozenset()
        )

    def _check_class_state(self, mod: ModuleInfo, cls: ClassInfo) -> None:
        locks_by_attr = self.tables.class_locks[cls]
        class_locks = set(locks_by_attr.values())
        guarded: dict[str, set[LockId]] = {}
        for meth in cls.methods.values():
            if _is_init(meth):
                continue
            summary = self.summaries[meth.qualname]
            for write in summary.writes:
                if write.attr in locks_by_attr:
                    continue
                locks = self._held_at(summary, write.held) & class_locks
                if locks:
                    guarded.setdefault(write.attr, set()).update(locks)
        if not guarded:
            return
        for name in sorted(cls.methods):
            meth = cls.methods[name]
            if _is_init(meth):
                continue
            summary = self.summaries[meth.qualname]
            for write in summary.writes:
                locks = guarded.get(write.attr)
                if not locks:
                    continue
                if self._held_at(summary, write.held) & locks:
                    continue
                lock_names = ", ".join(sorted(f"`{lk}`" for lk in locks))
                self._emit(
                    "LOCK503",
                    mod.path,
                    write.lineno,
                    f"`self.{write.attr}` is written under {lock_names} "
                    f"elsewhere but written without it in "
                    f"{meth.display}: unlocked writes race every locked "
                    "reader and writer of the shared attribute",
                    attribute=write.attr,
                    locks=sorted(str(lk) for lk in locks),
                    function=meth.display,
                )

    # ---------------------------------------------------------- LOCK504
    def check_blocking_calls(self) -> None:
        for q in sorted(self.summaries):
            s = self.summaries[q]
            for blocked in s.blocking:
                locks = ", ".join(f"`{lk}`" for lk in blocked.held)
                self._emit(
                    "LOCK504",
                    s.info.module.path,
                    blocked.lineno,
                    f"blocking call {blocked.description} while holding "
                    f"{locks} in {s.info.display}: every thread "
                    "contending for the lock stalls for the full wait — "
                    "snapshot under the lock, block outside it",
                    call=blocked.description,
                    locks=[str(lk) for lk in blocked.held],
                    function=s.info.display,
                )

    def run(self) -> list[Finding]:
        self.check_lock_order()
        self.check_condition_waits()
        self.check_shared_state()
        self.check_blocking_calls()
        return self.findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def threads_check_index(index: SourceIndex) -> list[Finding]:
    """Run the LOCK pass over every module of ``index``.

    All modules are analysed together so lock identities and caller
    coverage cross module boundaries (the scheduler holding its
    condition while touching ``Job.cond``, the store fanning out to
    replica locks).
    """
    return index.suppress(_Analysis(index).run(), ("LOCK",))


def default_threads_paths() -> list[str]:
    """The whole ``repro`` package.

    Unlike the DET pass there is no exclusion list: the threaded
    layers (service, elastic engine) are precisely the point, and the
    lock-free numeric subsystems contribute nothing to index but also
    nothing to flag.
    """
    return [package_root()]
