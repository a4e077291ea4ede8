"""LOCK5xx: lock-order and shared-state analysis for threaded layers.

The scheduler, the elastic worker hub and the replicated results
store coordinate through ``threading.Lock``/``RLock``/``Condition``.
This pass is the ThreadSanitizer-shaped rung of the verification
ladder, in the lock-set spirit of Eraser: it finds every lock object
(``self.x = threading.Lock()`` attributes, annotated ``Condition``
dataclass fields, module-level and local locks; the
``instrumented_*`` factories count too), summarizes each function
once (acquisitions with the locks held, calls, ``self`` writes,
blocking calls, condition waits with their enclosing loop), and
checks lock-order cycles (``LOCK501``), ``wait()`` outside a
``while``-predicate loop (``LOCK502``), attributes written both with
and without their lock (``LOCK503``, with Eraser-style caller
coverage; ``__init__``/``__post_init__`` are exempt), and blocking
calls under a lock (``LOCK504``).  ``docs/static-analysis.md`` has
each rule's exact shape.

Lock identity is name-based and precision-first: ``self.x`` resolves
through the enclosing class, ``obj.x`` through the index's loose local
types (construction, parameter annotations, annotated-return helper
calls), and — last — a unique attribute name across every indexed
class.  Calls resolve through the shared resolver in its loose mode,
which also follows ``self.attr.m()`` through a constructor-typed
attribute.  An acquisition whose receiver cannot be resolved still
counts as *a* lock for LOCK504 but contributes no graph edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Generic, Iterator, TypeVar

from repro.analysis.findings import Finding
from repro.analysis.rules import finding
from repro.analysis.source import (
    ClassInfo,
    FuncInfo,
    FunctionVisitor,
    ModuleInfo,
    SourceIndex,
    dotted,
    is_self,
    terminal,
    walk,
    whole_package,
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


def _lock(owner: str, attr: str, value: ast.expr | None) -> LockId | None:
    """The lock ``value`` constructs, if it is a lock factory call."""
    name = terminal(value.func) if isinstance(value, ast.Call) else None
    if name in LOCK_FACTORIES or name in CONDITION_FACTORIES:
        return LockId(owner, attr, condition=name in CONDITION_FACTORIES)
    return None


_T = TypeVar("_T")


@dataclass(frozen=True)
class _Event(Generic[_T]):
    """One summarized site: what (a lock, a callee, a written
    attribute, a blocking-call description), where, and the locks
    syntactically held there."""

    what: _T
    lineno: int
    held: tuple[LockId, ...]


class _Summary(FunctionVisitor):
    """One function's lock summary, from a single recursive walk
    carrying the syntactically-held lock stack."""

    def __init__(self, tables: _Analysis, info: FuncInfo) -> None:
        super().__init__(tables.index, info)
        self.tables = tables
        self.acquisitions: list[_Event[LockId]] = []
        self.calls: list[_Event[FuncInfo]] = []
        self.writes: list[_Event[str]] = []
        self.blocking: list[_Event[str]] = []
        #: (condition, line, nearest enclosing loop: "while-predicate",
        #: "while-true", "for", or None for no loop at all).
        self.waits: list[tuple[LockId, int, str | None]] = []
        self._local_locks: dict[str, LockId] = {}
        for sub in ast.walk(info.node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and (lock := _lock(info.display, sub.targets[0].id, sub.value))
            ):
                self._local_locks[lock.attr] = lock
        self._loop_stack: list[str] = []
        self._visit_body(info.node.body, ())

    def _lock_of(self, expr: ast.expr) -> LockId | None:
        """Resolve a lock-valued expression to a :class:`LockId`.

        Returns ``None`` when ``expr`` is clearly not a lock; returns
        an unresolved ``LockId("?", attr)`` when it plausibly is one
        (attribute named like a known lock) but the receiver type is
        unknown.
        """
        mod = self.info.module
        if isinstance(expr, ast.Name):
            if expr.id in self._local_locks:
                return self._local_locks[expr.id]
            for owner in (mod, self.index.by_name.get(mod.imports.get(expr.id, ""))):
                if owner is not None and expr.id in self.tables.module_locks[owner]:
                    return self.tables.module_locks[owner][expr.id]
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        if isinstance(expr.value, ast.Name):
            site = self.index.receiver(self.info, expr.value, strict=False)
            if site is not None:
                lock = self.tables.class_lock(site, expr.attr)
                if lock is not None or is_self(expr.value):
                    # self.<attr> on a class where <attr> is not a lock:
                    # definitely not an acquisition target.
                    return lock
        owners = self.tables.lock_attr_owners.get(expr.attr, [])
        if len(owners) == 1:
            return owners[0]  # unique-name fallback
        return LockId("?", expr.attr) if owners else None

    def _visit_body(self, body: list[ast.stmt], held: tuple[LockId, ...]) -> None:
        """Visit a statement list.  A lock taken by an explicit
        ``lock.acquire()`` statement is held by the statements after it
        until one of them (or its nested ``finally``) calls
        ``lock.release()``, else to the end of the list."""
        for stmt in body:
            self._visit(stmt, held)
            acquired = (
                self._lock_called(stmt.value, "acquire")
                if isinstance(stmt, ast.Expr)
                else None
            )
            if acquired is not None:
                held += () if acquired in held else (acquired,)
            elif held:
                released = {self._lock_called(n, "release") for n in walk(stmt)}
                held = tuple(h for h in held if h not in released)

    def _lock_called(self, node: ast.AST, method: str) -> LockId | None:
        """The lock whose ``method`` the call ``node`` invokes, if any."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            return self._lock_of(node.func.value)
        return None

    def _visit(self, node: ast.AST, held: tuple[LockId, ...]) -> None:
        if isinstance(node, ast.With):
            acquired: list[LockId] = []
            for item in node.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self.acquisitions.append(_Event(lock, item.context_expr.lineno, held))
                    acquired.append(lock)
                else:
                    self._visit(item.context_expr, held)
            self._visit_body(node.body, held + tuple(acquired))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate scopes; skip
        if isinstance(node, ast.While):
            forever = isinstance(node.test, ast.Constant) and bool(node.test.value)
            self._loop_stack.append("while-true" if forever else "while-predicate")
        elif isinstance(node, ast.For):
            self._loop_stack.append("for")
        elif isinstance(node, ast.Call):
            self._check_call(node, held)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for attr, lineno in _self_attr_stores(target):
                    self.writes.append(_Event(attr, lineno, held))
        for _field, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                self._visit_body(value, held)
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    self._visit(child, held)
        if isinstance(node, (ast.While, ast.For)):
            self._loop_stack.pop()

    def _check_call(self, call: ast.Call, held: tuple[LockId, ...]) -> None:
        func = call.func
        method = terminal(func)
        receiver = None
        if isinstance(func, ast.Attribute) and method in ("acquire", "wait"):
            receiver = self._lock_of(func.value)
        # Explicit .acquire() on a lock expression.
        if method == "acquire" and receiver is not None:
            self.acquisitions.append(_Event(receiver, call.lineno, held))
            return
        # Condition.wait discipline (LOCK502).
        if method == "wait" and receiver is not None and receiver.condition:
            loop = self._loop_stack[-1] if self._loop_stack else None
            self.waits.append((receiver, call.lineno, loop))
            return
        # Blocking calls (LOCK504); Condition.wait was handled above
        # and is exempt (it releases the lock while waiting).
        blocking = _blocking_description(call, method)
        if blocking is not None and held:
            self.blocking.append(_Event(blocking, call.lineno, held))
        # Container mutation through a method call (LOCK503 write).
        if (
            method in _MUTATORS
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and is_self(func.value.value)
        ):
            self.writes.append(_Event(func.value.attr, call.lineno, held))
        callee = self.index.resolve_call(self.info, call, strict=False)
        if callee is not None:
            self.calls.append(_Event(callee, call.lineno, held))


def _blocking_description(call: ast.Call, method: str | None) -> str | None:
    name = dotted(call.func)
    if name in _BLOCKING_DOTTED:
        return f"{name}()"
    if method in BLOCKING_TERMINALS:
        return f"{method}()"
    if method == "get" and (
        any(kw.arg == "timeout" for kw in call.keywords)
        or isinstance(call.func, ast.Attribute)
        and terminal(call.func.value) in ("events", "queue")
    ):
        return "Queue.get()"
    return None


def _self_attr_stores(target: ast.expr) -> Iterator[tuple[str, int]]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _self_attr_stores(elt)
        return
    node = target.value if isinstance(target, ast.Subscript) else target
    if isinstance(node, ast.Attribute) and is_self(node.value):
        yield node.attr, target.lineno  # self.x = v, self.x[k] = v


class _Analysis:
    """The LOCK pass over one index: lock tables, one summary per
    function, the four checks."""

    def __init__(self, index: SourceIndex) -> None:
        self.index = index
        #: class -> lock attribute name -> LockId (``self.x =
        #: threading.Lock()`` anywhere in the class, or an annotated
        #: Condition field).
        self.class_locks: dict[ClassInfo, dict[str, LockId]] = {}
        #: module -> module-level lock name -> LockId.
        self.module_locks: dict[ModuleInfo, dict[str, LockId]] = {}
        #: lock attr name -> owning classes (for unique-name fallback).
        self.lock_attr_owners: dict[str, list[LockId]] = {}
        for mod in index.modules:
            locks = self.module_locks[mod] = {}
            for stmt in mod.statements():
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    lock = _lock(mod.name.rsplit(".", 1)[-1], terminal(target) or "", stmt.value)
                    if isinstance(target, ast.Name) and lock is not None:
                        locks[target.id] = lock
            for info in mod.classes.values():
                self._index_class(info)
                for lock in self.class_locks[info].values():
                    self.lock_attr_owners.setdefault(lock.attr, []).append(lock)
        self.findings: list[Finding] = []
        self.summaries: dict[str, _Summary] = {
            fn.qualname: _Summary(self, fn)
            for mod in index.modules
            for fn in mod.defs()
        }
        #: summaries in qualified-name order (the order findings come in).
        self._ordered = [self.summaries[q] for q in sorted(self.summaries)]
        self._effective = self._effective_acquisitions()
        self._coverage = self._caller_coverage()

    def _index_class(self, info: ClassInfo) -> None:
        locks = self.class_locks[info] = {}
        for sub in info.node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(sub):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and is_self(node.targets[0].value)
                        and (lock := _lock(info.name, node.targets[0].attr, node.value))
                    ):
                        locks[lock.attr] = lock
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                # Dataclass-style field: ``cond: threading.Condition = ...``.
                name = sub.target.id
                if terminal(sub.annotation) == "Condition":
                    locks[name] = LockId(info.name, name, condition=True)
                lock = _lock(info.name, name, sub.value)
                if lock is not None:
                    locks[name] = lock

    def class_lock(self, cls: ClassInfo, attr: str) -> LockId | None:
        """Lock attribute ``attr`` on the class or its bases."""
        for info in self.index.lineage(cls):
            if attr in self.class_locks[info]:
                return self.class_locks[info][attr]
        return None

    def _emit(
        self, rule_id: str, path: str, lineno: int, message: str, **context: object
    ) -> None:
        self.findings.append(finding(rule_id, path, lineno, message, **context))

    def _effective_acquisitions(self) -> dict[str, frozenset[LockId]]:
        """Locks each function may acquire, directly or via callees."""
        eff: dict[str, set[LockId]] = {
            q: {a.what for a in s.acquisitions if a.what.resolved}
            for q, s in self.summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for q, s in self.summaries.items():
                for call in s.calls:
                    callee = eff.get(call.what.qualname)
                    if callee and not callee <= eff[q]:
                        eff[q] |= callee
                        changed = True
        return {q: frozenset(v) for q, v in eff.items()}

    def _caller_coverage(self) -> dict[str, frozenset[LockId]]:
        """Locks provably held at *every* resolved call site of a
        function (Eraser-style: a helper only ever invoked under the
        lock counts as locked).  Call sites inside ``__init__`` are
        pre-publication and skipped; a function whose call sites are
        all inits (or that has none at all) gets the conservative
        answer for its role: all-locks for init-only helpers, none for
        public entry points.
        """
        #: function -> (caller, held) of every call site outside an init.
        non_init: dict[str, list[tuple[str, tuple[LockId, ...]]]] = {
            q: [] for q in self.summaries
        }
        called: set[str] = set()
        for q, s in self.summaries.items():
            for call in s.calls:
                target = call.what.qualname
                if target in non_init:
                    called.add(target)
                    if not _is_init(s.info):
                        non_init[target].append((q, call.held))
        all_locks = frozenset(
            a.what
            for s in self.summaries.values()
            for a in s.acquisitions
            if a.what.resolved
        )
        # Init-only helpers are exempt (all locks); functions with no
        # known callers are entry points (none); the rest are refined.
        coverage = {
            q: all_locks if q in called else frozenset() for q in self.summaries
        }
        changed = True
        while changed:
            changed = False
            for q, callers in non_init.items():
                if not callers:
                    continue
                new = frozenset.intersection(
                    *(frozenset(held) | coverage[c] for c, held in callers)
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

        def note(a: LockId, b: LockId, path: str, lineno: int, via: str) -> None:
            if a != b and a.resolved and b.resolved:
                edges.setdefault((a, b), (path, lineno, via))

        for s in self._ordered:
            path = s.info.module.path
            for acq in s.acquisitions:
                for held in acq.held:
                    note(held, acq.what, path, acq.lineno, s.info.display)
            for call in (c for c in s.calls if c.held):
                via = f"{s.info.display} -> {call.what.display}"
                for lock in sorted(self._effective.get(call.what.qualname, ()), key=str):
                    for held in call.held:
                        note(held, lock, path, call.lineno, via)

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
                if node not in seen:
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
        shapes = {
            None: "outside any loop",
            "while-true": "inside `while True`",
            "for": "inside a `for` loop",
        }
        for s in self._ordered:
            for lock, lineno, loop in s.waits:
                if loop == "while-predicate":
                    continue
                self._emit(
                    "LOCK502",
                    s.info.module.path,
                    lineno,
                    f"`{lock}.wait()` {shapes[loop]} in {s.info.display}: "
                    "condition waits wake spuriously and the predicate "
                    "can re-falsify before the waiter runs — use "
                    "`while not <predicate>: wait()` (or wait_for)",
                    lock=str(lock),
                    function=s.info.display,
                )

    # ---------------------------------------------------------- LOCK503
    def _held_at(
        self, summary: _Summary, held: tuple[LockId, ...]
    ) -> frozenset[LockId]:
        return frozenset(held) | self._coverage.get(summary.info.qualname, frozenset())

    def check_shared_state(self, mod: ModuleInfo, cls: ClassInfo) -> None:
        locks_by_attr = self.class_locks[cls]
        class_locks = set(locks_by_attr.values())
        methods = [
            (meth, self.summaries[meth.qualname])
            for _name, meth in sorted(cls.methods.items())
            if not _is_init(meth)
        ]
        guarded: dict[str, set[LockId]] = {}
        for _meth, summary in methods:
            for write in summary.writes:
                locks = self._held_at(summary, write.held) & class_locks
                if write.what not in locks_by_attr and locks:
                    guarded.setdefault(write.what, set()).update(locks)
        for meth, summary in methods if guarded else ():
            for write in summary.writes:
                locks = guarded.get(write.what)
                if not locks or self._held_at(summary, write.held) & locks:
                    continue
                lock_names = ", ".join(sorted(f"`{lk}`" for lk in locks))
                self._emit(
                    "LOCK503",
                    mod.path,
                    write.lineno,
                    f"`self.{write.what}` is written under {lock_names} "
                    f"elsewhere but written without it in "
                    f"{meth.display}: unlocked writes race every locked "
                    "reader and writer of the shared attribute",
                    attribute=write.what,
                    locks=sorted(str(lk) for lk in locks),
                    function=meth.display,
                )

    # ---------------------------------------------------------- LOCK504
    def check_blocking_calls(self) -> None:
        for s in self._ordered:
            for blocked in s.blocking:
                locks = ", ".join(f"`{lk}`" for lk in blocked.held)
                self._emit(
                    "LOCK504",
                    s.info.module.path,
                    blocked.lineno,
                    f"blocking call {blocked.what} while holding "
                    f"{locks} in {s.info.display}: every thread "
                    "contending for the lock stalls for the full wait — "
                    "snapshot under the lock, block outside it",
                    call=blocked.what,
                    locks=[str(lk) for lk in blocked.held],
                    function=s.info.display,
                )

    def run(self) -> list[Finding]:
        self.check_lock_order()
        self.check_condition_waits()
        for mod in sorted(self.index.modules, key=lambda m: m.name):
            for clsname in sorted(mod.classes):
                if self.class_locks[mod.classes[clsname]]:
                    self.check_shared_state(mod, mod.classes[clsname])
        self.check_blocking_calls()
        return self.findings


def threads_check_index(index: SourceIndex) -> list[Finding]:
    """Run the LOCK pass over every module of ``index``.

    All modules are analysed together so lock identities and caller
    coverage cross module boundaries (the scheduler holding its
    condition while touching ``Job.cond``, the store fanning out to
    replica locks).
    """
    return index.suppress(_Analysis(index).run(), ("LOCK",))


#: No exclusion list, unlike DET: the threaded layers are the point,
#: and the lock-free numeric code has nothing to flag.
default_threads_paths = whole_package
