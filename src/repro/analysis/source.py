"""The source index every static pass reads: one parse per file.

A :class:`SourceIndex` holds the ``.py`` files under some roots, each
read, parsed (``ast.parse``) and comment-tokenized exactly once, named
by walking up its ``__init__.py`` packages, and indexed for call
resolution: module-level functions, classes with their bases and
methods, and import bindings.  On top of that it owns the one call
resolver (:meth:`SourceIndex.resolve_call`, fed by one local-type
tracker), the call graph it induces (:meth:`SourceIndex.reachable`),
and the :class:`FunctionVisitor` base the per-function scans share.
The six static passes (SPMD lint, SHAPE, DET, PLAN, LOCK, ALLOC) are
functions of an index; ``repro check`` builds one and hands each pass
its default scope as a module filter (:meth:`SourceIndex.select`), so
no pass re-reads a file.

``# repro: ignore[RULE1,RULE2]`` (or a bare ``# repro: ignore``)
suppresses findings on its line; directives are found by tokenizing,
so quoted directive text is neither live nor stale.  Each pass ends
with :meth:`SourceIndex.suppress`, which also reports a rule-scoped
directive of its own family that matched nothing as
:data:`STALE_RULE` (``SUP001``).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules import finding

__all__ = [
    "STALE_RULE",
    "FuncInfo",
    "ClassInfo",
    "ModuleInfo",
    "SourceIndex",
    "FunctionVisitor",
    "package_root",
    "whole_package",
    "module_name",
    "under",
    "dotted",
    "terminal",
    "is_self",
    "walk",
    "scope_bodies",
]

IGNORE_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Rule id of stale-suppression findings.
STALE_RULE = "SUP001"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def package_root() -> str:
    """Directory of the ``repro`` package (the default scan root)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def whole_package() -> list[str]:
    """The whole ``repro`` package: the default scope of the SPMD lint,
    DET (exclusions applied per module), LOCK and ALLOC passes."""
    return [package_root()]


def module_name(path: str) -> str:
    """Dotted module name of ``path``: its stem, prefixed by every
    enclosing package (a directory holding ``__init__.py``).

    Independent of where the tree lives, so a copied or installed
    package names its modules exactly as the source checkout does.
    """
    directory, filename = os.path.split(os.path.abspath(path))
    stem = filename[: -len(".py")]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    return ".".join(reversed(parts)) or stem


def under(roots: Sequence[str]) -> Callable[["ModuleInfo"], bool]:
    """Module filter: files inside any of the ``roots`` directories."""
    prefixes = tuple(os.path.join(os.path.abspath(r), "") for r in roots)
    return lambda mod: os.path.abspath(mod.path).startswith(prefixes)


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def terminal(node: ast.expr | None) -> str | None:
    """Rightmost name of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def walk(node: ast.AST, skip: tuple[type, ...] = _DEFS) -> Iterator[ast.AST]:
    """``ast.walk`` (depth-first) that neither yields nor enters
    ``skip`` nodes: a nested def is its own scope, run when called."""
    stack = [node]
    while stack:
        current = stack.pop()
        if not isinstance(current, skip):
            yield current
            stack.extend(ast.iter_child_nodes(current))


def scope_bodies(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    """The module body, then every function body."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            yield node.body


def _module_statements(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, descending into ``if``/``try`` blocks
    (guarded imports and definitions) but not into handlers."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from _module_statements(
                c for c in ast.iter_child_nodes(stmt) if isinstance(c, ast.stmt)
            )


def _capitalized(name: str | None) -> str | None:
    return name if name and name[:1].isupper() else None


@dataclass(eq=False)
class FuncInfo:
    module: "ModuleInfo"
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.display}"

    @property
    def display(self) -> str:
        prefix = f"{self.cls}." if self.cls else ""
        return f"{prefix}{self.name}"


@dataclass(eq=False)
class ClassInfo:
    module: "ModuleInfo"
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # terminal base names
    methods: dict[str, FuncInfo] = field(default_factory=dict)


@dataclass(eq=False)
class ModuleInfo:
    """One parsed file and its module-level symbols."""

    name: str  # dotted module name (repro.engine.plans)
    path: str  # as discovered; findings report it verbatim
    source: str
    tree: ast.Module
    #: given by name rather than found by walking a directory.
    explicit: bool = False
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: ``from repro.x import f`` / ``import repro.x as y`` bindings:
    #: local name -> dotted source module.
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(
        cls, source: str, path: str, name: str, explicit: bool
    ) -> "ModuleInfo":
        mod = cls(name, path, source, ast.parse(source, filename=path), explicit)
        for stmt in mod.statements():
            if isinstance(stmt, _DEFS):
                mod.functions[stmt.name] = FuncInfo(mod, None, stmt.name, stmt)
            elif isinstance(stmt, ast.ClassDef):
                bases = [t for t in map(terminal, stmt.bases) if t]
                info = mod.classes[stmt.name] = ClassInfo(mod, stmt.name, stmt, bases)
                for sub in stmt.body:
                    if isinstance(sub, _DEFS):
                        info.methods[sub.name] = FuncInfo(mod, stmt.name, sub.name, sub)
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    mod.imports[alias.asname or alias.name] = stmt.module
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.imports[alias.asname or alias.name] = alias.name
        return mod

    def statements(self) -> Iterator[ast.stmt]:
        return _module_statements(self.tree.body)

    def defs(self) -> Iterator[FuncInfo]:
        """Module-level functions, then every class's methods."""
        yield from self.functions.values()
        for info in self.classes.values():
            yield from info.methods.values()

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent node map of the whole tree."""
        return {
            child: node
            for node in ast.walk(self.tree)
            for child in ast.iter_child_nodes(node)
        }

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Enclosing nodes of ``node``, innermost first."""
        parent = self.parents.get(node)
        while parent is not None:
            yield parent
            parent = self.parents.get(parent)

    @cached_property
    def directives(self) -> dict[int, frozenset[str] | None]:
        """line -> rule ids named by its ``# repro: ignore[...]``
        comment (``None`` for a bare ignore).

        Falls back to a raw line scan if the source does not tokenize.
        """
        try:
            comments = [
                (tok.start[0], tok.string)
                for tok in tokenize.generate_tokens(
                    io.StringIO(self.source).readline
                )
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            comments = list(enumerate(self.source.splitlines(), start=1))
        out: dict[int, frozenset[str] | None] = {}
        for lineno, text in comments:
            m = IGNORE_RE.search(text)
            if not m:
                continue
            rules = m.group("rules")
            out[lineno] = None if rules is None else frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
        return out


class SourceIndex:
    """Parsed modules, the whole-index symbol tables, and the call
    resolver over them."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: list[ModuleInfo] = list(modules)
        self.by_name: dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        #: "functions"/"classes" -> name -> every definition site.
        self._sites: dict[str, dict[str, list]] = {"functions": {}, "classes": {}}
        for mod in self.modules:
            for table, sites in self._sites.items():
                for name, site in getattr(mod, table).items():
                    sites.setdefault(name, []).append(site)
        self._types: dict[FuncInfo, tuple[dict, dict]] = {}
        self._callees: dict[FuncInfo, list[FuncInfo]] = {}

    # -------------------------------------------------------- building
    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "SourceIndex":
        """Every ``.py`` file under ``paths`` (files or directories)."""
        found: dict[str, bool] = {}
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                    for f in sorted(filenames):
                        if f.endswith(".py"):
                            found.setdefault(os.path.join(dirpath, f), False)
            elif path.endswith(".py"):
                found[path] = True
            else:
                raise ValueError(f"not a directory or .py file: {path}")
        modules = []
        for path, explicit in found.items():
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            modules.append(
                ModuleInfo.parse(source, path, module_name(path), explicit)
            )
        return cls(modules)

    @classmethod
    def from_source(cls, source: str, filename: str = "<string>") -> "SourceIndex":
        """One standalone source string (module name ``<standalone>``)."""
        return cls([ModuleInfo.parse(source, filename, "<standalone>", True)])

    def select(self, keep: Callable[[ModuleInfo], bool]) -> "SourceIndex":
        """The sub-index of modules ``keep`` accepts (no re-parse)."""
        return SourceIndex(m for m in self.modules if keep(m))

    # ---------------------------------------------------------- symbols
    def _symbol(self, name: str, mod: ModuleInfo, table: str) -> Any:
        """``name`` as ``mod`` sees it: its own def, a ``from``-import,
        else the one def of that name in the whole index."""
        for owner in (mod, self.by_name.get(mod.imports.get(name, ""))):
            if owner is not None and name in getattr(owner, table):
                return getattr(owner, table)[name]
        sites = self._sites[table].get(name, [])
        return sites[0] if len(sites) == 1 else None

    def resolve_class(self, name: str, mod: ModuleInfo) -> ClassInfo | None:
        return self._symbol(name, mod, "classes")

    def resolve_function(self, name: str, mod: ModuleInfo) -> FuncInfo | None:
        return self._symbol(name, mod, "functions")

    def lineage(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """The class, then its resolvable bases, depth-first."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            info = stack.pop()
            if info.name in seen:
                continue
            seen.add(info.name)
            yield info
            for base in info.bases:
                parent = self.resolve_class(base, info.module)
                if parent is not None:
                    stack.append(parent)

    def resolve_method(self, cls: ClassInfo, name: str) -> FuncInfo | None:
        """Look up ``name`` on the class, walking the base-name chain."""
        for info in self.lineage(cls):
            if name in info.methods:
                return info.methods[name]
        return None

    # ------------------------------------------------------ local types
    def own_class(self, fn: FuncInfo) -> ClassInfo | None:
        return fn.module.classes.get(fn.cls) if fn.cls else None

    def local_types(
        self, fn: FuncInfo, strict: bool = True
    ) -> dict[str, ClassInfo | None]:
        """Local name -> class it holds, from one walk of ``fn``.

        Strict evidence is a bare-name constructor call resolving to a
        class (``w = Worker()``).  The loose map (``strict=False``, the
        LOCK pass) also trusts parameter annotations, dotted or
        unresolved capitalized constructors (an unresolved one maps to
        ``None``: a known-foreign type) and ``self`` helpers with an
        annotated return.  The last binding in walk order wins.
        """
        if fn not in self._types:
            mod = fn.module
            exact: dict[str, ClassInfo | None] = {}
            loose: dict[str, ClassInfo | None] = {}
            for arg in (*fn.node.args.args, *fn.node.args.kwonlyargs):
                annotated = _capitalized(terminal(arg.annotation))
                if annotated and arg.arg not in ("self", "cls"):
                    loose[arg.arg] = self.resolve_class(annotated, mod)
            for node in (n for stmt in fn.node.body for n in ast.walk(stmt)):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                name, func = node.targets[0].id, node.value.func
                if isinstance(func, ast.Name):
                    site = self.resolve_class(func.id, mod)
                    if site is not None:
                        exact[name] = site
                ctor = _capitalized(terminal(func))
                if ctor:
                    loose[name] = self.resolve_class(ctor, mod)
                elif isinstance(func, ast.Attribute) and is_self(func.value):
                    cls = self.own_class(fn)
                    meth = self.resolve_method(cls, func.attr) if cls else None
                    ret = _capitalized(terminal(meth.node.returns)) if meth else None
                    if ret:
                        loose[name] = self.resolve_class(ret, mod)
            self._types[fn] = exact, loose
        return self._types[fn][0 if strict else 1]

    @cached_property
    def _attr_types(self) -> dict[ClassInfo, dict[str, str]]:
        """Class -> ``self.x = Capitalized(...)`` attribute -> ctor name
        (first binding in the class body wins)."""
        out: dict[ClassInfo, dict[str, str]] = {}
        for mod in self.modules:
            for cls in mod.classes.values():
                types = out[cls] = {}
                defs = [sub for sub in cls.node.body if isinstance(sub, _DEFS)]
                for node in (n for sub in defs for n in ast.walk(sub)):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and is_self(node.targets[0].value)
                        and isinstance(node.value, ast.Call)
                        and (ctor := _capitalized(terminal(node.value.func)))
                    ):
                        types.setdefault(node.targets[0].attr, ctor)
        return out

    def receiver(
        self, fn: FuncInfo, expr: ast.expr, strict: bool = True
    ) -> ClassInfo | None:
        """Class of ``self``, of a typed local, or (``strict=False``)
        of a ``self.x`` attribute bound to a constructor."""
        if is_self(expr) and fn.cls is not None:
            return self.own_class(fn)
        if isinstance(expr, ast.Name):
            return self.local_types(fn, strict).get(expr.id)
        cls = self.own_class(fn)
        if strict or cls is None or not (
            isinstance(expr, ast.Attribute) and is_self(expr.value)
        ):
            return None
        owner = self._attr_types.get(cls, {}).get(expr.attr)
        return self.resolve_class(owner, fn.module) if owner else None

    # ----------------------------------------------------- call graph
    def resolve_call(
        self, fn: FuncInfo, call: ast.Call, strict: bool = True
    ) -> FuncInfo | None:
        """The function ``call`` (inside ``fn``) runs, if provable.

        A bare name runs a class's ``__init__`` or a function;
        ``self.m()`` and ``local.m()`` run a method of the receiver's
        class (:meth:`receiver`); ``module.f()`` a function of an
        imported indexed module.  A method on an object of unknown
        type is not followed.
        """
        func, mod = call.func, fn.module
        if isinstance(func, ast.Name):
            site = self.resolve_class(func.id, mod)
            if site is not None:
                return self.resolve_method(site, "__init__")
            return self.resolve_function(func.id, mod)
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if (
            isinstance(value, ast.Name)
            and not (value.id == "self" and fn.cls is not None)
            and value.id not in self.local_types(fn, strict)
        ):
            other = self.by_name.get(mod.imports.get(value.id, ""))
            return other.functions.get(func.attr) if other is not None else None
        site = self.receiver(fn, value, strict)
        return self.resolve_method(site, func.attr) if site is not None else None

    def callees(self, fn: FuncInfo) -> list[FuncInfo]:
        """Strictly resolved calls anywhere in ``fn``'s body (nested
        defs included), in walk order."""
        if fn not in self._callees:
            self._callees[fn] = [
                callee
                for stmt in fn.node.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and (callee := self.resolve_call(fn, node)) is not None
            ]
        return self._callees[fn]

    def reachable(
        self, roots: Iterable[FuncInfo]
    ) -> Iterator[tuple[FuncInfo, list[str]]]:
        """Breadth-first closure of :meth:`callees` from ``roots``:
        each reached function once, with the display names of the
        first path that reached it (root first)."""
        visited: set[str] = set()
        queue = [(root, [root.display]) for root in roots]
        while queue:
            info, path = queue.pop(0)
            if info.qualname in visited:
                continue
            visited.add(info.qualname)
            yield info, path
            for callee in self.callees(info):
                if callee.qualname not in visited:
                    queue.append((callee, path + [callee.display]))

    # ----------------------------------------------------- suppression
    def suppress(
        self, findings: list[Finding], families: tuple[str, ...]
    ) -> list[Finding]:
        """The tail of every static pass, file by file in path order:
        drop suppressed findings, report the unused rule-scoped
        directives of ``families`` (rule-id prefixes) as SUP001, and
        sort by location.  Findings outside the index are dropped."""
        by_file: dict[str, list[Finding]] = {}
        for f in findings:
            by_file.setdefault(f.file, []).append(f)
        out: list[Finding] = []
        for mod in sorted(self.modules, key=lambda m: m.path):
            directives = mod.directives
            used: set[tuple[int, str]] = set()
            kept: list[Finding] = []
            for f in by_file.get(mod.path, ()):
                rules = directives.get(f.line, ())
                if f.line in directives and (rules is None or f.rule in rules):
                    used.add((f.line, f.rule))
                else:
                    kept.append(f)
            for lineno, rules in sorted(directives.items()):
                for rule_id in sorted(rules or ()):
                    if rule_id.startswith(families) and (lineno, rule_id) not in used:
                        kept.append(finding(
                            STALE_RULE, mod.path, lineno,
                            f"stale suppression: `# repro: ignore[{rule_id}]` "
                            "matches no finding on this line — remove it",
                            suppressed_rule=rule_id,
                        ))
            kept.sort(key=lambda f: (f.file, f.line, f.rule))
            out.extend(kept)
        return out


class FunctionVisitor:
    """Base of the per-function scans (DET, LOCK, ALLOC): the function,
    the index it resolves calls through, and the findings it emits."""

    def __init__(self, index: SourceIndex, info: FuncInfo) -> None:
        self.index = index
        self.info = info
        self.findings: list[Finding] = []

    def emit(self, rule_id: str, lineno: int, message: str, **context: object) -> None:
        self.findings.append(
            finding(rule_id, self.info.module.path, lineno, message, **context)
        )
