"""The source index every static pass reads: one parse per file.

A :class:`SourceIndex` holds the ``.py`` files under some roots, each
read, parsed (``ast.parse``) and comment-tokenized exactly once, named
by walking up its ``__init__.py`` packages, and indexed for call
resolution: module-level functions, classes with their bases and
methods, and import bindings.  The six static passes (SPMD lint,
SHAPE, DET, PLAN, LOCK, ALLOC) are functions of an index; ``repro
check`` builds one and hands each pass its default scope as a module
filter (:meth:`SourceIndex.select`), so no pass re-reads a file.

Suppressions
------------
``# repro: ignore[RULE]``
    Suppress findings of ``RULE`` on this line.
``# repro: ignore[RULE1,RULE2]``
    Comma-separated rule list.
``# repro: ignore``
    Suppress every rule on this line (discouraged; prefer naming the
    rule so stale directives can be detected).

Directives are found by tokenizing, so directive *text* quoted in a
string or docstring is neither live nor stale.  Each pass owns a
rule-id family (``SPMD``, ``SHAPE``, ``DET``, ``PLAN``, ``LOCK``,
``ALLOC``) and ends with :meth:`SourceIndex.suppress`: a rule-scoped
directive naming a rule of that family that matched no finding is
reported as :data:`STALE_RULE` (``SUP001``, warning).  Directives of
other families are left to their passes, and bare ``# repro: ignore``
directives are never stale (the pass cannot know whether another
family used them).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.findings import Finding

__all__ = [
    "IGNORE_RE",
    "STALE_RULE",
    "FuncInfo",
    "ClassInfo",
    "ModuleInfo",
    "SourceIndex",
    "package_root",
    "module_name",
    "under",
    "dotted",
    "terminal",
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


def terminal(node: ast.expr) -> str | None:
    """Rightmost name of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


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
                info = ClassInfo(stmt.name, stmt, bases)
                for sub in stmt.body:
                    if isinstance(sub, _DEFS):
                        info.methods[sub.name] = FuncInfo(
                            mod, stmt.name, sub.name, sub
                        )
                mod.classes[stmt.name] = info
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
    """Parsed modules plus the whole-index symbol tables."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: list[ModuleInfo] = list(modules)
        self.by_name: dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        #: module-level function name -> every definition site.
        self.functions_by_name: dict[str, list[FuncInfo]] = {}
        #: class name -> every (module, class) definition site.
        self.classes_by_name: dict[str, list[tuple[ModuleInfo, ClassInfo]]] = {}
        for mod in self.modules:
            for fn in mod.functions.values():
                self.functions_by_name.setdefault(fn.name, []).append(fn)
            for info in mod.classes.values():
                self.classes_by_name.setdefault(info.name, []).append((mod, info))

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

    # ------------------------------------------------------ resolution
    def resolve_class(
        self, name: str, mod: ModuleInfo
    ) -> tuple[ModuleInfo, ClassInfo] | None:
        if name in mod.classes:
            return mod, mod.classes[name]
        other = self.by_name.get(mod.imports.get(name, ""))
        if other is not None and name in other.classes:
            return other, other.classes[name]
        sites = self.classes_by_name.get(name, [])
        return sites[0] if len(sites) == 1 else None

    def resolve_function(self, name: str, mod: ModuleInfo) -> FuncInfo | None:
        if name in mod.functions:
            return mod.functions[name]
        other = self.by_name.get(mod.imports.get(name, ""))
        if other is not None and name in other.functions:
            return other.functions[name]
        sites = self.functions_by_name.get(name, [])
        return sites[0] if len(sites) == 1 else None

    def lineage(
        self, site: tuple[ModuleInfo, ClassInfo]
    ) -> Iterator[tuple[ModuleInfo, ClassInfo]]:
        """The class, then its resolvable bases, depth-first."""
        seen: set[str] = set()
        stack = [site]
        while stack:
            mod, info = stack.pop()
            if info.name in seen:
                continue
            seen.add(info.name)
            yield mod, info
            for base in info.bases:
                parent = self.resolve_class(base, mod)
                if parent is not None:
                    stack.append(parent)

    def resolve_method(
        self, site: tuple[ModuleInfo, ClassInfo], name: str
    ) -> FuncInfo | None:
        """Look up ``name`` on the class, walking the base-name chain."""
        for _mod, info in self.lineage(site):
            if name in info.methods:
                return info.methods[name]
        return None

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
                if f.line in directives:
                    rules = directives[f.line]
                    if rules is None or f.rule in rules:
                        used.add((f.line, f.rule))
                        continue
                kept.append(f)
            for lineno, rules in sorted(directives.items()):
                for rule_id in sorted(rules or ()):
                    if not rule_id.startswith(families) or (lineno, rule_id) in used:
                        continue
                    kept.append(
                        Finding(
                            rule=STALE_RULE,
                            severity="warning",
                            message=(
                                f"stale suppression: `# repro: ignore[{rule_id}]` "
                                "matches no finding on this line — remove it"
                            ),
                            file=mod.path,
                            line=lineno,
                            source="lint",
                            context={"suppressed_rule": rule_id},
                        )
                    )
            kept.sort(key=lambda f: (f.file, f.line, f.rule))
            out.extend(kept)
        return out
