"""SPMD0xx: AST lint of the communication discipline.

The paper's implementation depends on one ``MPI_Allreduce`` per ADMM
iteration and fenced one-sided epochs for the Tier-2 shuffle and the
distributed Kronecker build.  This pass checks that discipline as
syntax: a collective under a rank-dependent ``if`` (``SPMD001``),
global-state ``np.random`` use (``SPMD002``), a telemetry ``span``
opened as a bare statement (``SPMD003``), and a ``Window.get`` buffer
mutated in place without a copy (``SPMD004``).  Precision is favoured
over recall: ``repro check`` gates CI on zero findings, so each rule
fires only on receiver-name evidence (``reduce`` is a collective only
on something named like a communicator).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.planver import COLLECTIVES
from repro.analysis.rules import finding
from repro.analysis.source import SourceIndex, scope_bodies, terminal, walk, whole_package

__all__ = [
    "COLLECTIVE_METHODS",
    "lint_index",
    "default_lint_paths",
]

#: Method names treated as collectives when called on a comm-like or
#: window-like receiver (see :func:`_is_collective_call`): the PLAN
#: verifier's set plus the communicator-lifecycle ``free``/``split``.
COLLECTIVE_METHODS = COLLECTIVES | {"free", "split"}

#: ``np.random`` attributes that are *not* global-state RNG use.
_SAFE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # explicit legacy object, not hidden global state
    }
)

#: Receiver (or attribute) names that identify a communicator handle.
_COMM_NAME_HINTS = ("comm", "world", "cell", "bgroup", "lgroup", "stripe")
#: Receiver names that identify an RMA window handle.
_WIN_NAME_HINTS = ("win", "window")


def _named_like(node: ast.expr, hints: tuple[str, ...]) -> bool:
    name = (terminal(node) or "").lower()
    return any(h in name for h in hints)


def _is_collective_call(call: ast.Call) -> str | None:
    """Return the collective's name when ``call`` is one, else ``None``."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in COLLECTIVE_METHODS:
        return None
    hints = _COMM_NAME_HINTS
    if func.attr in ("fence", "free"):
        hints += _WIN_NAME_HINTS
    return func.attr if _named_like(func.value, hints) else None


def _mentions_rank(node: ast.expr) -> bool:
    """Whether an ``if`` test depends on the calling rank."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "is_reader"):
            return True
        if isinstance(sub, ast.Name) and sub.id == "rank":
            return True
    return False


def _np_random_attr(node: ast.Attribute) -> str | None:
    """``fn`` when ``node`` is ``np.random.fn`` / ``numpy.random.fn``."""
    base = node.value
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and isinstance(base.value, ast.Name)
        and base.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def _is_span_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ("span", "_tspan")
    if isinstance(func, ast.Attribute):
        return func.attr == "span"
    return False


class _SpmdVisitor(ast.NodeVisitor):
    """One pass collecting SPMD001/SPMD002/SPMD003 findings."""

    def __init__(self, filename: str, findings: list[Finding]) -> None:
        self.filename = filename
        self.findings = findings
        self._rank_if_depth = 0

    def _emit(
        self, rule_id: str, lineno: int, message: str, **context: object
    ) -> None:
        self.findings.append(finding(rule_id, self.filename, lineno, message, **context))

    # -- SPMD001: rank-conditional collectives ------------------------
    def visit_If(self, node: ast.If) -> None:
        if _mentions_rank(node.test):
            self._rank_if_depth += 1
            for child in node.body + node.orelse:
                self.visit(child)
            self._rank_if_depth -= 1
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._rank_if_depth > 0:
            name = _is_collective_call(node)
            if name is not None:
                self._emit(
                    "SPMD001",
                    node.lineno,
                    f"collective `{name}` inside a rank-conditional branch: "
                    "every rank of the communicator must reach it",
                    collective=name,
                )
        self.generic_visit(node)

    # -- SPMD002: global numpy RNG -------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        fn = _np_random_attr(node)
        if fn is not None and fn not in _SAFE_NP_RANDOM:
            self._emit(
                "SPMD002",
                node.lineno,
                f"global-state RNG `np.random.{fn}`: draw from an explicit "
                "np.random.default_rng(...) Generator instead",
                attribute=fn,
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _SAFE_NP_RANDOM:
                    self._emit(
                        "SPMD002",
                        node.lineno,
                        f"`from numpy.random import {alias.name}` pulls in "
                        "global-state RNG; import default_rng instead",
                        attribute=alias.name,
                    )
        self.generic_visit(node)

    # -- SPMD003: bare span calls --------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call) and _is_span_call(node.value):
            self._emit(
                "SPMD003",
                node.lineno,
                "telemetry span opened as a bare statement: the interval "
                "is never closed — use `with span(...):`",
            )
        self.generic_visit(node)


def _subscripted(node: ast.expr) -> str | None:
    """``x`` for ``x`` or ``x[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _check_rma_mutations(
    scope: list[ast.stmt], filename: str, findings: list[Finding]
) -> None:
    """SPMD004 within one scope (each function body is its own), in
    source order."""
    events: list[tuple[int, str, str]] = []  # (line, kind, var)
    for node in (n for stmt in scope for n in walk(stmt)):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name):
                is_get = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "get"
                    and _named_like(value.func.value, _WIN_NAME_HINTS)
                )
                events.append((node.lineno, "get" if is_get else "rebind", target.id))
            elif isinstance(target, ast.Subscript) and (var := _subscripted(target)):
                events.append((node.lineno, "mutate", var))
        elif isinstance(node, ast.AugAssign) and (var := _subscripted(node.target)):
            events.append((node.lineno, "mutate", var))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("fill", "sort", "resize", "partition")
            and isinstance(node.func.value, ast.Name)
        ):
            events.append((node.lineno, "mutate", node.func.value.id))

    events.sort(key=lambda e: e[0])
    tracked: dict[str, int] = {}  # var -> line of the Window.get
    for lineno, kind, var in events:
        if kind == "get":
            tracked[var] = lineno
        elif kind == "rebind":
            tracked.pop(var, None)
        elif var in tracked:
            findings.append(finding(
                "SPMD004", filename, lineno,
                f"`{var}` (from Window.get at line {tracked[var]}) "
                "mutated in place: take an explicit .copy() first "
                "(RMA origin buffers belong to the epoch)",
                variable=var, get_line=tracked[var],
            ))


def lint_index(index: SourceIndex) -> list[Finding]:
    """SPMD lint over every module of ``index``; suppression-filtered."""
    findings: list[Finding] = []
    for mod in index.modules:
        _SpmdVisitor(mod.path, findings).visit(mod.tree)
        for body in scope_bodies(mod.tree):
            _check_rma_mutations(body, mod.path, findings)
    return index.suppress(findings, ("SPMD",))


default_lint_paths = whole_package
