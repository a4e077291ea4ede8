"""AST-based SPMD correctness linter over the repro sources.

The linter encodes the communication discipline the paper's
implementation depends on (one ``MPI_Allreduce`` per ADMM iteration,
fenced one-sided epochs for the Tier-2 shuffle and the distributed
Kronecker build) as mechanical rules over the syntax tree:

``SPMD001``
    A collective method (``allreduce``, ``bcast``, ``barrier``,
    ``fence``, ...) called on a communicator/window inside an ``if``
    whose test depends on the rank — the canonical rank-divergence
    bug.
``SPMD002``
    ``np.random.*`` global-state RNG use (anything except the
    ``default_rng`` / ``Generator`` family) — process-global state is
    poison when ranks are threads.
``SPMD003``
    A telemetry ``span(...)`` opened as a bare expression statement
    instead of a ``with`` block (the interval is never closed).
``SPMD004``
    A buffer returned by ``Window.get`` mutated in place without an
    intervening ``.copy()`` (not portable to real RMA semantics).

Findings can be suppressed per line with ``# repro: ignore[RULE]``
(comma-separate multiple ids; bare ``# repro: ignore`` suppresses
every rule on that line).

Precision is deliberately favoured over recall: ``repro check`` gates
CI on zero findings, so each rule only fires on patterns it can
identify with receiver-name evidence (e.g. ``reduce`` is only a
collective when called on something named like a communicator).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.analysis.source import SourceIndex, package_root, scope_bodies, terminal

__all__ = [
    "COLLECTIVE_METHODS",
    "lint_index",
    "default_lint_paths",
]

#: Method names treated as collectives when called on a comm-like or
#: window-like receiver (see :func:`_receiver_is_commlike`).
COLLECTIVE_METHODS = frozenset(
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
        "free",
        "split",
    }
)

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


def _receiver_is_commlike(node: ast.expr) -> bool:
    name = (terminal(node) or "").lower()
    return any(h in name for h in _COMM_NAME_HINTS)


def _receiver_is_windowlike(node: ast.expr) -> bool:
    name = (terminal(node) or "").lower()
    return any(h in name for h in _WIN_NAME_HINTS)


def _is_collective_call(call: ast.Call) -> str | None:
    """Return the collective's name when ``call`` is one, else ``None``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in COLLECTIVE_METHODS:
        return None
    recv = func.value
    if func.attr in ("fence", "free"):
        if _receiver_is_windowlike(recv) or _receiver_is_commlike(recv):
            return func.attr
        return None
    if _receiver_is_commlike(recv):
        return func.attr
    return None


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

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: list[Finding] = []
        self._rank_if_depth = 0

    def _emit(
        self, rule_id: str, lineno: int, message: str, **context: object
    ) -> None:
        rule = get_rule(rule_id)
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                message=message,
                file=self.filename,
                line=lineno,
                source="lint",
                context=context,
            )
        )

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


def _get_from_window(node: ast.expr) -> bool:
    """Whether ``node`` is a ``<window>.get(...)`` call (no ``.copy()``)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and _receiver_is_windowlike(node.func.value)
    )


def _walk_scope(stmt: ast.stmt) -> Iterable[ast.AST]:
    """Walk ``stmt`` without descending into nested function scopes
    (each function body is analyzed as its own SPMD004 scope)."""
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested (or module-level) def is its own scope; its body
            # is yielded separately by scope_bodies.
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_rma_mutations(
    scope: list[ast.stmt], filename: str, findings: list[Finding]
) -> None:
    """SPMD004 within one scope, in source order."""
    events: list[tuple[int, str, str, ast.AST]] = []  # (line, kind, var, node)
    for stmt in scope:
        for node in _walk_scope(stmt):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _get_from_window(node.value):
                        events.append((node.lineno, "get", target.id, node))
                    else:
                        events.append((node.lineno, "rebind", target.id, node))
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    events.append(
                        (node.lineno, "mutate", target.value.id, node)
                    )
            elif isinstance(node, ast.AugAssign):
                t = node.target
                var = None
                if isinstance(t, ast.Name):
                    var = t.id
                elif isinstance(t, ast.Subscript) and isinstance(
                    t.value, ast.Name
                ):
                    var = t.value.id
                if var is not None:
                    events.append((node.lineno, "mutate", var, node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("fill", "sort", "resize", "partition")
                and isinstance(node.func.value, ast.Name)
            ):
                events.append(
                    (node.lineno, "mutate", node.func.value.id, node)
                )

    events.sort(key=lambda e: e[0])
    tracked: dict[str, int] = {}  # var -> line of the Window.get
    rule = get_rule("SPMD004")
    for lineno, kind, var, _node in events:
        if kind == "get":
            tracked[var] = lineno
        elif kind == "rebind":
            tracked.pop(var, None)
        elif kind == "mutate" and var in tracked:
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    message=(
                        f"`{var}` (from Window.get at line {tracked[var]}) "
                        "mutated in place: take an explicit .copy() first "
                        "(RMA origin buffers belong to the epoch)"
                    ),
                    file=filename,
                    line=lineno,
                    source="lint",
                    context={"variable": var, "get_line": tracked[var]},
                )
            )


def lint_index(index: SourceIndex) -> list[Finding]:
    """SPMD lint over every module of ``index``; suppression-filtered."""
    findings: list[Finding] = []
    for mod in index.modules:
        visitor = _SpmdVisitor(mod.path)
        visitor.visit(mod.tree)
        findings.extend(visitor.findings)
        for body in scope_bodies(mod.tree):
            _check_rma_mutations(body, mod.path, findings)
    return index.suppress(findings, ("SPMD",))


def default_lint_paths() -> list[str]:
    """The tree ``repro check lint`` covers by default: ``src/repro``."""
    return [package_root()]
