"""ALLOC6xx: allocation & copy analysis over the hot regions.

The paper's scaling results hinge on per-subproblem cost staying flat
as the (bootstrap, λ) grid grows, and its hot loops are dominated by
data movement at scale.  This pass finds ndarray churn in the **hot
regions**: every function reachable from ``UoIPlan.run_chain`` /
``reduce`` (the index's call graph from
:func:`~repro.analysis.determinism.plan_roots`) plus every function of
the solver kernels, the simmpi collective/RMA layer and the bootstrap
resampler (:data:`HOT_MODULE_SUFFIXES`).  Per loop it reports a numpy
constructor run every iteration (``ALLOC601``), a provably avoidable
copy (``ALLOC602``), an update missing its in-place form
(``ALLOC603``), and a per-iteration buffer escaping its loop, the
pool candidates of :mod:`repro.perf.pool` (``ALLOC604``);
``docs/static-analysis.md`` has each rule's exact shape.

Each finding carries a per-iteration byte estimate at paper scale from
the SHAPE pass's own evaluation
(:func:`repro.analysis.shapes.allocation` over
:data:`~repro.analysis.shapes.DEFAULT_BINDINGS`), so the backlog can
be ranked by bytes.  The runtime twin is ``DYN207``
(:mod:`repro.analysis.allocobs`).  Like every static pass the rules
fire only on evidence the AST carries.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, NamedTuple

from repro.analysis.determinism import plan_roots
from repro.analysis.findings import Finding
from repro.analysis.shapes import DEFAULT_BINDINGS, UNKNOWN, allocation, itemsize, np_attr
from repro.analysis.source import (
    FuncInfo,
    FunctionVisitor,
    SourceIndex,
    terminal,
    walk,
    whole_package,
)

__all__ = [
    "CONSTRUCTORS",
    "HOT_MODULE_SUFFIXES",
    "ALLOC_FAMILY",
    "AllocScan",
    "alloc_scan",
    "default_alloc_paths",
]

#: Modules whose every function is a hot region regardless of
#: reachability: the solver inner loops, the simmpi collective/RMA
#: layer, and the bootstrap resampler (posix-style path suffixes).
HOT_MODULE_SUFFIXES: tuple[str, ...] = (
    "linalg/admm.py",
    "linalg/cd.py",
    "linalg/homotopy.py",
    "linalg/ols.py",
    "linalg/consensus.py",
    "linalg/soft_threshold.py",
    "core/bootstrap.py",
    "simmpi/comm.py",
    "simmpi/window.py",
)

#: Rule-id prefix this pass owns for suppression accounting.
ALLOC_FAMILY: tuple[str, ...] = ("ALLOC",)

#: numpy constructors that always return a fresh buffer (the family
#: the DYN207 observer wraps, with ``ascontiguousarray``).
CONSTRUCTORS: tuple[str, ...] = (
    "zeros",
    "empty",
    "ones",
    "full",
    "eye",
    "identity",
    "kron",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
)
_CONSTRUCTORS = frozenset(CONSTRUCTORS)

#: Constructors whose result is a fresh buffer, making a following
#: ``.copy()`` a provable double copy.  ``asarray`` is deliberately
#: absent: it may alias its input, so the copy is load-bearing.
_FRESH_FUNCS = frozenset(_CONSTRUCTORS | {"array", "ascontiguousarray"})

#: Subscript index names treated as row-selection arrays for the
#: loop-invariant fancy-index rule.  Name-based, so the rule stays
#: precise: an integer index named ``j`` (a cheap view) never fires.
_INDEX_NAMES = frozenset({"idx", "index", "indices", "rows", "support", "mask"})

#: A closure defined in a loop runs when *called*, not per iteration.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

_BYTES_UNITS = ((2**30, "GiB"), (2**20, "MiB"), (2**10, "KiB"))


def _format_bytes(nbytes: float) -> str:
    for scale, unit in _BYTES_UNITS:
        if nbytes >= scale:
            return f"{nbytes / scale:.1f} {unit}"
    return f"{int(nbytes)} B"


def _byte_suffix(call: ast.Call) -> tuple[str, dict[str, object]]:
    """Message suffix + context fields for a constructor's byte
    estimate at paper scale (silent unless every dim is known)."""
    found = allocation(call, terminal)
    if found is None or not found[1] or any(UNKNOWN in d.syms for d in found[1]):
        return "", {}
    _fn, shape, dtype = found
    nbytes = float(itemsize(dtype))
    for d in shape:
        nbytes *= d.evaluate(DEFAULT_BINDINGS)
    return (
        f" (≈ {_format_bytes(nbytes)} per iteration at paper scale)",
        {"bytes_per_iter": int(nbytes), "size": "*".join(map(str, shape))},
    )


def _names_in(node: ast.AST | None) -> Iterable[str]:
    return (leaf.id for leaf in ast.walk(node) if isinstance(leaf, ast.Name)) if node else ()


def _assigned_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Every plain name bound anywhere in ``nodes`` (loop variance)."""
    out: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Assign):
                targets: list = node.targets
            elif isinstance(node, ast.withitem):
                targets = [node.optional_vars]
            elif isinstance(
                node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.comprehension)
            ):
                targets = [node.target]
            else:
                continue
            for target in targets:
                out.update(_names_in(target))
    return out


def _leftmost_leaf(node: ast.expr) -> ast.expr:
    """Leftmost operand of a +/- chain (``u`` in ``u + a - b``)."""
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        node = node.left
    return node


def _invariant_base(node: ast.expr) -> str | None:
    """Dotted name of a subscript base that *can* be loop-invariant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


class _HotScan(FunctionVisitor):
    """Scan one hot function for the four ALLOC rules."""

    def __init__(self, index: SourceIndex, info: FuncInfo) -> None:
        super().__init__(index, info)
        #: names bound to arrays by a constructor / copy in this scope.
        self.known_arrays: dict[str, ast.Call | None] = {}
        #: name -> line it was bound to an np.ascontiguousarray result.
        #: A re-contiguation is only redundant strictly *after* the
        #: binding (``X = np.ascontiguousarray(X)`` rebinds the very
        #: name it reads — that first call is load-bearing).
        self.contiguous: dict[str, int] = {}

    def emit(self, rule_id: str, lineno: int, message: str, **context: object) -> None:
        """One finding per (rule, line): nested loops report a site once."""
        if all((f.rule, f.line) != (rule_id, lineno) for f in self.findings):
            name = self.info.display
            super().emit(
                rule_id, lineno, f"{message} [in hot function {name}]",
                function=name, **context,
            )

    def scan(self) -> list[Finding]:
        self._prepass()
        for stmt in self.info.node.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.For, ast.While)):
                    self._scan_loop(node)
                elif isinstance(node, ast.Call):
                    self._check_double_copy(node)
        return sorted(self.findings, key=lambda f: (f.line, f.rule))

    def _prepass(self) -> None:
        """Bind names provably holding arrays (for ALLOC603)."""
        for stmt in ast.walk(self.info.node):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            target = stmt.targets[0].id
            # Both arms of ``np.zeros(p) if b is None else b.copy()``.
            value = stmt.value
            arms = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            for arm in (a for a in arms if isinstance(a, ast.Call)):
                func = np_attr(arm.func, _CONSTRUCTORS | {"ascontiguousarray"})
                if func in _CONSTRUCTORS:
                    self.known_arrays[target] = arm
                elif func == "ascontiguousarray":
                    self.known_arrays[target] = None
                    prior = self.contiguous.get(target)
                    if prior is None or stmt.lineno < prior:
                        self.contiguous[target] = stmt.lineno
                elif isinstance(arm.func, ast.Attribute) and arm.func.attr == "copy":
                    self.known_arrays[target] = None

    def _scan_loop(self, loop: ast.For | ast.While) -> None:
        body: list[ast.stmt] = [*loop.body, *loop.orelse]
        variant = _assigned_names(body)
        if isinstance(loop, ast.For):
            variant.update(_names_in(loop.target))
        escapes = self._escaping_names(body)
        for node in (n for stmt in body for n in walk(stmt, _SCOPES)):
            if isinstance(node, ast.Call):
                self._check_constructor_in_loop(node, escapes)
            elif isinstance(node, ast.Assign):
                self._check_missed_inplace(node)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                self._check_invariant_fancy_index(node, variant)

    @staticmethod
    def _escaping_names(body: list[ast.stmt]) -> dict[str, int]:
        """name -> line of the first *escape* of a loop-local binding:
        appended to a list, stored into a container/attribute, returned
        or yielded."""
        out: dict[str, int] = {}

        def note(value: ast.expr | None, lineno: int) -> None:
            if isinstance(value, ast.Name):
                out.setdefault(value.id, lineno)

        for node in (n for stmt in body for n in walk(stmt, _SCOPES)):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "add", "put")
                    and len(node.args) == 1
                ):
                    note(node.args[0], node.lineno)
            elif isinstance(node, ast.Assign):
                # obj.attr = name and container[key] = name (key a name,
                # constant or call) keep the object; slice or tuple
                # stores copy into the container instead.
                for target in node.targets:
                    if isinstance(target, ast.Attribute) or (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, (ast.Name, ast.Constant, ast.Call))
                    ):
                        note(node.value, node.lineno)
            elif isinstance(node, (ast.Return, ast.Yield)):
                note(node.value, node.lineno)
        return out

    def _check_constructor_in_loop(
        self, call: ast.Call, escapes: dict[str, int]
    ) -> None:
        func = np_attr(call.func, _CONSTRUCTORS)
        if func is None:
            return
        suffix, context = _byte_suffix(call)
        # A constructor whose target escapes the loop is the pool
        # candidate (ALLOC604); a non-escaping one is hoistable churn
        # (ALLOC601).  The two are exclusive per site.
        parent = self.info.module.parents.get(call)
        target = (
            parent.targets[0].id
            if isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
            else None
        )
        if target is not None and target in escapes:
            self.emit(
                "ALLOC604",
                call.lineno,
                f"buffer from `np.{func}(...)` allocated per iteration "
                f"escapes its loop via `{target}` — candidate for "
                "shape/dtype-keyed pooling (repro.perf.pool)" + suffix,
                constructor=func,
                escapes_via=target,
                **context,
            )
        else:
            self.emit(
                "ALLOC601",
                call.lineno,
                f"`np.{func}(...)` allocates a fresh ndarray every "
                "iteration — hoist it out of the loop or reuse a pooled "
                "buffer" + suffix,
                constructor=func,
                **context,
            )

    def _check_missed_inplace(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        value = stmt.value
        leaf = _leftmost_leaf(value)
        if not (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Add, ast.Sub))
            and name in self.known_arrays
            and isinstance(leaf, ast.Name)
            and leaf.id == name
        ):
            return
        shape_call = self.known_arrays[name]
        suffix, byte_ctx = _byte_suffix(shape_call) if shape_call else ("", {})
        self.emit(
            "ALLOC603",
            stmt.lineno,
            f"`{name} = {name} ± ...` allocates a temporary per binary "
            "op and a fresh result every iteration; the augmented "
            f"in-place form (`{name} += ...; {name} -= ...`) performs "
            "the identical float ops in the identical order — bitwise "
            "the same — with zero allocations" + suffix,
            target=name,
            **byte_ctx,
        )

    def _check_invariant_fancy_index(
        self, node: ast.Subscript, variant: set[str]
    ) -> None:
        index = node.slice
        if not (
            isinstance(index, ast.Name)
            and index.id.rsplit("_", 1)[-1].lower() in _INDEX_NAMES
            and index.id not in variant
        ):
            return
        base = _invariant_base(node.value)
        if base is None:
            return
        root = base.split(".", 1)[0]
        if root != "self" and root in variant:
            return
        self.emit(
            "ALLOC602",
            node.lineno,
            f"fancy index `{base}[{index.id}]` with loop-invariant base "
            "and index materializes the same selection afresh every "
            "iteration — hoist it out of the loop",
            base=base,
            index=index.id,
        )

    def _check_double_copy(self, call: ast.Call) -> None:
        func = call.func
        fresh = func.value if isinstance(func, ast.Attribute) else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "copy"
            and not call.args
            and (
                isinstance(fresh, ast.BinOp)  # (x + y).copy()
                or isinstance(fresh, ast.Call)
                and np_attr(fresh.func, _FRESH_FUNCS) is not None
            )
        ):
            self.emit(
                "ALLOC602",
                call.lineno,
                "`.copy()` of a value that is already a fresh array "
                "(constructor / binary-op result) — the first buffer is "
                "built only to be discarded",
            )
        elif (
            np_attr(func, ("ascontiguousarray",))
            and call.args
            and isinstance(call.args[0], ast.Name)
            and call.lineno > self.contiguous.get(call.args[0].id, call.lineno)
        ):
            self.emit(
                "ALLOC602",
                call.lineno,
                f"`np.ascontiguousarray({call.args[0].id})` re-copies a "
                "value already bound to an ascontiguousarray result",
            )


def _hot_functions(index: SourceIndex) -> list[FuncInfo]:
    """Reachable-from-plan functions ∪ functions of hot modules.

    Files the caller named explicitly (fixtures, single-file CLI runs)
    are forced hot: pointing the pass at a file declares it hot.
    """
    hot = {info.qualname: info for info, _path in index.reachable(plan_roots(index))}
    for mod in index.modules:
        posix = os.path.abspath(mod.path).replace(os.sep, "/")
        if posix.endswith(HOT_MODULE_SUFFIXES) or mod.explicit:
            for fn in mod.defs():
                hot.setdefault(fn.qualname, fn)
    return sorted(hot.values(), key=lambda f: (f.module.path, f.node.lineno))


class AllocScan(NamedTuple):
    """One static-pass run packaged for the DYN207 cross-check.

    ``sites`` holds ``(abspath, line)`` of every finding *or* ALLOC
    suppression directive — a suppressed site is a *known* site —
    and ``files`` every absolute path the pass scanned (runtime
    hotspots elsewhere are out of the static pass's scope).
    """

    findings: list[Finding]
    sites: set[tuple[str, int]]
    files: set[str]


def alloc_scan(index: SourceIndex) -> AllocScan:
    """Run the static pass over ``index`` and collect its cross-check
    coverage set.

    ``repro.analysis`` itself is never scanned unless named explicitly:
    it builds workloads and fixtures whose loops are not production
    hot paths.
    """
    index = index.select(
        lambda mod: mod.explicit or "analysis" not in mod.name.split(".")
    )
    raw = [f for info in _hot_functions(index) for f in _HotScan(index, info).scan()]
    findings = index.suppress(raw, ALLOC_FAMILY)
    sites = {(os.path.abspath(f.file), f.line) for f in findings}
    for mod in index.modules:
        for lineno, rules in mod.directives.items():
            if any(r.startswith(ALLOC_FAMILY) for r in rules or ()):
                sites.add((os.path.abspath(mod.path), lineno))
    files = {os.path.abspath(mod.path) for mod in index.modules}
    return AllocScan(findings, sites, files)


default_alloc_paths = whole_package
