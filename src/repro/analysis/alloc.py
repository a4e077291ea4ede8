"""ALLOC6xx: allocation & copy analysis over the hot regions.

The paper's scaling results hinge on per-subproblem cost staying flat
as the (bootstrap, λ) grid grows, and its hot loops — the ADMM/CD
z-updates, the consensus allreduce loop, the lifted column sweeps —
are dominated by data movement at scale.  Before pooling any buffer
(ROADMAP item 2) we need machine-checked knowledge of *where* ndarray
churn happens.  This pass finds it:

* a **hot region** is any function reachable from
  ``UoIPlan.run_chain``/``reduce`` (the DET3xx call-graph machinery,
  rooted the same way) plus every function of the explicitly hot
  modules — the solver kernels (``linalg/admm|cd|homotopy|ols|
  consensus|soft_threshold``), the simmpi collectives/RMA layer
  (``simmpi/comm|window``) and the bootstrap resampler
  (``core/bootstrap``);
* inside hot functions the pass reports, per loop:

  - ``ALLOC601`` — a numpy constructor (``zeros``/``empty``/``ones``/
    ``full``/``eye``/``identity``/``kron``/``*_like``) executed every
    iteration;
  - ``ALLOC602`` — provably avoidable copies: ``.copy()`` of an
    already-fresh array, ``np.ascontiguousarray`` of a value already
    contiguous by construction, and loop-invariant fancy-index
    materialization (``base[idx]`` with both operands invariant);
  - ``ALLOC603`` — ``name = name + a - b``-style updates of a known
    array that miss the in-place form (``+=`` / ``out=``), which is
    bitwise-identical and allocation-free;
  - ``ALLOC604`` — a per-iteration buffer that *escapes* its loop
    (appended/stored/returned): the explicit candidate list for the
    shape/dtype-keyed pool in :mod:`repro.perf.pool`.

Each finding carries a per-iteration byte estimate at paper scale,
evaluated with the SHAPE10x symbolic machinery
(:class:`repro.analysis.shapes.Dim` over
:data:`~repro.analysis.shapes.DEFAULT_BINDINGS`), so the backlog can
be ranked by bytes, not vibes.  The runtime twin is ``DYN207``
(:mod:`repro.analysis.allocobs`): an allocation observer attached to
real engine runs cross-checks these findings against measured
allocation behaviour.

Like every static pass the rules are precision-first — they fire only
on evidence the AST carries (a known constructor, a provably
loop-invariant operand, an array bound in the same scope) — and
``# repro: ignore[ALLOC60x]`` suppressions go through the shared
SUP001 stale-directive audit.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable

from repro.analysis.determinism import reachable
from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.analysis.shapes import DEFAULT_BINDINGS, Dim, _DTYPE_SIZES
from repro.analysis.source import FuncInfo, SourceIndex, package_root

__all__ = [
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

#: numpy constructors that always return a fresh buffer.
_CONSTRUCTORS = frozenset(
    {
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
    }
)

#: Constructors whose result is a fresh buffer, making a following
#: ``.copy()`` a provable double copy.  ``asarray`` is deliberately
#: absent: it may alias its input, so the copy is load-bearing.
_FRESH_FUNCS = frozenset(_CONSTRUCTORS | {"array", "ascontiguousarray"})

#: Subscript index names treated as row-selection arrays for the
#: loop-invariant fancy-index rule.  Name-based, so the rule stays
#: precise: an integer index named ``j`` (a cheap view) never fires.
_INDEX_NAMES = frozenset({"idx", "index", "indices", "rows", "support", "mask"})

_BYTES_UNITS = ((2**30, "GiB"), (2**20, "MiB"), (2**10, "KiB"))


def _format_bytes(nbytes: float) -> str:
    for scale, unit in _BYTES_UNITS:
        if nbytes >= scale:
            return f"{nbytes / scale:.1f} {unit}"
    return f"{int(nbytes)} B"


def _np_func(node: ast.expr) -> str | None:
    """``fn`` when ``node`` is ``np.fn`` / ``numpy.fn``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def _dim_of(node: ast.expr) -> Dim | None:
    """Symbolic :class:`Dim` for one shape component, if recognizable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return Dim(float(node.value), ())
    if isinstance(node, ast.Name):
        return Dim(1.0, (node.id,))
    if isinstance(node, ast.Attribute):
        # self.p, cfg.n_lambdas — the terminal attribute is the symbol.
        return Dim(1.0, (node.attr,))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = _dim_of(node.left), _dim_of(node.right)
        if left is not None and right is not None:
            return left * right
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    ):
        inner = node.args[0]
        if isinstance(inner, (ast.Name, ast.Attribute)):
            return _dim_of(inner)
    return None


def _shape_dims(call: ast.Call) -> tuple[Dim, ...] | None:
    """Symbolic shape of a constructor call's first argument."""
    if not call.args:
        return None
    shape = call.args[0]
    if isinstance(shape, (ast.Tuple, ast.List)):
        dims: list[Dim] = []
        for elt in shape.elts:
            dim = _dim_of(elt)
            if dim is None:
                return None
            dims.append(dim)
        return tuple(dims)
    dim = _dim_of(shape)
    return (dim,) if dim is not None else None


def _dtype_size(call: ast.Call) -> int:
    for kw in call.keywords:
        if kw.arg != "dtype":
            continue
        value = kw.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return _DTYPE_SIZES.get(value.value, 8)
        if isinstance(value, ast.Attribute):
            return _DTYPE_SIZES.get(value.attr, 8)
        if isinstance(value, ast.Name):
            return 1 if value.id == "bool" else 8
    return 8


def _estimate_bytes(call: ast.Call) -> tuple[float | None, str | None]:
    """``(bytes, human size)`` of a constructor call at paper scale."""
    func = _np_func(call.func)
    if func in ("eye", "identity"):
        dim = _dim_of(call.args[0]) if call.args else None
        dims = (dim, dim) if dim is not None else None
    elif func == "kron":
        dims = None  # product of two unknown operands — stay silent
    elif func and func.endswith("_like"):
        dims = None
    else:
        dims = _shape_dims(call)
    if not dims or any(d is None for d in dims):
        return None, None
    total = float(_dtype_size(call))
    text_parts = []
    for d in dims:
        total *= d.evaluate(DEFAULT_BINDINGS)
        text_parts.append(str(d))
    return total, "*".join(text_parts)


def _byte_suffix(call: ast.Call) -> tuple[str, dict[str, object]]:
    """Message suffix + context fields for a call's byte estimate."""
    nbytes, size = _estimate_bytes(call)
    if nbytes is None:
        return "", {}
    return (
        f" (≈ {_format_bytes(nbytes)} per iteration at paper scale)",
        {"bytes_per_iter": int(nbytes), "size": size},
    )


def _walk_skip_defs(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` that does not descend into nested function/lambda
    bodies — a closure defined in a loop executes when *called*, not
    per iteration of the loop that defines it."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _assigned_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Every plain name bound anywhere in ``nodes`` (loop variance)."""
    out: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            out.add(leaf.id)
            elif isinstance(node, ast.For):
                for leaf in ast.walk(node.target):
                    if isinstance(leaf, ast.Name):
                        out.add(leaf.id)
            elif isinstance(node, (ast.withitem, ast.comprehension)):
                opt = (
                    node.optional_vars
                    if isinstance(node, ast.withitem)
                    else node.target
                )
                if opt is not None:
                    for leaf in ast.walk(opt):
                        if isinstance(leaf, ast.Name):
                            out.add(leaf.id)
    return out


def _leftmost_leaf(node: ast.expr) -> ast.expr:
    """Leftmost operand of a +/- chain (``u`` in ``u + a - b``)."""
    while isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        node = node.left
    return node


def _is_fresh_call(node: ast.expr) -> bool:
    """Whether ``node`` provably evaluates to a fresh buffer."""
    if isinstance(node, ast.Call):
        func = _np_func(node.func)
        if func in _FRESH_FUNCS:
            return True
        # (x + y).copy(): the binop result is already a fresh array.
    if isinstance(node, ast.BinOp):
        return True
    return False


def _invariant_base(node: ast.expr) -> str | None:
    """Dotted name of a subscript base that *can* be loop-invariant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


class _HotFunctionScanner:
    """Scan one hot function for the four ALLOC rules."""

    def __init__(self, info: FuncInfo) -> None:
        self.info = info
        #: (rule, line) -> Finding, so nested loops report a site once.
        self.found: dict[tuple[str, int], Finding] = {}
        #: names bound to arrays by a constructor / copy in this scope.
        self.known_arrays: dict[str, ast.Call | None] = {}
        #: name -> line it was bound to an np.ascontiguousarray result.
        #: A re-contiguation is only redundant strictly *after* the
        #: binding (``X = np.ascontiguousarray(X)`` rebinds the very
        #: name it reads — that first call is load-bearing).
        self.contiguous: dict[str, int] = {}

    # ------------------------------------------------------------ emit
    def _emit(
        self, rule_id: str, lineno: int, message: str, **context: object
    ) -> None:
        key = (rule_id, lineno)
        if key in self.found:
            return
        rule = get_rule(rule_id)
        self.found[key] = Finding(
            rule=rule.id,
            severity=rule.severity,
            message=f"{message} [in hot function {self.info.display}]",
            file=self.info.module.path,
            line=lineno,
            source="lint",
            context={"function": self.info.display, **context},
        )

    # ------------------------------------------------------------ scan
    def scan(self) -> list[Finding]:
        self._prepass()
        for stmt in self.info.node.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.For, ast.While)):
                    self._scan_loop(node)
                elif isinstance(node, ast.Call):
                    self._check_double_copy(node)
        return sorted(self.found.values(), key=lambda f: (f.line, f.rule))

    def _prepass(self) -> None:
        """Bind names provably holding arrays (for ALLOC603)."""
        for stmt in ast.walk(self.info.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            for value in self._branch_values(stmt.value):
                if isinstance(value, ast.Call):
                    func = _np_func(value.func)
                    if func in _CONSTRUCTORS:
                        self.known_arrays[target.id] = value
                    elif func == "ascontiguousarray":
                        self.known_arrays[target.id] = None
                        prior = self.contiguous.get(target.id)
                        if prior is None or stmt.lineno < prior:
                            self.contiguous[target.id] = stmt.lineno
                    elif (
                        isinstance(value.func, ast.Attribute)
                        and value.func.attr == "copy"
                    ):
                        self.known_arrays[target.id] = None

    @staticmethod
    def _branch_values(value: ast.expr) -> list[ast.expr]:
        """The value itself, or both arms of a conditional expression
        (``np.zeros(p) if beta0 is None else np.asarray(beta0).copy()``)."""
        if isinstance(value, ast.IfExp):
            return [value.body, value.orelse]
        return [value]

    # ------------------------------------------------------- loop body
    def _scan_loop(self, loop: ast.For | ast.While) -> None:
        body: list[ast.stmt] = list(loop.body) + list(loop.orelse)
        variant = _assigned_names(body)
        if isinstance(loop, ast.For):
            for leaf in ast.walk(loop.target):
                if isinstance(leaf, ast.Name):
                    variant.add(leaf.id)
        escapes = self._escaping_names(body)
        for stmt in body:
            for node in _walk_skip_defs(stmt):
                if isinstance(node, ast.Call):
                    self._check_constructor_in_loop(node, escapes)
                elif isinstance(node, ast.Assign):
                    self._check_missed_inplace(node)
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load
                ):
                    self._check_invariant_fancy_index(node, variant)

    def _escaping_names(self, body: list[ast.stmt]) -> dict[str, int]:
        """name -> line of the first *escape* of a loop-local binding:
        appended to a list, stored into a container/attribute, returned
        or yielded."""
        out: dict[str, int] = {}

        def note(node: ast.expr | None, lineno: int) -> None:
            if isinstance(node, ast.Name) and node.id not in out:
                out[node.id] = lineno

        for stmt in body:
            for node in _walk_skip_defs(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("append", "add", "put")
                        and len(node.args) == 1
                    ):
                        note(node.args[0], node.lineno)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Subscript) and isinstance(
                            target.slice, (ast.Name, ast.Constant, ast.Call)
                        ):
                            # container[key] = name keeps the object; a
                            # slice store (out[j] = name) copies instead.
                            if not isinstance(target.slice, ast.Slice):
                                note(node.value, node.lineno)
                        elif isinstance(target, ast.Attribute):
                            note(node.value, node.lineno)
                elif isinstance(node, (ast.Return, ast.Yield)):
                    note(node.value, node.lineno)
        return out

    def _check_constructor_in_loop(
        self, call: ast.Call, escapes: dict[str, int]
    ) -> None:
        func = _np_func(call.func)
        if func not in _CONSTRUCTORS:
            return
        suffix, context = _byte_suffix(call)
        # A constructor whose target escapes the loop is the pool
        # candidate (ALLOC604); a non-escaping one is hoistable churn
        # (ALLOC601).  The two are exclusive per site.
        target = self._assign_target_of(call)
        if target is not None and target in escapes:
            self._emit(
                "ALLOC604",
                call.lineno,
                f"buffer from `np.{func}(...)` allocated per iteration "
                f"escapes its loop via `{target}` — candidate for "
                "shape/dtype-keyed pooling (repro.perf.pool)" + suffix,
                constructor=func,
                escapes_via=target,
                **context,
            )
            return
        self._emit(
            "ALLOC601",
            call.lineno,
            f"`np.{func}(...)` allocates a fresh ndarray every "
            "iteration — hoist it out of the loop or reuse a pooled "
            "buffer" + suffix,
            constructor=func,
            **context,
        )

    def _assign_target_of(self, call: ast.Call) -> str | None:
        """Name the call is directly assigned to, if any (walks the
        function once — cheap at these sizes)."""
        for stmt in ast.walk(self.info.node):
            if (
                isinstance(stmt, ast.Assign)
                and stmt.value is call
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                return stmt.targets[0].id
        return None

    def _check_missed_inplace(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        value = stmt.value
        if not (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Add, ast.Sub))
        ):
            return
        if name not in self.known_arrays:
            return
        leaf = _leftmost_leaf(value)
        if not (isinstance(leaf, ast.Name) and leaf.id == name):
            return
        context: dict[str, object] = {"target": name}
        shape_call = self.known_arrays[name]
        if shape_call is not None:
            suffix, byte_ctx = _byte_suffix(shape_call)
            context.update(byte_ctx)
        else:
            suffix = ""
        self._emit(
            "ALLOC603",
            stmt.lineno,
            f"`{name} = {name} ± ...` allocates a temporary per binary "
            "op and a fresh result every iteration; the augmented "
            f"in-place form (`{name} += ...; {name} -= ...`) performs "
            "the identical float ops in the identical order — bitwise "
            "the same — with zero allocations" + suffix,
            **context,
        )

    def _check_invariant_fancy_index(
        self, node: ast.Subscript, variant: set[str]
    ) -> None:
        index = node.slice
        if not isinstance(index, ast.Name):
            return
        stem = index.id.rsplit("_", 1)[-1].lower()
        if stem not in _INDEX_NAMES:
            return
        if index.id in variant:
            return
        base = _invariant_base(node.value)
        if base is None:
            return
        root = base.split(".", 1)[0]
        if root != "self" and root in variant:
            return
        self._emit(
            "ALLOC602",
            node.lineno,
            f"fancy index `{base}[{index.id}]` with loop-invariant base "
            "and index materializes the same selection afresh every "
            "iteration — hoist it out of the loop",
            base=base,
            index=index.id,
        )

    # --------------------------------------------------- double copies
    def _check_double_copy(self, call: ast.Call) -> None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "copy"
            and not call.args
            and _is_fresh_call(func.value)
        ):
            self._emit(
                "ALLOC602",
                call.lineno,
                "`.copy()` of a value that is already a fresh array "
                "(constructor / binary-op result) — the first buffer is "
                "built only to be discarded",
            )
            return
        np_func = _np_func(func)
        if (
            np_func == "ascontiguousarray"
            and call.args
            and isinstance(call.args[0], ast.Name)
            and call.lineno > self.contiguous.get(call.args[0].id, call.lineno)
        ):
            self._emit(
                "ALLOC602",
                call.lineno,
                f"`np.ascontiguousarray({call.args[0].id})` re-copies a "
                "value already bound to an ascontiguousarray result",
            )


# ---------------------------------------------------------------------------
# hot-region discovery + drivers
# ---------------------------------------------------------------------------
def _hot_functions(index: SourceIndex) -> list[FuncInfo]:
    """Reachable-from-plan functions ∪ functions of hot modules.

    Files the caller named explicitly (fixtures, single-file CLI runs)
    are forced hot: pointing the pass at a file declares it hot.
    """
    hot: dict[str, FuncInfo] = {}
    # 1. call-graph closure from every UoIPlan.run_chain/reduce (the
    # DET traversal; its findings are discarded).
    for scanner in reachable(index):
        hot.setdefault(scanner.info.qualname, scanner.info)
    # 2. every function of the named hot modules / forced-hot files.
    for mod in index.modules:
        posix = os.path.abspath(mod.path).replace(os.sep, "/")
        if posix.endswith(HOT_MODULE_SUFFIXES) or mod.explicit:
            for fn in mod.defs():
                hot.setdefault(fn.qualname, fn)
    return sorted(
        hot.values(), key=lambda f: (f.module.path, f.node.lineno)
    )


class AllocScan:
    """One static-pass run packaged for the DYN207 cross-check.

    ``sites`` holds ``(abspath, line)`` of every finding *or* ALLOC
    suppression directive — a suppressed site is a *known* site —
    and ``files`` every absolute path the pass scanned (runtime
    hotspots elsewhere are out of the static pass's scope).
    """

    __slots__ = ("findings", "sites", "files")

    def __init__(
        self,
        findings: list[Finding],
        sites: set[tuple[str, int]],
        files: set[str],
    ) -> None:
        self.findings = findings
        self.sites = sites
        self.files = files


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
    raw: list[Finding] = []
    for info in _hot_functions(index):
        raw.extend(_HotFunctionScanner(info).scan())
    findings = index.suppress(raw, ALLOC_FAMILY)
    sites = {(os.path.abspath(f.file), f.line) for f in findings}
    for mod in index.modules:
        for lineno, rules in mod.directives.items():
            if any(r.startswith(ALLOC_FAMILY) for r in rules or ()):
                sites.add((os.path.abspath(mod.path), lineno))
    files = {os.path.abspath(mod.path) for mod in index.modules}
    return AllocScan(findings, sites, files)


def default_alloc_paths() -> list[str]:
    """The whole ``repro`` package."""
    return [package_root()]
