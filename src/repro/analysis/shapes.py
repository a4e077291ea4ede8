"""SHAPE1xx: symbolic shape/dtype/memory abstract interpretation.

The paper's central scaling hazard is silent blow-up: the Kronecker
lifting ``vec Y = (I ⊗ X) vec B`` (eq. 9) is ≈ p³ the size of the
data, so one stray dense materialization — or one allocation whose
symbolic size scales like ``n · p²`` — exhausts a node 40 minutes into
a 100k-core run.  This pass proves the absence of those blow-ups
*before* launch by abstract interpretation over the syntax tree:

* symbolic dims are seeded from the codebase's own idiom
  (``n, p = X.shape``, ``q = len(lambdas)``) and propagated through
  numpy constructors (``zeros``/``empty``/``eye``/``arange``/...),
  ``kron``, ``@``, ``.T``, and ``asarray``/``astype`` dtype casts;
* every recognized allocation is evaluated, as a product of symbolic
  dims times the dtype's itemsize, against a configurable per-rank
  :class:`MemoryBudget` at reference paper scale (``SHAPE102``);
* dense materialization of ``I ⊗ X`` outside the sanctioned
  :func:`repro.linalg.kron.identity_kron` path is flagged
  (``SHAPE101``): ``np.kron(np.eye(p), X)``, ``identity_kron(...,
  sparse=False)``, and ``.toarray()`` on a lifted object;
* float32/float64 drift is flagged (``SHAPE103``): mixed-dtype
  arithmetic, and float32 arrays crossing a solver boundary that
  normalizes to float64.

Like the SPMD linter, the pass is precision-first: every rule fires
only on evidence the AST actually carries (a known constructor, a
known shape binding, a known dtype on both operands), so
``repro check shapes`` gates CI on zero findings over
``repro.linalg`` and ``repro.distribution`` without blanket
suppressions.  Suppress per line with ``# repro: ignore[SHAPE10x]``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.analysis.source import (
    SourceIndex,
    dotted,
    package_root,
    scope_bodies,
    terminal,
)

__all__ = [
    "Dim",
    "ArrayInfo",
    "MemoryBudget",
    "DEFAULT_BINDINGS",
    "SANCTIONED_KRON_MODULES",
    "SOLVER_BOUNDARIES",
    "shape_check_index",
    "default_shape_paths",
]

#: Reference paper scale used to evaluate symbolic sizes: the Fig. 9
#: configuration (N ≈ 1e5 samples, p = 1000 network nodes, VAR order
#: d = 3, q = 48 penalties, B1 = B2 = 48 bootstraps).  Symbol lookup
#: is case-insensitive on the terminal identifier.
DEFAULT_BINDINGS: dict[str, float] = {
    "n": 100_000.0,
    "m": 100_000.0,
    "t": 100_000.0,
    "nrows": 100_000.0,
    "n_rows": 100_000.0,
    "p": 1_000.0,
    "c": 1_000.0,
    "ncols": 1_000.0,
    "n_cols": 1_000.0,
    "q": 48.0,
    "n_lambdas": 48.0,
    "nlam": 48.0,
    "k": 3_000.0,
    "kdim": 3_000.0,
    "ncoef": 3_000_000.0,
    "d": 3.0,
    "order": 3.0,
    "lag": 3.0,
    "b": 48.0,
    "b1": 48.0,
    "b2": 48.0,
    "nboot": 48.0,
}

#: Value assumed for symbols with no binding: deliberately small, so
#: only *named* paper-scale dims (or Kronecker products of them) can
#: push an allocation over budget — unknown-dim allocations never
#: false-positive.
DEFAULT_SYMBOL_VALUE = 64.0

#: Modules allowed to materialize ``I ⊗ X`` (posix-style path
#: suffixes).  ``repro.linalg.kron`` owns the sanctioned
#: representations; everything else must go through it.
SANCTIONED_KRON_MODULES: tuple[str, ...] = ("linalg/kron.py",)

#: Callables that normalize their array arguments to float64: a known
#: float32 array crossing one of these boundaries silently upcasts.
SOLVER_BOUNDARIES = frozenset(
    {
        "lasso_cd",
        "lasso_admm",
        "consensus_lasso_admm",
        "ols_on_support",
        "ridge_on_support",
    }
)

_DTYPE_SIZES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "complex128": 16,
    "int64": 8,
    "int32": 4,
    "intp": 8,
    "int8": 1,
    "uint8": 1,
    "bool": 1,
}

_ALLOC_FUNCS = frozenset({"zeros", "empty", "ones", "full"})
_UNKNOWN = "?"


@dataclass(frozen=True)
class Dim:
    """One symbolic dimension: ``coeff * prod(syms)`` (a monomial).

    Sums and non-monomial expressions collapse to the unknown symbol
    ``"?"`` — the interpreter under-approximates rather than guess.
    """

    coeff: float = 1.0
    syms: tuple[str, ...] = ()

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(
            self.coeff * other.coeff, tuple(sorted(self.syms + other.syms))
        )

    def evaluate(self, bindings: dict[str, float]) -> float:
        value = self.coeff
        for sym in self.syms:
            value *= bindings.get(sym.lower(), DEFAULT_SYMBOL_VALUE)
        return value

    def __str__(self) -> str:
        parts = [str(int(self.coeff))] if self.coeff != 1.0 or not self.syms else []
        parts.extend(self.syms)
        return "*".join(parts) if parts else "1"


@dataclass
class ArrayInfo:
    """What the interpreter knows about one bound array variable."""

    shape: tuple[Dim, ...] | None = None
    dtype: str | None = None
    lifted: bool = False  # result of identity_kron


@dataclass
class MemoryBudget:
    """Per-rank memory budget for ``SHAPE102``.

    ``bindings`` maps symbol names (case-insensitive) to reference
    values; ``per_rank_bytes`` is the ceiling one allocation may reach
    when evaluated at those values (default 4 GiB — half a Cori KNL
    node's usable DRAM, the paper's target machine).
    """

    per_rank_bytes: float = 4.0 * 2**30
    bindings: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BINDINGS))


def _is_np_attr(node: ast.expr, names: Iterable[str]) -> str | None:
    """``fn`` when ``node`` is ``np.fn`` / ``numpy.fn`` with fn in names."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in names
    ):
        return node.attr
    return None


def _dtype_of_node(node: ast.expr | None) -> str | None:
    """Dtype string for a ``dtype=`` argument node, if recognizable."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        if node.id == "float":
            return "float64"
        if node.id in ("int", "bool"):
            return "int64" if node.id == "int" else "bool"
        return None
    if isinstance(node, ast.Attribute):
        # np.float32, np.float64, np.intp, ...
        if node.attr in _DTYPE_SIZES:
            return node.attr
    return None


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _itemsize(dtype: str | None) -> int:
    return _DTYPE_SIZES.get(dtype or "float64", 8)


class _ScopeInterpreter:
    """Abstract interpretation of one scope (function or module body)."""

    def __init__(
        self,
        filename: str,
        findings: list[Finding],
        budget: MemoryBudget,
        sanctioned: bool,
    ) -> None:
        self.filename = filename
        self.findings = findings
        self.budget = budget
        self.sanctioned = sanctioned
        self.env: dict[str, ArrayInfo] = {}

    # ------------------------------------------------------------ emit
    def _emit(self, rule_id: str, lineno: int, message: str, **context: object) -> None:
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

    # ----------------------------------------------------- dim algebra
    def _dim(self, node: ast.expr) -> Dim:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return Dim(float(node.value))
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = terminal(node)
            return Dim(1.0, (name,)) if name else Dim(1.0, (_UNKNOWN,))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return self._dim(node.left) * self._dim(node.right)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and node.args
        ):
            inner = dotted(node.args[0])
            return Dim(1.0, (f"len({inner})" if inner else _UNKNOWN,))
        return Dim(1.0, (_UNKNOWN,))

    def _shape_from_tuple(self, node: ast.expr) -> tuple[Dim, ...]:
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._dim(el) for el in node.elts)
        return (self._dim(node),)

    # ----------------------------------------------------- allocations
    def _record_allocation(
        self,
        lineno: int,
        shape: tuple[Dim, ...],
        dtype: str | None,
        what: str,
    ) -> None:
        """SHAPE102: evaluate the allocation at reference scale."""
        total = Dim(float(_itemsize(dtype)))
        for dim in shape:
            total = total * dim
        nbytes = total.evaluate(self.budget.bindings)
        if nbytes > self.budget.per_rank_bytes:
            shape_str = " x ".join(str(d) for d in shape)
            self._emit(
                "SHAPE102",
                lineno,
                f"{what} of symbolic shape ({shape_str}) evaluates to "
                f"{nbytes:.3g} bytes at reference scale, over the "
                f"{self.budget.per_rank_bytes:.3g}-byte per-rank budget",
                shape=[str(d) for d in shape],
                bytes=nbytes,
                budget=self.budget.per_rank_bytes,
            )

    # ------------------------------------------------- expression eval
    def _eval_call(self, call: ast.Call) -> ArrayInfo | None:
        """ArrayInfo for a recognized constructor call, else None.

        Also responsible for the SHAPE101 checks that key on call
        syntax (``np.kron(np.eye(p), X)``, ``identity_kron(...,
        sparse=False)``).
        """
        func = call.func
        lineno = call.lineno

        fn = _is_np_attr(func, _ALLOC_FUNCS)
        if fn is not None and call.args:
            shape = self._shape_from_tuple(call.args[0])
            dtype = _dtype_of_node(_kwarg(call, "dtype"))
            self._record_allocation(lineno, shape, dtype, f"np.{fn} allocation")
            return ArrayInfo(shape=shape, dtype=dtype or "float64")

        fn = _is_np_attr(func, ("eye", "identity"))
        if fn is not None and call.args:
            d = self._dim(call.args[0])
            dtype = _dtype_of_node(_kwarg(call, "dtype"))
            self._record_allocation(lineno, (d, d), dtype, f"np.{fn} allocation")
            return ArrayInfo(shape=(d, d), dtype=dtype or "float64")

        if _is_np_attr(func, ("arange",)) is not None and call.args:
            d = self._dim(call.args[-1] if len(call.args) <= 1 else call.args[1])
            dtype = _dtype_of_node(_kwarg(call, "dtype"))
            return ArrayInfo(shape=(d,), dtype=dtype)

        if _is_np_attr(func, ("kron",)) is not None and len(call.args) == 2:
            left, right = call.args
            if not self.sanctioned and isinstance(left, ast.Call) and (
                _is_np_attr(left.func, ("eye", "identity")) is not None
            ):
                self._emit(
                    "SHAPE101",
                    lineno,
                    "dense materialization of I ⊗ X via np.kron(np.eye(p), "
                    "X): ≈ p³ blow-up — use the sparse "
                    "repro.linalg.kron.identity_kron instead",
                    pattern="np.kron(np.eye, .)",
                )
            linfo = self._eval_expr(left)
            rinfo = self._eval_expr(right)
            if (
                linfo is not None
                and rinfo is not None
                and linfo.shape is not None
                and rinfo.shape is not None
                and len(linfo.shape) == len(rinfo.shape) == 2
            ):
                shape = (
                    linfo.shape[0] * rinfo.shape[0],
                    linfo.shape[1] * rinfo.shape[1],
                )
                self._record_allocation(
                    lineno, shape, rinfo.dtype, "np.kron materialization"
                )
                return ArrayInfo(shape=shape, dtype=rinfo.dtype)
            return ArrayInfo()

        # identity_kron(...): a lifted object.
        callee = terminal(func)
        if callee == "identity_kron":
            sparse_kw = _kwarg(call, "sparse")
            dense = (
                isinstance(sparse_kw, ast.Constant) and sparse_kw.value is False
            )
            if dense and not self.sanctioned:
                self._emit(
                    "SHAPE101",
                    lineno,
                    "identity_kron(..., sparse=False) materializes the "
                    "dense lifted design (≈ p³): keep the sparse default",
                    pattern="identity_kron(sparse=False)",
                )
            return ArrayInfo(lifted=True)

        if _is_np_attr(func, ("asarray", "ascontiguousarray", "array")) and call.args:
            inner = self._eval_expr(call.args[0])
            dtype = _dtype_of_node(_kwarg(call, "dtype"))
            if inner is not None:
                return ArrayInfo(
                    shape=inner.shape,
                    dtype=dtype or inner.dtype,
                    lifted=inner.lifted,
                )
            return ArrayInfo(dtype=dtype)

        # x.astype(dt): dtype change, shape preserved.
        if isinstance(func, ast.Attribute) and func.attr == "astype" and call.args:
            inner = self._eval_expr(func.value)
            dtype = _dtype_of_node(call.args[0])
            if inner is not None:
                return ArrayInfo(shape=inner.shape, dtype=dtype, lifted=inner.lifted)
            return ArrayInfo(dtype=dtype)

        # .toarray() on a lifted object: dense materialization.
        if isinstance(func, ast.Attribute) and func.attr == "toarray":
            inner = self._eval_expr(func.value)
            if inner is not None and inner.lifted and not self.sanctioned:
                self._emit(
                    "SHAPE101",
                    lineno,
                    ".toarray() on a lifted I ⊗ X object materializes the "
                    "dense design (≈ p³ blow-up)",
                    pattern=".toarray()",
                )
            return ArrayInfo()

        # Solver boundary: float32 arguments silently upcast to float64.
        if callee in SOLVER_BOUNDARIES:
            for arg in call.args:
                info = self._eval_expr(arg)
                if info is not None and info.dtype == "float32":
                    self._emit(
                        "SHAPE103",
                        lineno,
                        f"float32 array crosses the `{callee}` solver "
                        "boundary, which normalizes to float64: the input "
                        "dtype is silently dropped — cast explicitly at "
                        "the boundary",
                        boundary=callee,
                    )
        return None

    def _eval_expr(self, node: ast.expr) -> ArrayInfo | None:
        """ArrayInfo of an expression, if the interpreter can tell."""
        key = dotted(node)
        if key is not None and key in self.env:
            return self.env[key]
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute) and node.attr == "T":
            inner = self._eval_expr(node.value)
            if inner is not None and inner.shape is not None:
                return ArrayInfo(
                    shape=tuple(reversed(inner.shape)), dtype=inner.dtype
                )
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left = self._eval_expr(node.left)
            right = self._eval_expr(node.right)
            self._check_mixed_dtype(node, left, right)
            if (
                left is not None
                and right is not None
                and left.shape is not None
                and right.shape is not None
                and len(left.shape) == 2
                and len(right.shape) == 2
            ):
                return ArrayInfo(
                    shape=(left.shape[0], right.shape[1]),
                    dtype=left.dtype if left.dtype == right.dtype else None,
                )
            return None
        if isinstance(node, ast.BinOp):
            left = self._eval_expr(node.left)
            right = self._eval_expr(node.right)
            self._check_mixed_dtype(node, left, right)
            if left is not None and left.shape is not None:
                return ArrayInfo(shape=left.shape, dtype=left.dtype)
            return None
        return None

    def _check_mixed_dtype(
        self, node: ast.BinOp, left: ArrayInfo | None, right: ArrayInfo | None
    ) -> None:
        """SHAPE103: arithmetic mixing known float32 and float64."""
        dtypes = {
            info.dtype
            for info in (left, right)
            if info is not None and info.dtype in ("float32", "float64")
        }
        if dtypes == {"float32", "float64"}:
            self._emit(
                "SHAPE103",
                node.lineno,
                "mixed float32/float64 arithmetic silently upcasts to "
                "float64: normalize the dtype at the subsystem boundary",
                op=type(node.op).__name__,
            )

    # -------------------------------------------------------- statements
    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are interpreted separately
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._assign(stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, stmt.value)
        else:
            self._visit_exprs(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, (ast.expr,)) and not isinstance(
                stmt, (ast.Assign, ast.AnnAssign)
            ):
                pass  # already visited via _visit_exprs
        # Statement bodies (for/if/while/with) are statements and are
        # handled by the iter_child_nodes walk above.

    def _visit_exprs(self, stmt: ast.stmt) -> None:
        """Evaluate every call/binop in a non-assignment statement."""
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(node, ast.Call):
                self._eval_call(node)
            elif isinstance(node, ast.BinOp):
                self._check_mixed_dtype(
                    node,
                    self._eval_expr(node.left),
                    self._eval_expr(node.right),
                )

    def _assign(self, target: ast.expr, value: ast.expr) -> None:
        # `n, p = X.shape`: bind X's shape to the target symbols.
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, ast.Attribute)
            and value.attr == "shape"
        ):
            src = dotted(value.value)
            dims = []
            for el in target.elts:
                name = el.id if isinstance(el, ast.Name) else _UNKNOWN
                dims.append(Dim(1.0, (name,)))
            if src is not None:
                existing = self.env.get(src)
                self.env[src] = ArrayInfo(
                    shape=tuple(dims),
                    dtype=existing.dtype if existing else None,
                    lifted=existing.lifted if existing else False,
                )
            return
        # Parallel assignment of calls: evaluate for side effects.
        if isinstance(target, (ast.Tuple, ast.List)):
            self._eval_expr(value)
            return
        info = self._eval_expr(value)
        key = dotted(target)
        if key is None:
            return
        if info is not None:
            self.env[key] = info
        else:
            self.env.pop(key, None)  # rebound to something unknown


def _is_sanctioned(filename: str, sanctioned: tuple[str, ...]) -> bool:
    posix = filename.replace(os.sep, "/")
    return any(posix.endswith(suffix) for suffix in sanctioned)


def shape_check_index(
    index: SourceIndex,
    *,
    budget: MemoryBudget | None = None,
    sanctioned: tuple[str, ...] = SANCTIONED_KRON_MODULES,
) -> list[Finding]:
    """Run the SHAPE pass over every module of ``index``."""
    budget = budget if budget is not None else MemoryBudget()
    findings: list[Finding] = []
    for mod in index.modules:
        in_sanctioned = _is_sanctioned(mod.path, sanctioned)
        raw: list[Finding] = []
        for body in scope_bodies(mod.tree):
            interp = _ScopeInterpreter(mod.path, raw, budget, in_sanctioned)
            interp.run(body)
        # One finding per (rule, line): the expression evaluator may
        # visit a call twice (once as a value, once inside an enclosing
        # binop).
        seen: set[tuple[str, int, str]] = set()
        for f in raw:
            sig = (f.rule, f.line, f.message)
            if sig not in seen:
                seen.add(sig)
                findings.append(f)
    return index.suppress(findings, ("SHAPE",))


def default_shape_paths() -> list[str]:
    """The tree ``repro check shapes`` covers by default: the numeric
    kernels (``repro.linalg``) and the data-distribution layer
    (``repro.distribution``) — the two subsystems the Kronecker lifting
    flows through."""
    here = package_root()
    return [os.path.join(here, "linalg"), os.path.join(here, "distribution")]
