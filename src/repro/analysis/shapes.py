"""SHAPE1xx: symbolic shape/dtype/memory abstract interpretation.

The paper's central scaling hazard is silent blow-up: the Kronecker
lifting ``vec Y = (I ⊗ X) vec B`` (eq. 9) is ≈ p³ the size of the
data, so one stray dense materialization — or one allocation whose
symbolic size scales like ``n · p²`` — exhausts a node at scale.  This
pass interprets each scope abstractly: symbolic dims are seeded from
the codebase's own idiom (``n, p = X.shape``) and propagated through
numpy constructors, ``kron``, ``@``, ``.T`` and dtype casts.  It flags
dense ``I ⊗ X`` outside :func:`repro.linalg.kron.identity_kron`
(``SHAPE101``), any allocation over the per-rank
:class:`MemoryBudget` at paper scale (``SHAPE102``), and float32/
float64 drift (``SHAPE103``), each only on evidence the AST carries.
:func:`allocation` is the constructor evaluation the ALLOC pass
reuses for its byte estimates.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import finding
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

_ALLOC_FUNCS = frozenset({"zeros", "empty", "ones", "full", "eye", "identity"})
UNKNOWN = "?"


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


def np_attr(node: ast.expr, names: Iterable[str]) -> str | None:
    """``fn`` when ``node`` is ``np.fn`` / ``numpy.fn`` with fn in names."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in names
    ):
        return node.attr
    return None


def dtype_of(node: ast.expr | None) -> str | None:
    """Dtype string for a ``dtype=`` argument node, if recognizable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return {"float": "float64", "int": "int64", "bool": "bool"}.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in _DTYPE_SIZES:
        return node.attr  # np.float32, np.float64, np.intp, ...
    return None


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def itemsize(dtype: str | None) -> int:
    return _DTYPE_SIZES.get(dtype or "float64", 8)


def _len_symbol(node: ast.expr) -> str | None:
    inner = dotted(node)
    return f"len({inner})" if inner else None


def dim(node: ast.expr, len_symbol: Callable = _len_symbol) -> Dim:
    """Symbolic dim of one shape component (``"?"`` when unknown).

    ``len(x)`` becomes the symbol ``len_symbol(x)``: ``len(x)`` here,
    the bare name ``x`` in the ALLOC pass's byte estimates.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return Dim(float(node.value))
    if isinstance(node, (ast.Name, ast.Attribute)):
        return Dim(1.0, (terminal(node) or UNKNOWN,))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return dim(node.left, len_symbol) * dim(node.right, len_symbol)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and node.args
    ):
        return Dim(1.0, (len_symbol(node.args[0]) or UNKNOWN,))
    return Dim(1.0, (UNKNOWN,))


def allocation(
    call: ast.Call, len_symbol: Callable = _len_symbol
) -> tuple[str, tuple[Dim, ...], str | None] | None:
    """``(constructor, symbolic shape, dtype)`` of an ``np.zeros`` /
    ``empty`` / ``ones`` / ``full`` / ``eye`` / ``identity`` call."""
    fn = np_attr(call.func, _ALLOC_FUNCS)
    if fn is None or not call.args:
        return None
    shape_arg = call.args[0]
    if fn in ("eye", "identity"):
        shape = (dim(shape_arg, len_symbol),) * 2
    elif isinstance(shape_arg, (ast.Tuple, ast.List)):
        shape = tuple(dim(el, len_symbol) for el in shape_arg.elts)
    else:
        shape = (dim(shape_arg, len_symbol),)
    return fn, shape, dtype_of(_kwarg(call, "dtype"))


@dataclass
class _ScopeInterpreter:
    """Abstract interpretation of one scope (function or module body)."""

    filename: str
    findings: list[Finding]
    budget: MemoryBudget
    sanctioned: bool
    env: dict[str, ArrayInfo] = field(default_factory=dict)

    def _emit(self, rule_id: str, lineno: int, message: str, **context: object) -> None:
        self.findings.append(finding(rule_id, self.filename, lineno, message, **context))

    def _record_allocation(
        self,
        lineno: int,
        shape: tuple[Dim, ...],
        dtype: str | None,
        what: str,
    ) -> None:
        """SHAPE102: evaluate the allocation at reference scale."""
        total = Dim(float(itemsize(dtype)))
        for d in shape:
            total = total * d
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

        found = allocation(call)
        if found is not None:
            fn, shape, dtype = found
            self._record_allocation(lineno, shape, dtype, f"np.{fn} allocation")
            return ArrayInfo(shape=shape, dtype=dtype or "float64")

        if np_attr(func, ("arange",)) is not None and call.args:
            d = dim(call.args[-1] if len(call.args) <= 1 else call.args[1])
            dtype = dtype_of(_kwarg(call, "dtype"))
            return ArrayInfo(shape=(d,), dtype=dtype)

        if np_attr(func, ("kron",)) is not None and len(call.args) == 2:
            left, right = call.args
            if not self.sanctioned and isinstance(left, ast.Call) and (
                np_attr(left.func, ("eye", "identity")) is not None
            ):
                self._emit(
                    "SHAPE101",
                    lineno,
                    "dense materialization of I ⊗ X via np.kron(np.eye(p), "
                    "X): ≈ p³ blow-up — use the sparse "
                    "repro.linalg.kron.identity_kron instead",
                    pattern="np.kron(np.eye, .)",
                )
            linfo, rinfo = self._eval_expr(left), self._eval_expr(right)
            if (
                linfo and rinfo and linfo.shape and rinfo.shape
                and len(linfo.shape) == len(rinfo.shape) == 2
            ):
                shape = tuple(a * b for a, b in zip(linfo.shape, rinfo.shape))
                self._record_allocation(
                    lineno, shape, rinfo.dtype, "np.kron materialization"
                )
                return ArrayInfo(shape=shape, dtype=rinfo.dtype)
            return ArrayInfo()

        # identity_kron(...): a lifted object.
        callee = terminal(func)
        if callee == "identity_kron":
            sparse_kw = _kwarg(call, "sparse")
            if (
                isinstance(sparse_kw, ast.Constant)
                and sparse_kw.value is False
                and not self.sanctioned
            ):
                self._emit(
                    "SHAPE101",
                    lineno,
                    "identity_kron(..., sparse=False) materializes the "
                    "dense lifted design (≈ p³): keep the sparse default",
                    pattern="identity_kron(sparse=False)",
                )
            return ArrayInfo(lifted=True)

        if np_attr(func, ("asarray", "ascontiguousarray", "array")) and call.args:
            inner = self._eval_expr(call.args[0])
            dtype = dtype_of(_kwarg(call, "dtype"))
            if inner is not None:
                return ArrayInfo(inner.shape, dtype or inner.dtype, inner.lifted)
            return ArrayInfo(dtype=dtype)

        # x.astype(dt): dtype change, shape preserved.
        if isinstance(func, ast.Attribute) and func.attr == "astype" and call.args:
            inner = self._eval_expr(func.value)
            dtype = dtype_of(call.args[0])
            if inner is not None:
                return ArrayInfo(inner.shape, dtype, inner.lifted)
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
                return ArrayInfo(tuple(reversed(inner.shape)), inner.dtype)
            return None
        if not isinstance(node, ast.BinOp):
            return None
        left, right = self._eval_expr(node.left), self._eval_expr(node.right)
        self._check_mixed_dtype(node, left, right)
        if left is None or left.shape is None:
            return None
        if not isinstance(node.op, ast.MatMult):
            return ArrayInfo(left.shape, left.dtype)
        if right is not None and right.shape is not None and (
            len(left.shape) == len(right.shape) == 2
        ):
            dtype = left.dtype if left.dtype == right.dtype else None
            return ArrayInfo((left.shape[0], right.shape[1]), dtype)
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
        for child in ast.iter_child_nodes(stmt):  # for/if/while/with bodies
            if isinstance(child, ast.stmt):
                self._stmt(child)

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
            if src is not None:
                existing = self.env.get(src) or ArrayInfo()
                self.env[src] = ArrayInfo(
                    tuple(
                        Dim(1.0, (el.id if isinstance(el, ast.Name) else UNKNOWN,))
                        for el in target.elts
                    ),
                    existing.dtype,
                    existing.lifted,
                )
            return
        # Parallel assignment of calls: evaluate for side effects.
        if isinstance(target, (ast.Tuple, ast.List)):
            self._eval_expr(value)
            return
        info = self._eval_expr(value)
        key = dotted(target)
        if key is not None and info is not None:
            self.env[key] = info
        elif key is not None:
            self.env.pop(key, None)  # rebound to something unknown


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
        in_sanctioned = mod.path.replace(os.sep, "/").endswith(sanctioned)
        raw: list[Finding] = []
        for body in scope_bodies(mod.tree):
            interp = _ScopeInterpreter(mod.path, raw, budget, in_sanctioned)
            interp.run(body)
        # One finding per (rule, line, message): the expression evaluator
        # may visit a call twice (as a value, then inside a binop).
        unique: dict[tuple[str, int, str], Finding] = {}
        for f in raw:
            unique.setdefault((f.rule, f.line, f.message), f)
        findings.extend(unique.values())
    return index.suppress(findings, ("SHAPE",))


def default_shape_paths() -> list[str]:
    """The tree ``repro check shapes`` covers by default: the numeric
    kernels (``repro.linalg``) and the data-distribution layer
    (``repro.distribution``) — the two subsystems the Kronecker lifting
    flows through."""
    here = package_root()
    return [os.path.join(here, "linalg"), os.path.join(here, "distribution")]
