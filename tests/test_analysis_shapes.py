"""Tests for the SHAPE symbolic shape/memory pass (``repro.analysis.shapes``)."""

import os
import textwrap

from repro.analysis.shapes import (
    DEFAULT_BINDINGS,
    Dim,
    MemoryBudget,
    default_shape_paths,
    shape_check_index,
)
from repro.analysis.source import SourceIndex

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "shape_dense_kron.py"
)


def check(code: str, filename: str = "prog.py", **kwargs):
    index = SourceIndex.from_source(textwrap.dedent(code), filename)
    return shape_check_index(index, **kwargs)


class TestDimAlgebra:
    def test_monomial_product(self):
        d = Dim(2.0, ("n",)) * Dim(3.0, ("p",))
        assert d.coeff == 6.0
        assert d.syms == ("n", "p")

    def test_evaluate_uses_reference_bindings(self):
        d = Dim(1.0, ("n", "p"))
        assert d.evaluate(DEFAULT_BINDINGS) == 100_000.0 * 1_000.0

    def test_evaluate_case_insensitive_with_default(self):
        assert Dim(1.0, ("N",)).evaluate(DEFAULT_BINDINGS) == 100_000.0
        # Unknown symbols stay deliberately small: no false positives.
        assert Dim(1.0, ("zz",)).evaluate(DEFAULT_BINDINGS) == 64.0

    def test_str_rendering(self):
        assert str(Dim(1.0, ("n", "p"))) == "n*p"
        assert str(Dim(3.0, ("p",))) == "3*p"
        assert str(Dim(7.0)) == "7"


class TestDenseKron:
    def test_np_kron_of_eye_flagged(self):
        findings = check(
            """\
            import numpy as np

            def lift(X, p):
                return np.kron(np.eye(p), X)
            """
        )
        assert [f.rule for f in findings] == ["SHAPE101"]
        assert findings[0].line == 4

    def test_identity_kron_dense_flagged(self):
        findings = check(
            """\
            from repro.linalg import identity_kron

            def lift(X, p):
                return identity_kron(X, p, sparse=False)
            """
        )
        assert [f.rule for f in findings] == ["SHAPE101"]

    def test_identity_kron_sparse_default_clean(self):
        findings = check(
            """\
            from repro.linalg import identity_kron

            def lift(X, p):
                return identity_kron(X, p)
            """
        )
        assert findings == []

    def test_toarray_on_lifted_flagged(self):
        findings = check(
            """\
            from repro.linalg import identity_kron

            def lift(X, p):
                op = identity_kron(X, p)
                return op.toarray()
            """
        )
        assert [f.rule for f in findings] == ["SHAPE101"]
        assert findings[0].line == 5

    def test_sanctioned_module_exempt(self):
        code = """\
        import numpy as np

        def lift(X, p):
            return np.kron(np.eye(p), X)
        """
        findings = check(code, filename="src/repro/linalg/kron.py")
        assert findings == []

    def test_suppression(self):
        findings = check(
            """\
            import numpy as np

            def lift(X, p):
                return np.kron(np.eye(p), X)  # repro: ignore[SHAPE101]
            """
        )
        assert findings == []


class TestMemoryBudget:
    def test_paper_scale_allocation_flagged(self):
        findings = check(
            """\
            import numpy as np

            def work(n, p):
                buf = np.zeros((n * p, p))
                return buf
            """
        )
        assert [f.rule for f in findings] == ["SHAPE102"]
        assert findings[0].line == 4
        assert findings[0].context["bytes"] == 8.0 * 100_000 * 1_000 * 1_000

    def test_shape_binding_from_unpacking(self):
        # `n, p = X.shape` seeds the dims the allocation is sized by.
        findings = check(
            """\
            import numpy as np

            def work(X):
                n, p = X.shape
                return np.empty((n, p * p))
            """
        )
        assert [f.rule for f in findings] == ["SHAPE102"]

    def test_unknown_dims_never_flagged(self):
        findings = check(
            """\
            import numpy as np

            def work(rows, cols):
                return np.zeros((rows, cols))
            """
        )
        assert findings == []

    def test_float32_halves_the_bill(self):
        code = """\
        import numpy as np

        def work(n, p):
            return np.zeros((n, p), dtype=np.float32)
        """
        # n x p float32 is 0.4 GB: over a tiny budget, under a big one.
        tight = MemoryBudget(per_rank_bytes=2**20)
        roomy = MemoryBudget(per_rank_bytes=2**30)
        assert [f.rule for f in check(code, budget=tight)] == ["SHAPE102"]
        assert check(code, budget=roomy) == []

    def test_eye_of_paper_scale_dim_flagged(self):
        findings = check(
            """\
            import numpy as np

            def work(n):
                return np.eye(n)
            """
        )
        assert [f.rule for f in findings] == ["SHAPE102"]


class TestDtypeDrift:
    def test_mixed_dtype_matmul_flagged(self):
        findings = check(
            """\
            import numpy as np

            def work(m, k):
                a = np.zeros((m, k), dtype=np.float32)
                b = np.zeros((k, m), dtype=np.float64)
                return a @ b
            """
        )
        assert [f.rule for f in findings] == ["SHAPE103"]
        assert findings[0].line == 6

    def test_matching_dtypes_clean(self):
        findings = check(
            """\
            import numpy as np

            def work(m, k):
                a = np.zeros((m, k), dtype=np.float32)
                b = np.zeros((k, m), dtype=np.float32)
                return a @ b
            """
        )
        assert findings == []

    def test_float32_across_solver_boundary_flagged(self):
        findings = check(
            """\
            import numpy as np
            from repro.linalg import lasso_cd

            def work(X, y, lam):
                Xs = np.asarray(X, dtype=np.float32)
                return lasso_cd(Xs, y, lam)
            """
        )
        assert [f.rule for f in findings] == ["SHAPE103"]
        assert findings[0].context["boundary"] == "lasso_cd"

    def test_astype_tracks_dtype(self):
        findings = check(
            """\
            import numpy as np
            from repro.linalg import ols_on_support

            def work(X, y, support):
                Xs = X.astype(np.float32)
                Xd = Xs.astype(np.float64)
                return ols_on_support(Xd, y, support)
            """
        )
        assert findings == []


class TestSeededFixture:
    def test_fixture_yields_exact_rules_and_lines(self):
        findings = shape_check_index(SourceIndex.from_paths([FIXTURE]))
        assert [(f.rule, f.line) for f in findings] == [
            ("SHAPE101", 16),
            ("SHAPE102", 21),
            ("SHAPE103", 27),
        ]
        assert all(f.file == FIXTURE for f in findings)


class TestRepoGate:
    def test_numeric_subsystems_check_clean(self):
        # The acceptance gate: repro.linalg + repro.distribution carry
        # zero SHAPE findings at the default 4 GiB budget.
        index = SourceIndex.from_paths(default_shape_paths())
        assert shape_check_index(index) == []
