"""Tests for the vec / I ⊗ X machinery (eq. 9)."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import identity_kron, kron_lasso_columnwise, lasso_cd, vec
from repro.linalg.kron import kron_sparsity

matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestVec:
    def test_column_stacking_order(self):
        Y = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(Y), [1.0, 2.0, 3.0, 4.0])

    @given(Y=matrices)
    def test_matches_numpy_fortran_flatten(self, Y):
        np.testing.assert_array_equal(vec(Y), Y.flatten(order="F"))

    def test_vec_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            vec(np.ones(3))


class TestIdentityKron:
    def test_matches_numpy_kron_dense(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 2))
        np.testing.assert_allclose(
            identity_kron(X, 4, sparse=False), np.kron(np.eye(4), X)
        )

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 2))
        sp = identity_kron(X, 3, sparse=True)
        assert scipy.sparse.issparse(sp)
        np.testing.assert_allclose(sp.toarray(), identity_kron(X, 3, sparse=False))

    def test_sparsity_law(self):
        """Paper: sparsity of the lifted design is 1 - 1/p."""
        X = np.ones((4, 3))
        for p in (2, 5, 95):
            lifted = identity_kron(X, p, sparse=True)
            measured = 1.0 - lifted.nnz / (lifted.shape[0] * lifted.shape[1])
            assert measured == pytest.approx(kron_sparsity(p))

    def test_paper_sparsity_example(self):
        # "if a data set has 95 features, the resultant matrix ... has a
        # sparsity of 98.94%"
        assert kron_sparsity(95) == pytest.approx(0.9894, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="p"):
            identity_kron(np.ones((2, 2)), 0)


class TestColumnwiseEquivalence:
    def test_columnwise_equals_lifted_lasso(self):
        """The block-diagonal LASSO decomposes exactly per column."""
        rng = np.random.default_rng(5)
        m, k, p = 30, 4, 3
        X = rng.standard_normal((m, k))
        Y = rng.standard_normal((m, p))
        lam = 2.0
        by_columns = kron_lasso_columnwise(X, Y, lam, lasso_cd)
        lifted = identity_kron(X, p, sparse=False)
        direct = lasso_cd(lifted, vec(Y), lam, max_iter=5000)
        np.testing.assert_allclose(by_columns, direct, atol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="incompatible"):
            kron_lasso_columnwise(np.ones((4, 2)), np.ones((5, 2)), 1.0, lasso_cd)


class TestDtypePreservation:
    """Regression: float32 input must not silently upcast mid-pipeline.

    The lifted design is ~p^3 the data size, so a silent float64
    promotion doubles peak memory exactly where it hurts most.
    """

    def test_identity_kron_dense_preserves_float32(self):
        X = np.ones((3, 2), dtype=np.float32)
        assert identity_kron(X, 4, sparse=False).dtype == np.float32

    def test_identity_kron_sparse_preserves_float32(self):
        X = np.ones((3, 2), dtype=np.float32)
        assert identity_kron(X, 4).dtype == np.float32

    def test_identity_kron_defaults_to_float64(self):
        assert identity_kron(np.ones((3, 2), dtype=np.int64), 2).dtype == np.float64
        assert identity_kron(np.ones((3, 2)), 2, sparse=False).dtype == np.float64

    def test_columnwise_preserves_float32(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3)).astype(np.float32)
        Y = rng.standard_normal((20, 2)).astype(np.float32)
        out = kron_lasso_columnwise(X, Y, 0.5, lasso_cd)
        assert out.dtype == np.float32

    def test_columnwise_mixed_dtypes_promote_to_float64(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 3)).astype(np.float32)
        Y = rng.standard_normal((20, 2))
        out = kron_lasso_columnwise(X, Y, 0.5, lasso_cd)
        assert out.dtype == np.float64

    def test_float32_matches_float64_solution(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 4))
        Y = rng.standard_normal((25, 3))
        full = kron_lasso_columnwise(X, Y, 1.0, lasso_cd)
        single = kron_lasso_columnwise(
            X.astype(np.float32), Y.astype(np.float32), 1.0, lasso_cd
        )
        np.testing.assert_allclose(single, full, atol=1e-3)
