"""Tests for the intersection (selection) and union (estimation) stages."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.estimation import (
    best_support_per_bootstrap,
    prediction_loss,
    union_average,
)
from repro.core.selection import intersect_supports, support_family
from repro.linalg.ols import ols_family_columns

bool_masks = hnp.arrays(np.bool_, st.tuples(st.integers(1, 8), st.integers(1, 10)))


class TestIntersectSupports:
    @given(masks=bool_masks)
    def test_matches_logical_and(self, masks):
        np.testing.assert_array_equal(
            intersect_supports(masks), np.logical_and.reduce(masks, axis=0)
        )

    @given(masks=bool_masks)
    def test_order_invariant(self, masks):
        perm = np.random.default_rng(0).permutation(masks.shape[0])
        np.testing.assert_array_equal(
            intersect_supports(masks), intersect_supports(masks[perm])
        )

    @given(masks=bool_masks)
    def test_monotone_more_bootstraps_never_grow_support(self, masks):
        """Adding a bootstrap can only shrink the intersection."""
        full = intersect_supports(masks)
        partial = intersect_supports(masks[:-1]) if masks.shape[0] > 1 else masks[0]
        assert np.all(full <= partial)

    def test_three_dimensional(self):
        masks = np.ones((3, 2, 4), dtype=bool)
        masks[1, 0, 2] = False
        out = intersect_supports(masks)
        assert out.shape == (2, 4)
        assert not out[0, 2] and out[1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            intersect_supports(np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            intersect_supports(np.ones((0, 2), dtype=bool))


class TestSupportFamily:
    def test_from_betas(self):
        betas = np.zeros((2, 2, 3))
        betas[0, 0] = [1.0, 0.0, 2.0]
        betas[1, 0] = [3.0, 1.0, 4.0]
        betas[:, 1] = 1.0
        fam = support_family(betas)
        np.testing.assert_array_equal(fam[0], [True, False, True])
        np.testing.assert_array_equal(fam[1], [True, True, True])

    def test_validation(self):
        with pytest.raises(ValueError):
            support_family(np.zeros((2, 3)))


class TestEstimationStage:
    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 6))
        beta = np.array([2.0, 0.0, -1.5, 0.0, 0.0, 1.0])
        y = X @ beta + 0.05 * rng.standard_normal(60)
        return X, y, beta

    def test_prediction_loss_zero_for_perfect_fit(self, problem):
        X, y, beta = problem
        assert prediction_loss(X, X @ beta, beta) == 0.0

    def test_ols_family_respects_masks(self, problem):
        X, y, _ = problem
        family = np.array(
            [
                [True, False, True, False, False, True],
                [True, True, True, True, True, True],
                [False, False, False, False, False, False],
            ]
        )
        est = ols_family_columns(X, y[:, None], family)
        assert est.shape == (3, 6)
        assert np.all(est[0][~family[0]] == 0.0)
        np.testing.assert_array_equal(est[2], np.zeros(6))

    def test_true_support_wins_on_heldout(self, problem):
        X, y, beta = problem
        true_mask = beta != 0
        family = np.stack([true_mask, np.ones(6, dtype=bool)])
        est_tr = ols_family_columns(X[:40], y[:40, None], family)
        losses = np.array(
            [[prediction_loss(X[40:], y[40:], est_tr[j]) for j in range(2)]]
        )
        winners = best_support_per_bootstrap(losses)
        # The true sparse model generalizes at least as well as the full
        # model up to noise; either may win narrowly, but the losses must
        # be close and the winner's loss minimal.
        assert losses[0, winners[0]] == losses.min()

    def test_best_support_tie_breaks_to_sparser(self):
        losses = np.array([[1.0, 1.0, 2.0], [3.0, 0.5, 0.5]])
        np.testing.assert_array_equal(
            best_support_per_bootstrap(losses), [0, 1]
        )

    def test_union_average(self):
        winners = np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        np.testing.assert_array_equal(union_average(winners), [1.0, 2.0, 0.0])

    def test_union_merges_supports(self):
        """A feature in any winner survives — the 'union' of eq. 4."""
        winners = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.all(union_average(winners) != 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            best_support_per_bootstrap(np.ones(3))
        with pytest.raises(ValueError):
            union_average(np.ones((0, 3)))
        with pytest.raises(ValueError):
            union_average(np.ones(3))
        with pytest.raises(ValueError):
            ols_family_columns(
                np.ones((4, 2)), np.ones((4, 1)), np.ones(2, dtype=bool)
            )


class TestSoftIntersection:
    def test_frac_one_is_strict_intersection(self):
        rng = np.random.default_rng(0)
        masks = rng.random((6, 10)) < 0.5
        np.testing.assert_array_equal(
            intersect_supports(masks, frac=1.0),
            np.logical_and.reduce(masks, axis=0),
        )

    def test_threshold_counting(self):
        masks = np.array(
            [[True, True, False], [True, False, False], [True, True, False]]
        )
        # frac=0.6 of B=3 -> threshold ceil(1.8)=2 appearances.
        np.testing.assert_array_equal(
            intersect_supports(masks, frac=0.6), [True, True, False]
        )
        # frac just above 2/3 -> threshold 3.
        np.testing.assert_array_equal(
            intersect_supports(masks, frac=0.9), [True, False, False]
        )

    def test_monotone_in_frac(self):
        """Lower frac never removes features a higher frac kept."""
        rng = np.random.default_rng(1)
        masks = rng.random((8, 20)) < 0.6
        prev = intersect_supports(masks, frac=1.0)
        for frac in (0.9, 0.7, 0.5, 0.3):
            cur = intersect_supports(masks, frac=frac)
            assert np.all(prev <= cur)
            prev = cur

    def test_tiny_frac_is_union(self):
        rng = np.random.default_rng(2)
        masks = rng.random((5, 12)) < 0.4
        out = intersect_supports(masks, frac=1e-9)
        np.testing.assert_array_equal(out, masks.any(axis=0))

    def test_frac_validation(self):
        masks = np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="frac"):
            intersect_supports(masks, frac=0.0)
        with pytest.raises(ValueError, match="frac"):
            intersect_supports(masks, frac=1.5)

    def test_uoi_lasso_soft_intersection_keeps_more(self):
        from repro.core import UoILasso
        from repro.datasets import make_sparse_regression

        ds = make_sparse_regression(
            100, 15, n_informative=3, snr=3.0, rng=np.random.default_rng(5)
        )
        kwargs = dict(
            n_lambdas=8,
            n_selection_bootstraps=10,
            n_estimation_bootstraps=4,
            solver="cd",
            random_state=5,
        )
        strict = UoILasso(**kwargs, intersection_frac=1.0).fit(ds.X, ds.y)
        soft = UoILasso(**kwargs, intersection_frac=0.7).fit(ds.X, ds.y)
        # The soft family is a superset per λ.
        assert np.all(strict.supports_ <= soft.supports_)
