"""Tests for VAR order selection and graph-comparison metrics."""

import numpy as np
import pytest

from repro.datasets import random_sparse_coefs
from repro.metrics import edge_jaccard
from repro.var import (
    OrderSelection,
    VARProcess,
    information_criterion,
    select_order,
)


class TestOrderSelection:
    @pytest.mark.parametrize("true_d", [1, 2, 3])
    def test_recovers_true_order(self, true_d):
        rng = np.random.default_rng(true_d)
        coefs = random_sparse_coefs(
            4, true_d, density=0.2, target_radius=0.75, rng=rng
        )
        series = VARProcess(coefs).simulate(1500, rng)
        sel = select_order(series, max_order=5)
        assert sel.order == true_d
        assert isinstance(sel, OrderSelection)
        assert set(sel.scores) == {1, 2, 3, 4, 5}
        assert sel.scores[sel.order] == min(sel.scores.values())

    def test_bic_sparser_than_aic(self):
        """BIC penalizes harder, so it never picks a higher order."""
        rng = np.random.default_rng(9)
        coefs = random_sparse_coefs(3, 2, density=0.3, rng=rng)
        series = VARProcess(coefs).simulate(400, rng)
        bic = select_order(series, max_order=4, criterion="bic")
        aic = select_order(series, max_order=4, criterion="aic")
        assert bic.order <= aic.order

    def test_white_noise_prefers_smallest_order(self):
        rng = np.random.default_rng(10)
        series = rng.standard_normal((800, 3))
        sel = select_order(series, max_order=4, criterion="bic")
        assert sel.order == 1  # nothing to gain from more lags

    def test_information_criterion_penalty_ordering(self):
        rng = np.random.default_rng(11)
        series = VARProcess([np.eye(3) * 0.5]).simulate(500, rng)
        aic = information_criterion(series, 2, criterion="aic")
        bic = information_criterion(series, 2, criterion="bic")
        assert bic > aic  # log(T) > 2 for T > 7

    def test_validation(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal((50, 2))
        with pytest.raises(ValueError, match="criterion"):
            information_criterion(series, 1, criterion="magic")
        with pytest.raises(ValueError, match="max_order"):
            select_order(series, max_order=0)
        with pytest.raises(ValueError, match="too short"):
            select_order(series[:4], max_order=5)
        with pytest.raises(ValueError, match="2-D"):
            select_order(series[:, 0], max_order=2)


class TestGraphMetrics:
    def test_jaccard_identical(self):
        W = np.array([[0, 1.0], [0.5, 0]])
        assert edge_jaccard(W, W) == 1.0

    def test_jaccard_disjoint(self):
        a = np.array([[0, 1.0], [0, 0]])
        b = np.array([[0, 0], [1.0, 0]])
        assert edge_jaccard(a, b) == 0.0

    def test_jaccard_partial(self):
        a = np.zeros((3, 3)); a[0, 1] = a[1, 2] = 1.0
        b = np.zeros((3, 3)); b[0, 1] = b[2, 0] = 1.0
        assert edge_jaccard(a, b) == pytest.approx(1 / 3)

    def test_jaccard_empty_graphs(self):
        z = np.zeros((4, 4))
        assert edge_jaccard(z, z) == 1.0

    def test_jaccard_diagonal_excluded_by_default(self):
        a = np.eye(3)
        b = np.zeros((3, 3))
        assert edge_jaccard(a, b) == 1.0  # only self-loops differ
        assert edge_jaccard(a, b, include_diagonal=True) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            edge_jaccard(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            edge_jaccard(np.ones((2, 2)), np.ones((3, 3)))
