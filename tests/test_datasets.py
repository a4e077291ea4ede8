"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    first_differences,
    make_sparse_regression,
    make_sparse_var,
    make_spike_counts,
    make_stock_panel,
    random_sparse_coefs,
    synthetic_tickers,
    weekly_closes,
)
from repro.datasets.regression import rows_for_gigabytes, PAPER_LASSO_FEATURES
from repro.datasets.var_synthetic import features_for_gigabytes
from repro.var import spectral_radius


class TestSparseRegression:
    def test_shapes_and_support(self):
        ds = make_sparse_regression(50, 20, n_informative=4,
                                    rng=np.random.default_rng(0))
        assert ds.X.shape == (50, 20)
        assert ds.y.shape == (50,)
        assert ds.support.sum() == 4
        np.testing.assert_array_equal(ds.support, ds.beta != 0)

    @given(snr=st.floats(0.5, 100.0), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_snr_respected(self, snr, seed):
        ds = make_sparse_regression(
            4000, 10, n_informative=3, snr=snr, rng=np.random.default_rng(seed)
        )
        signal_var = (ds.X @ ds.beta).var()
        assert signal_var / ds.noise_std**2 == pytest.approx(snr, rel=0.2)

    def test_default_informative_count(self):
        ds = make_sparse_regression(10, 100, rng=np.random.default_rng(1))
        assert ds.support.sum() == 5

    def test_signs_alternate(self):
        ds = make_sparse_regression(10, 50, n_informative=6,
                                    rng=np.random.default_rng(2))
        vals = ds.beta[ds.support]
        assert (vals > 0).any() and (vals < 0).any()

    def test_rows_for_gigabytes(self):
        # 16 GB of float64 at 20,101 features.
        n = rows_for_gigabytes(16)
        assert n * PAPER_LASSO_FEATURES * 8 == pytest.approx(16 * 1024**3, rel=1e-3)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_sparse_regression(0, 5, rng=rng)
        with pytest.raises(ValueError):
            make_sparse_regression(5, 5, snr=0, rng=rng)
        with pytest.raises(ValueError):
            make_sparse_regression(5, 5, n_informative=9, rng=rng)
        with pytest.raises(ValueError):
            rows_for_gigabytes(0)


class TestSparseVar:
    @given(seed=st.integers(0, 50), p=st.integers(2, 12), d=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_generated_process_is_stable(self, seed, p, d):
        coefs = random_sparse_coefs(p, d, rng=np.random.default_rng(seed))
        assert spectral_radius(coefs) < 1.0

    def test_target_radius_hit_var1(self):
        coefs = random_sparse_coefs(
            8, 1, target_radius=0.6, rng=np.random.default_rng(3)
        )
        assert spectral_radius(coefs) == pytest.approx(0.6, rel=1e-6)

    def test_density_controls_edges(self):
        rng = np.random.default_rng(4)
        dense = random_sparse_coefs(20, 1, density=0.5, rng=rng)
        sparse = random_sparse_coefs(20, 1, density=0.05,
                                     rng=np.random.default_rng(4))
        off = ~np.eye(20, dtype=bool)
        assert (dense[0][off] != 0).sum() > (sparse[0][off] != 0).sum()

    def test_make_sparse_var_defaults(self):
        sv = make_sparse_var(10, rng=np.random.default_rng(5))
        assert sv.series.shape == (20, 10)  # N = 2p convention
        assert sv.support.shape == (1, 10, 10)
        assert sv.process.stable()

    def test_features_for_gigabytes_hits_paper_anchors(self):
        # Paper: 128 GB -> 356 features; 8 TB -> 1,000 features.
        assert abs(features_for_gigabytes(128) - 356) <= 10
        assert abs(features_for_gigabytes(8192) - 1000) <= 30

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_sparse_coefs(0, 1, rng=rng)
        with pytest.raises(ValueError):
            random_sparse_coefs(5, 1, target_radius=1.5, rng=rng)
        with pytest.raises(ValueError):
            make_sparse_var(5, n_samples=1, rng=rng)
        with pytest.raises(ValueError):
            features_for_gigabytes(-1)


class TestStockPanel:
    def test_shapes_and_positive_prices(self):
        panel = make_stock_panel(20, 100, rng=np.random.default_rng(6))
        assert panel.prices.shape == (100, 20)
        assert np.all(panel.prices > 0)
        assert len(panel.tickers) == 20
        assert panel.lead_lag.shape == (20, 20)

    def test_lead_lag_is_sparse_off_diagonal(self):
        panel = make_stock_panel(30, 50, rng=np.random.default_rng(7))
        assert np.all(np.diag(panel.lead_lag) == 0)
        assert 0 < (panel.lead_lag != 0).sum() < 30 * 5

    def test_weekly_closes_picks_last_day(self):
        prices = np.arange(50.0).reshape(10, 5)
        # 10 days x 5 companies; 2 weeks of 5 days.
        w = weekly_closes(prices)
        np.testing.assert_array_equal(w[0], prices[4])
        np.testing.assert_array_equal(w[1], prices[9])

    def test_first_differences(self):
        s = np.array([[1.0, 2.0], [4.0, 6.0], [9.0, 12.0]])
        np.testing.assert_array_equal(
            first_differences(s), [[3.0, 4.0], [5.0, 6.0]]
        )

    def test_paper_shapes(self):
        """Fig. 11: 2 years of 50 companies -> 104 weekly closes -> 103 diffs."""
        panel = make_stock_panel(50, 520, rng=np.random.default_rng(8))
        diffs = first_differences(weekly_closes(panel.prices))
        assert diffs.shape == (103, 50)

    def test_tickers(self):
        assert synthetic_tickers(3) == ["AAPL", "MSFT", "GOOG"]
        t470 = synthetic_tickers(470)
        assert len(t470) == len(set(t470)) == 470

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_stock_panel(1, 50, rng=rng)
        with pytest.raises(ValueError):
            make_stock_panel(5, 5, rng=rng)
        with pytest.raises(ValueError):
            make_stock_panel(5, 50, lag_days=0, rng=rng)
        with pytest.raises(ValueError):
            weekly_closes(np.ones((3, 2)), days_per_week=5)
        with pytest.raises(ValueError):
            first_differences(np.ones((1, 2)))


class TestSpikeCounts:
    def test_shapes_and_nonnegative_integers(self):
        panel = make_spike_counts(12, 200, rng=np.random.default_rng(9))
        assert panel.counts.shape == (200, 12)
        assert panel.counts.dtype.kind == "i"
        assert panel.counts.min() >= 0

    def test_regions_split(self):
        panel = make_spike_counts(10, 50, rng=np.random.default_rng(10))
        assert panel.regions.count("M1") == 5
        assert panel.regions.count("S1") == 5

    def test_rates_positive_and_coupled(self):
        panel = make_spike_counts(8, 300, rng=np.random.default_rng(11))
        assert np.all(panel.rates > 0)
        assert len(panel.coefs) == 1
        assert (panel.coefs[0] != 0).any()

    def test_mean_rate_near_base(self):
        panel = make_spike_counts(
            6, 3000, base_rate=3.0, rng=np.random.default_rng(12)
        )
        assert panel.counts.mean() == pytest.approx(3.0, rel=0.5)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_spike_counts(1, 50, rng=rng)
        with pytest.raises(ValueError):
            make_spike_counts(5, 0, rng=rng)
        with pytest.raises(ValueError):
            make_spike_counts(5, 50, base_rate=0.0, rng=rng)


class TestDatasetIO:
    def test_regression_file_layout(self):
        from repro.datasets import (
            INPUT_DATASET,
            TRUTH_DATASET,
            make_regression_file,
        )

        file, ds = make_regression_file(
            40, 6, rng=np.random.default_rng(0), path="/t1.h5"
        )
        data = file.dataset(INPUT_DATASET).data
        assert data.shape == (40, 7)
        np.testing.assert_array_equal(data[:, 0], ds.y)
        np.testing.assert_array_equal(data[:, 1:], ds.X)
        np.testing.assert_array_equal(
            file.dataset(TRUTH_DATASET).data[0], ds.beta
        )

    def test_small_files_unstriped(self):
        from repro.datasets import make_regression_file

        file, _ = make_regression_file(
            20, 3, rng=np.random.default_rng(2), path="/t3.h5"
        )
        assert file.stripe_count == 1  # megabytes -> unstriped (site policy)

    def test_feeds_distributed_driver(self):
        from repro.core import UoILassoConfig
        from repro.core.parallel import distributed_uoi_lasso
        from repro.datasets import INPUT_DATASET, make_regression_file
        from repro.simmpi import LAPTOP, run_spmd

        file, ds = make_regression_file(
            60, 8, n_informative=2, rng=np.random.default_rng(3), path="/t4.h5"
        )
        cfg = UoILassoConfig(
            n_lambdas=5, n_selection_bootstraps=3, n_estimation_bootstraps=2,
            random_state=3,
        )
        res = run_spmd(
            2,
            lambda comm: distributed_uoi_lasso(comm, file, INPUT_DATASET, cfg),
            machine=LAPTOP,
        )
        assert res.values[0].coef.shape == (8,)
