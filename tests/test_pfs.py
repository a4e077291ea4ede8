"""Tests for the simulated Lustre filesystem and HDF5-like layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pfs import (
    Hyperslab,
    SimH5File,
    effective_stripes,
    parallel_read_time,
    randomized_shuffle_time,
    serial_chunked_read_time,
)
from repro.pfs.lustre import conventional_distribution_time
from repro.simmpi import CORI_KNL, LAPTOP, RankClock, TimeCategory, run_spmd


class TestHyperslab:
    def test_slices(self):
        slab = Hyperslab((2, 0), (3, 4))
        assert slab.slices() == (slice(2, 5), slice(0, 4))
        assert slab.nelems() == 12

    def test_rows_helper(self):
        slab = Hyperslab.rows(5, 10, 3)
        assert slab.start == (5, 0)
        assert slab.count == (10, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            Hyperslab((0,), (1, 2))
        with pytest.raises(ValueError, match="negative"):
            Hyperslab((-1, 0), (2, 2))

    @given(
        start=st.integers(0, 20),
        count=st.integers(0, 20),
        ncols=st.integers(1, 8),
    )
    def test_select_matches_numpy_slicing(self, start, count, ncols):
        data = np.arange(40 * ncols, dtype=float).reshape(40, ncols)
        file = SimH5File("/t.h5")
        ds = file.create_dataset("d", data)
        if start + count > 40:
            with pytest.raises(ValueError, match="overflows"):
                ds.select(Hyperslab.rows(start, count, ncols))
        else:
            out = ds.select(Hyperslab.rows(start, count, ncols))
            np.testing.assert_array_equal(out, data[start : start + count])


class TestSimH5File:
    def test_duplicate_dataset_rejected(self):
        f = SimH5File("/a.h5")
        f.create_dataset("x", np.ones((2, 2)))
        with pytest.raises(ValueError, match="already exists"):
            f.create_dataset("x", np.zeros((2, 2)))

    def test_missing_dataset(self):
        with pytest.raises(KeyError, match="no dataset"):
            SimH5File("/a.h5").dataset("nope")

    def test_contains_and_nbytes(self):
        f = SimH5File("/a.h5")
        f.create_dataset("x", np.ones((4, 2)))
        assert "x" in f and "y" not in f
        assert f.nbytes == 64

    def test_serial_read_counts_reopens_and_charges(self):
        f = SimH5File("/a.h5")
        f.create_dataset("x", np.arange(20.0).reshape(10, 2))
        clock = RankClock()
        out = f.read_serial("x", Hyperslab.rows(2, 3, 2), clock=clock, machine=LAPTOP)
        np.testing.assert_array_equal(out, np.arange(20.0).reshape(10, 2)[2:5])
        assert f.open_count == 1
        assert clock.breakdown[TimeCategory.DATA_IO] > 0
        f.read_serial("x", Hyperslab.rows(0, 1, 2), clock=clock, machine=LAPTOP)
        assert f.open_count == 2

    def test_serial_read_requires_machine_with_clock(self):
        f = SimH5File("/a.h5")
        f.create_dataset("x", np.ones((2, 2)))
        with pytest.raises(ValueError, match="machine"):
            f.read_serial("x", Hyperslab.rows(0, 1, 2), clock=RankClock())

    def test_parallel_read_collective(self):
        data = np.arange(24.0).reshape(8, 3)
        f = SimH5File("/p.h5")
        f.create_dataset("x", data)

        def prog(comm):
            rows = 8 // comm.size
            slab = Hyperslab.rows(comm.rank * rows, rows, 3)
            out = f.read_parallel(comm, "x", slab)
            return out, comm.clock.breakdown[TimeCategory.DATA_IO]

        res = run_spmd(4, prog, machine=LAPTOP)
        got = np.concatenate([v[0] for v in res.values])
        np.testing.assert_array_equal(got, data)
        assert all(v[1] > 0 for v in res.values)


class TestLustreCostModel:
    def test_striping_policy(self):
        assert effective_stripes(CORI_KNL, 16 * 1024**3) == 1
        assert effective_stripes(CORI_KNL, 128 * 1024**3) == CORI_KNL.ost_count

    def test_small_files_unstriped_read_slower_than_big_striped(self):
        """The paper's 16 GB oddity: unstriped 16 GB reads slower than 128 GB."""
        t16 = parallel_read_time(CORI_KNL, 16 * 1024**3, 68)
        t128 = parallel_read_time(CORI_KNL, 128 * 1024**3, 4352)
        assert t16 > t128

    def test_table2_calibration_within_factor_two(self):
        """Modeled Table II columns land within 2x of the paper's rows."""
        paper = {
            16: (204.71, 11.3191),
            128: (1200.81, 0.52),
            256: (2204.52, 1.46),
            512: (5323.486, 8.043),
            1024: (11732.48, 8.781),
        }
        cores = {16: 68, 128: 4352, 256: 8704, 512: 17408, 1024: 34816}
        for gb, (conv_read, rand_read) in paper.items():
            nbytes = gb * 1024**3
            m_conv = serial_chunked_read_time(CORI_KNL, nbytes)
            m_rand = parallel_read_time(CORI_KNL, nbytes, cores[gb])
            assert conv_read / 2 <= m_conv <= conv_read * 2, f"conv {gb}GB"
            assert rand_read / 2.6 <= m_rand <= rand_read * 2.6, f"rand {gb}GB"

    def test_conventional_read_beyond_1tb_exceeds_5_hours(self):
        assert serial_chunked_read_time(CORI_KNL, 2048 * 1024**3) > 5 * 3600

    def test_randomized_read_beyond_1tb_under_100_seconds(self):
        assert parallel_read_time(CORI_KNL, 2048 * 1024**3, 69632) < 100

    @given(gb=st.floats(1, 8192), cores=st.integers(1, 300_000))
    @settings(max_examples=40, deadline=None)
    def test_randomized_always_beats_conventional_at_scale(self, gb, cores):
        nbytes = int(gb * 1024**3)
        conv = serial_chunked_read_time(CORI_KNL, nbytes) + conventional_distribution_time(
            CORI_KNL, nbytes, cores
        )
        rand = parallel_read_time(CORI_KNL, nbytes, cores) + randomized_shuffle_time(
            CORI_KNL, nbytes, cores
        )
        assert rand < conv

    def test_shuffle_flat_along_weak_scaling_diagonal(self):
        """Constant bytes-per-core -> near-constant Tier-2 shuffle time
        (Table II's flat randomized-distribution column)."""
        times = [
            randomized_shuffle_time(CORI_KNL, gb * 1024**3, int(4352 * gb / 128))
            for gb in (128, 256, 512, 1024)
        ]
        assert max(times) / min(times) < 1.2

    def test_intranode_shuffle_uses_memory_bandwidth(self):
        on_node = randomized_shuffle_time(CORI_KNL, 10**9, 68)
        off_node = randomized_shuffle_time(CORI_KNL, 10**9, 69)
        assert on_node < off_node

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_read_time(CORI_KNL, -1, 4)
        with pytest.raises(ValueError):
            parallel_read_time(CORI_KNL, 10, 0)
        with pytest.raises(ValueError):
            serial_chunked_read_time(CORI_KNL, -5)
        with pytest.raises(ValueError):
            randomized_shuffle_time(CORI_KNL, 10, 0)
        assert serial_chunked_read_time(CORI_KNL, 0) == 0.0
        assert conventional_distribution_time(CORI_KNL, 10**9, 1) == 0.0
