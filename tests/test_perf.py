"""Tests for flop accounting, roofline model and breakdown reports."""

import pytest
from hypothesis import given, strategies as st

from repro.perf import (
    BreakdownRow,
    RooflinePoint,
    charge_cholesky,
    charge_gemm,
    charge_gemv,
    charge_trsv,
    cholesky_flops,
    classify,
    format_breakdown_table,
    gemm_flops,
    gemv_flops,
    roofline_attainable,
    trsv_flops,
)
from repro.perf.roofline import paper_kernel_points, KNL_PEAK_GFLOPS
from repro.simmpi import CORI_KNL, RankClock, TimeCategory


class TestFlopCounts:
    def test_standard_counts(self):
        assert gemm_flops(2, 3, 4) == 48
        assert gemv_flops(5, 6) == 60
        assert cholesky_flops(6) == pytest.approx(72)
        assert trsv_flops(7) == 49

    @given(m=st.integers(0, 100), n=st.integers(0, 100), k=st.integers(0, 100))
    def test_gemm_nonnegative_and_symmetric_in_mn(self, m, n, k):
        assert gemm_flops(m, n, k) == gemm_flops(n, m, k) >= 0

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            gemm_flops(-1, 2, 3)
        with pytest.raises(ValueError):
            trsv_flops(-1)


class TestCharging:
    def test_gemm_charge_uses_machine_rate(self):
        clock = RankClock()
        secs = charge_gemm(clock, CORI_KNL, 100, 100, 100)
        assert secs == pytest.approx(2e6 / (30.83e9))
        assert clock.breakdown[TimeCategory.COMPUTE] == pytest.approx(secs)

    def test_trsv_much_slower_than_gemm_per_flop(self):
        c1, c2 = RankClock(), RankClock()
        t_gemm = charge_gemm(c1, CORI_KNL, 100, 1, 100)  # 2e4 flops
        t_trsv = charge_trsv(c2, CORI_KNL, 141)  # ~2e4 flops
        assert t_trsv > 100 * t_gemm  # 30.83 vs 0.011 GFLOPS

    def test_all_helpers_accumulate(self):
        clock = RankClock()
        charge_gemv(clock, CORI_KNL, 10, 10)
        charge_cholesky(clock, CORI_KNL, 10)
        charge_trsv(clock, CORI_KNL, 10)
        assert clock.breakdown[TimeCategory.COMPUTE] > 0
        assert clock.now == clock.breakdown[TimeCategory.COMPUTE]


class TestRoofline:
    def test_attainable_two_segments(self):
        # Memory-bound region: roof = AI * BW.
        assert roofline_attainable(0.1, mem_bw_gbs=90.0) == pytest.approx(9.0)
        # Compute-bound region: capped at peak.
        assert roofline_attainable(1e4) == KNL_PEAK_GFLOPS

    def test_paper_kernels_all_memory_bound(self):
        """The paper's Advisor analysis found every kernel DRAM-bound."""
        for pt in paper_kernel_points():
            assert classify(pt) == "memory-bound", pt.kernel

    def test_paper_kernel_rates(self):
        pts = {p.kernel: p for p in paper_kernel_points()}
        assert pts["uoi_lasso/gemm"].gflops == 30.83
        assert pts["uoi_lasso/gemm"].intensity == 3.59
        assert pts["uoi_var/sparse_gemv"].gflops == 2.08

    def test_achieved_below_roof(self):
        """Measured GFLOPS never exceed the attainable roof."""
        for pt in paper_kernel_points():
            assert pt.gflops <= roofline_attainable(pt.intensity) * 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            RooflinePoint("x", -1.0, 0.5)
        with pytest.raises(ValueError):
            roofline_attainable(-0.1)


class TestBreakdownReport:
    def test_total_and_get(self):
        row = BreakdownRow("cfg", {"computation": 2.0, "communication": 1.0})
        assert row.total == 3.0
        assert row.get("distribution") == 0.0

    def test_table_renders_all_rows(self):
        rows = [
            BreakdownRow("a", {"computation": 1.0}),
            BreakdownRow("b", {"communication": 2.0}, extra={"note": "hi"}),
        ]
        text = format_breakdown_table(rows, title="T")
        assert text.startswith("T\n")
        assert "a" in text and "b" in text and "note" in text and "hi" in text
        assert "total (s)" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            format_breakdown_table([])
