"""Tests for the dynamic SPMD checkers (``repro.analysis.dynamic``).

The seeded regression fixtures required by the ``repro check`` gate:

* a rank-divergent allreduce (different reduce ops) -> ``DYN202``;
* a mismatched collective *sequence* (ranks post different operation
  kinds to one sequence point) -> ``DYN201``;
* an un-fenced put/get conflict -> ``DYN203``;
* a deadlock (one rank skips a barrier) -> ``DYN204``.

Each must be detected with the correct rule ID and attributed to the
call site in *this* file.  Finally, runs with a checker attached must
be bitwise identical to runs without one.
"""

import inspect

import numpy as np
import pytest

from repro.analysis.dynamic import CollectiveMismatchError, DynamicChecker
from repro.simmpi import MIN, SUM, SpmdError, Window, run_spmd


def _line_of(fn, needle: str) -> int:
    """Absolute line number of the first source line containing needle."""
    lines, start = inspect.getsourcelines(fn)
    for offset, line in enumerate(lines):
        if needle in line:
            return start + offset
    raise AssertionError(f"{needle!r} not found in {fn.__name__}")


class TestCollectiveSequenceMismatch:
    def test_mismatched_collective_sequence_detected(self):
        """Seeded fixture: ranks post different kinds to one seq point."""

        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.allreduce(1.0)
            else:
                comm.barrier()  # repro: ignore[SPMD001]

        checker = DynamicChecker()
        with pytest.raises(SpmdError, match="collective sequence mismatch"):
            run_spmd(2, prog, checker=checker)

        findings = checker.findings_for("DYN201")
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == "error"
        assert f.source == "dynamic"
        assert f.file.endswith("test_analysis_dynamic.py")
        assert f.line == _line_of(prog, "comm.allreduce(1.0)")
        assert f.context["kinds"] == {0: "allreduce", 1: "barrier"}

    def test_mismatch_raises_at_the_collective(self):
        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.bcast(1.0, root=0)
            else:
                comm.allgather(comm.rank)

        checker = DynamicChecker()
        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, prog, checker=checker)
        assert isinstance(excinfo.value.original, CollectiveMismatchError)

    def test_no_raise_mode_records_only(self):
        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.barrier()
            else:
                comm.ibarrier().wait()

        checker = DynamicChecker(raise_on_mismatch=False)
        run_spmd(2, prog, checker=checker)
        assert [f.rule for f in checker.findings] == ["DYN201"]


class TestCollectiveArgumentMismatch:
    def test_rank_divergent_allreduce_op_detected(self):
        """Seeded fixture: same collective, rank-dependent reduce op."""

        def prog(comm):
            op = SUM if comm.rank == 0 else MIN
            return comm.allreduce(float(comm.rank + 1), op)

        checker = DynamicChecker()
        run_spmd(2, prog, checker=checker)

        findings = checker.findings_for("DYN202")
        assert len(findings) == 1
        f = findings[0]
        assert f.file.endswith("test_analysis_dynamic.py")
        assert f.line == _line_of(prog, "comm.allreduce(float")
        assert f.context["attribute"] == "op"

    def test_rank_divergent_payload_dtype_detected(self):
        def prog(comm):
            value = np.ones(2) if comm.rank == 0 else np.ones(2, dtype=np.int64)
            return comm.allreduce(value, SUM)

        checker = DynamicChecker()
        run_spmd(2, prog, checker=checker)

        findings = checker.findings_for("DYN202")
        assert len(findings) == 1
        assert findings[0].context["attribute"] == "payload"

    def test_rank_divergent_root_detected(self):
        def prog(comm):
            return comm.bcast(comm.rank, root=comm.rank % 2)

        checker = DynamicChecker(raise_on_mismatch=False)
        try:
            run_spmd(2, prog, checker=checker)
        except SpmdError:
            # The runtime may reject the inconsistent roots outright;
            # the checker must still have recorded the divergence.
            pass
        findings = checker.findings_for("DYN202")
        assert len(findings) >= 1
        assert any(f.context["attribute"] == "root" for f in findings)

    def test_matched_collectives_clean(self):
        def prog(comm):
            comm.allreduce(np.ones(3), SUM)
            comm.bcast(1.0 if comm.rank == 0 else None, root=0)
            comm.barrier()

        checker = DynamicChecker()
        run_spmd(4, prog, checker=checker)
        assert len(checker) == 0


class TestRmaEpochRace:
    def test_unfenced_put_get_conflict_detected(self):
        """Seeded fixture: put and overlapping get, no separating fence."""

        def prog(comm):
            win = Window(comm, np.zeros(8))
            win.fence()
            if comm.rank == 0:
                win.put(1, slice(0, 4), np.ones(4))
            else:
                win.get(1, slice(2, 6))
            # no closing fence: the job-end sweep must still analyze it

        checker = DynamicChecker()
        run_spmd(2, prog, checker=checker)

        findings = checker.findings_for("DYN203")
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == "error"
        assert f.file.endswith("test_analysis_dynamic.py")
        assert f.line == _line_of(prog, "win.put(1, slice(0, 4)")
        assert f.context["ops"] == ["get", "put"]
        assert f.context["target"] == 1

    def test_fence_separated_put_get_clean(self):
        def prog(comm):
            win = Window(comm, np.zeros(8))
            win.fence()
            if comm.rank == 0:
                win.put(1, slice(0, 4), np.ones(4))
            win.fence()
            if comm.rank == 1:
                win.get(1, slice(2, 6))
            win.fence()

        checker = DynamicChecker()
        run_spmd(2, prog, checker=checker)
        assert len(checker) == 0

    def test_disjoint_rows_clean(self):
        def prog(comm):
            win = Window(comm, np.zeros(8))
            win.fence()
            if comm.rank == 0:
                win.put(1, slice(0, 4), np.ones(4))
            else:
                win.get(1, slice(4, 8))
            win.fence()

        checker = DynamicChecker()
        run_spmd(2, prog, checker=checker)
        assert len(checker) == 0

    def test_concurrent_accumulates_clean(self):
        # Same-op accumulates commute; MPI orders them atomically.
        def prog(comm):
            win = Window(comm, np.zeros(4))
            win.fence()
            win.accumulate(0, slice(None), np.ones(4))
            win.fence()

        checker = DynamicChecker()
        run_spmd(3, prog, checker=checker)
        assert len(checker) == 0

    def test_put_put_overlap_detected(self):
        def prog(comm):
            win = Window(comm, np.zeros(4))
            win.fence()
            if comm.rank > 0:
                win.put(0, 1, np.array(float(comm.rank)))
            win.fence()

        checker = DynamicChecker()
        run_spmd(3, prog, checker=checker)
        findings = checker.findings_for("DYN203")
        assert len(findings) == 1
        assert findings[0].context["origins"] == [1, 2]


class TestDeadlock:
    def test_deadlock_reported_with_blocked_ranks(self):
        """Seeded fixture: rank 0 waits in a barrier nobody else joins."""

        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.barrier()

        checker = DynamicChecker()
        with pytest.raises(SpmdError, match="deadlock"):
            run_spmd(2, prog, checker=checker, deadlock_timeout_s=0.3)

        findings = checker.findings_for("DYN204")
        assert len(findings) == 1
        f = findings[0]
        assert "rank 0" in f.message
        assert "barrier" in f.message
        assert f.context["blocked"] == {"0": "barrier(seq=0)"}

    def test_recv_deadlock_reported(self):
        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.recv(source=1, tag=7)

        checker = DynamicChecker()
        with pytest.raises(SpmdError, match="deadlock"):
            run_spmd(2, prog, checker=checker, deadlock_timeout_s=0.3)

        findings = checker.findings_for("DYN204")
        assert len(findings) == 1
        assert "recv" in findings[0].message

    def test_deadlock_raises_even_without_checker(self):
        def prog(comm):
            if comm.rank == 0:  # repro: ignore[SPMD001]
                comm.barrier()

        with pytest.raises(SpmdError, match="deadlock"):
            run_spmd(2, prog, deadlock_timeout_s=0.3)


class TestBitwiseIdentity:
    def test_lasso_fit_identical_with_and_without_checker(self):
        from repro.experiments._functional import mini_uoi_lasso_run

        plain = mini_uoi_lasso_run(nranks=3, n=48, p=6)
        checker = DynamicChecker()
        checked = mini_uoi_lasso_run(nranks=3, n=48, p=6, checker=checker)

        assert len(checker) == 0
        assert np.array_equal(plain["coef"], checked["coef"])
        assert np.array_equal(plain["supports"], checked["supports"])

    def test_var_fit_identical_with_and_without_checker(self):
        from repro.experiments._functional import mini_uoi_var_run

        plain = mini_uoi_var_run(nranks=3, p=3, n_samples=40)
        checker = DynamicChecker()
        checked = mini_uoi_var_run(nranks=3, p=3, n_samples=40, checker=checker)

        assert len(checker) == 0
        assert np.array_equal(plain["coef"], checked["coef"])
        assert np.array_equal(plain["supports"], checked["supports"])


class TestLeaseStall:
    def test_on_lease_stall_emits_dyn205(self):
        checker = DynamicChecker()
        checker.on_lease_stall(
            {"ew1": "chain 2 [est/k0] leased to ew1"},
            "no progress within 0.2s",
        )
        findings = checker.findings_for("DYN205")
        assert len(findings) == 1
        f = findings[0]
        assert "worker-lease stall" in f.message
        assert "ew1" in f.message
        assert f.context["stalled"] == {
            "ew1": "chain 2 [est/k0] leased to ew1"
        }

    def test_empty_fleet_stall_message(self):
        checker = DynamicChecker()
        checker.on_lease_stall({}, "no workers ever joined")
        (finding,) = checker.findings_for("DYN205")
        assert "no workers registered" in finding.message

    def test_rule_registered(self):
        from repro.analysis.rules import get_rule

        rule = get_rule("DYN205")
        assert rule.name == "worker-lease-stall"
        assert rule.severity == "error"
