"""Tests for the PLAN pre-run verifier (``repro.analysis.planver``)."""

import importlib.util
import os
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.check import run_plan_checks
from repro.analysis.planver import (
    PlanVerificationError,
    assert_valid_plan,
    plan_lint_index,
    verify_plan,
)
from repro.analysis.source import SourceIndex
from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.engine import SerialExecutor, make_executor, run_plan
from repro.engine.plan import Subproblem
from repro.engine.plans import LassoPlan, VarPlan

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "plan_duplicate_key.py"
)


def _load_fixture_module():
    spec = importlib.util.spec_from_file_location("plan_duplicate_key", FIXTURE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def plan_lint(code: str):
    return plan_lint_index(SourceIndex.from_source(textwrap.dedent(code), "prog.py"))


class StubPlan:
    """Minimal object satisfying the ``verify_plan`` protocol."""

    stages = ("selection",)

    def __init__(self, chains, B1=None, q=None, grid=None):
        self._chains = chains
        if B1 is not None:
            self.B1 = B1
        if q is not None:
            self.q = q
        if grid is not None:
            self.grid = grid

    def chains(self, stage):
        return self._chains


class OverlappingGrid:
    """A broken grid: every cell claims every bootstrap."""

    pb = 2
    plam = 1

    def owns_bootstrap(self, k):
        return True

    def owns_lambda(self, j):
        return True


def task(bootstrap, lam_index, key, chain, pos):
    return Subproblem("selection", bootstrap, lam_index, key, chain, pos)


def _make_lasso_plan():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((32, 6))
    beta = np.array([1.5, 0.0, -2.0, 0.0, 0.8, 0.0])
    y = X @ beta + 0.05 * rng.standard_normal(32)
    cfg = UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=3,
        n_estimation_bootstraps=3,
        random_state=11,
    )
    return LassoPlan(cfg, X, y)


class TestVerifyPlan:
    def test_duplicate_keys_flagged(self):
        chains = [
            [task(0, None, "sel/k0", 0, 0)],
            [task(1, None, "sel/k0", 1, 0)],
        ]
        findings = verify_plan(StubPlan(chains))
        assert [f.rule for f in findings] == ["PLAN401"]
        assert "sel/k0" in findings[0].message

    def test_empty_chain_flagged(self):
        findings = verify_plan(StubPlan([[]]))
        assert [f.rule for f in findings] == ["PLAN402"]

    def test_mixed_bootstrap_chain_flagged(self):
        chains = [
            [task(0, 0, "sel/k0/j0", 0, 0), task(1, 1, "sel/k1/j1", 0, 1)]
        ]
        findings = verify_plan(StubPlan(chains))
        assert "PLAN402" in [f.rule for f in findings]

    def test_non_monotone_positions_flagged(self):
        chains = [
            [task(0, 0, "sel/k0/j0", 0, 1), task(0, 1, "sel/k0/j1", 0, 0)]
        ]
        findings = verify_plan(StubPlan(chains))
        assert [f.rule for f in findings] == ["PLAN402"]

    def test_non_monotone_lambda_path_flagged(self):
        # Warm starts flow large-to-small penalty in *index* order.
        chains = [
            [task(0, 1, "sel/k0/j1", 0, 0), task(0, 0, "sel/k0/j0", 0, 1)]
        ]
        findings = verify_plan(StubPlan(chains))
        assert [f.rule for f in findings] == ["PLAN402"]

    def test_grid_coverage_gap_flagged(self):
        chains = [[task(0, None, "sel/k0", 0, 0)]]
        findings = verify_plan(StubPlan(chains, B1=2))
        assert [f.rule for f in findings] == ["PLAN403"]
        assert findings[0].context["missing"] == [(1, None)]

    def test_per_lambda_coverage_duplicate_flagged(self):
        chains = [
            [
                task(0, 0, "sel/k0/j0", 0, 0),
                task(0, 0, "sel/k0/j0b", 0, 1),
                task(0, 1, "sel/k0/j1", 0, 2),
            ]
        ]
        findings = verify_plan(StubPlan(chains, B1=1, q=2))
        assert [f.rule for f in findings] == ["PLAN403"]
        assert findings[0].context["duplicated"] == [(0, 0)]

    def test_overlapping_ownership_flagged(self):
        chains = [[task(0, 0, "sel/k0/j0", 0, 0)]]
        findings = verify_plan(
            StubPlan(chains, B1=1, q=1, grid=OverlappingGrid())
        )
        assert "PLAN404" in [f.rule for f in findings]
        owners = findings[-1].context["owners"]
        assert len(owners) == 2  # both b-cells claim the task

    def test_plan_findings_carry_plan_locus(self):
        findings = verify_plan(StubPlan([[]]))
        assert findings[0].file == "<plan:StubPlan>"
        assert findings[0].line == 0
        assert findings[0].source == "plan"

    def test_assert_valid_plan_raises_with_findings(self):
        with pytest.raises(PlanVerificationError) as e:
            assert_valid_plan(StubPlan([[]]))
        assert [f.rule for f in e.value.findings] == ["PLAN402"]
        assert "PLAN402" in str(e.value)

    def test_assert_valid_plan_passes_good_plan(self):
        assert_valid_plan(_make_lasso_plan())


class TestDriverPlansVerify:
    def test_serial_lasso_plan_clean(self):
        assert verify_plan(_make_lasso_plan()) == []

    def test_serial_var_plan_clean(self):
        rng = np.random.default_rng(5)
        series = rng.standard_normal((30, 3))
        cfg = UoIVarConfig(
            order=2,
            lasso=UoILassoConfig(
                n_lambdas=3,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=7,
            ),
        )
        assert verify_plan(VarPlan(cfg, series)) == []

    def test_distributed_lasso_plan_clean_on_grid(self):
        from repro.core.parallel import ProcessGrid, _DistLassoPlan
        from repro.simmpi import LAPTOP, run_spmd

        cfg = UoILassoConfig(
            n_lambdas=3,
            n_selection_bootstraps=4,
            n_estimation_bootstraps=4,
            random_state=0,
        )

        def prog(comm):
            grid = ProcessGrid.build(comm, pb=2, plam=2)
            dist = SimpleNamespace(n_rows=24, n_cols=6)
            plan = _DistLassoPlan(
                comm, grid, dist, cfg, "d",
                np.linspace(1.0, 0.1, 3), None, None,
            )
            return [f.rule for f in verify_plan(plan)]

        res = run_spmd(4, prog, machine=LAPTOP)
        assert res.failed_ranks == {}
        assert all(rules == [] for rules in res.values)


class TestSeededFixture:
    def test_static_lint_yields_exact_rule_and_line(self):
        findings = plan_lint_index(SourceIndex.from_paths([FIXTURE]))
        assert [(f.rule, f.line) for f in findings] == [("PLAN401", 29)]
        assert findings[0].file == FIXTURE

    def test_runtime_verify_reports_clobbered_keys(self):
        mod = _load_fixture_module()
        findings = verify_plan(mod.DuplicateKeyPlan())
        # Three tasks share one key: the 2nd and 3rd writes clobber.
        assert [f.rule for f in findings] == ["PLAN401", "PLAN401"]
        assert all("sel/k0" in f.message for f in findings)


class TestStaticCongruence:
    def test_world_collective_in_run_chain_flagged(self):
        findings = plan_lint(
            """\
            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    self.comm.allreduce(1.0)
            """
        )
        assert [f.rule for f in findings] == ["PLAN404"]

    def test_cell_collective_in_run_chain_clean(self):
        findings = plan_lint(
            """\
            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    cell = self.grid.cell
                    cell.allreduce(1.0)
            """
        )
        assert findings == []

    def test_guarded_collective_in_reduce_flagged(self):
        findings = plan_lint(
            """\
            class P(UoIPlan):
                def reduce(self, stage, results):
                    if self.grid.cell.rank == 0:
                        self.comm.allreduce(1.0)
            """
        )
        assert [f.rule for f in findings] == ["PLAN404"]

    def test_accumulate_then_reduce_clean(self):
        findings = plan_lint(
            """\
            class P(UoIPlan):
                def reduce(self, stage, results):
                    total = 0.0
                    if self.grid.cell.rank == 0:
                        total = 1.0
                    self.comm.allreduce(total)
            """
        )
        assert findings == []

    def test_interpolated_key_in_loop_clean(self):
        findings = plan_lint(
            """\
            class P(UoIPlan):
                def chains(self, stage):
                    out = []
                    for k in range(self.B1):
                        out.append([Subproblem(stage, k, None, f"sel/k{k}", k, 0)])
                    return out
            """
        )
        assert findings == []

    def test_non_plan_class_exempt(self):
        findings = plan_lint(
            """\
            class Helper:
                def run_chain(self, stage, tasks, recovered, emit):
                    self.comm.allreduce(1.0)
            """
        )
        assert findings == []


def _marked_executor():
    """A serial executor carrying the ``verify`` mark that
    ``Scheduler(verify=True)`` sets on the executors it builds."""
    executor = SerialExecutor()
    executor.verify = True
    return executor


class TestEngineWiring:
    def test_make_executor_default_unmarked(self):
        assert make_executor("serial").verify is False
        assert SerialExecutor.verify is False  # the mark is per instance

    def test_verifying_executor_rejects_bad_plan(self):
        mod = _load_fixture_module()
        with pytest.raises(PlanVerificationError):
            run_plan(mod.DuplicateKeyPlan(), _marked_executor())

    def test_marked_executor_verifies_every_plan_object(self):
        """The old wrapper cached verified plans by ``id(plan)``, so a
        new plan recycling a collected plan's id was waved through.
        run_plan verifies each plan it is handed: a second, freshly
        built bad plan on the same executor is rejected too."""
        mod = _load_fixture_module()
        ex = _marked_executor()
        run_plan(_make_lasso_plan(), ex)
        for _ in range(2):
            with pytest.raises(PlanVerificationError):
                run_plan(mod.DuplicateKeyPlan(), ex)

    def test_explicit_verify_false_beats_the_mark(self):
        mod = _load_fixture_module()
        ex = _marked_executor()
        # The fixture has no run_chain: reaching it means the verifier
        # (which would have raised PlanVerificationError) was skipped.
        with pytest.raises(NotImplementedError):
            run_plan(mod.DuplicateKeyPlan(), ex, verify=False)

    def test_verified_run_bitwise_identical(self):
        base = run_plan(_make_lasso_plan(), SerialExecutor(), verify=False)
        verified = run_plan(_make_lasso_plan(), SerialExecutor(), verify=True)
        assert base.coef.tobytes() == verified.coef.tobytes()
        assert base.losses.tobytes() == verified.losses.tobytes()

    def test_verified_run_through_wrapper_identical(self):
        base = run_plan(_make_lasso_plan(), SerialExecutor(), verify=False)
        marked = run_plan(_make_lasso_plan(), _marked_executor())
        assert base.coef.tobytes() == marked.coef.tobytes()


class TestRepoGate:
    def test_engine_and_core_check_clean(self):
        # The acceptance gate: the static PLAN lint over engine+core
        # plus verify_plan over the reference driver plans is clean.
        assert run_plan_checks() == []


class TestLeaseDisjointness:
    """PLAN405: runtime lease tables must partition outstanding work."""

    @staticmethod
    def _lease(chain_index, keys, worker, speculative=False):
        return SimpleNamespace(
            chain_index=chain_index,
            keys=tuple(keys),
            worker=worker,
            speculative=speculative,
        )

    def test_disjoint_leases_clean(self):
        from repro.analysis.planver import verify_lease_disjointness

        leases = [
            self._lease(0, ["sel/k0", "sel/k1"], "w0"),
            self._lease(1, ["sel/k2"], "w1"),
        ]
        assert verify_lease_disjointness(leases) == []

    def test_double_primary_flagged(self):
        from repro.analysis.planver import verify_lease_disjointness

        leases = [
            self._lease(0, ["sel/k0"], "w0"),
            self._lease(0, ["sel/k0"], "w1"),
        ]
        findings = verify_lease_disjointness(leases)
        assert [f.rule for f in findings] == ["PLAN405"]
        assert "double-primary" in findings[0].message
        assert findings[0].file == "<coordinator>"

    def test_cross_chain_overlap_flagged_even_speculative(self):
        from repro.analysis.planver import verify_lease_disjointness

        leases = [
            self._lease(0, ["sel/k0"], "w0"),
            self._lease(1, ["sel/k0"], "w1", speculative=True),
        ]
        findings = verify_lease_disjointness(leases)
        assert [f.rule for f in findings] == ["PLAN405"]
        assert "cross-chain" in findings[0].message

    def test_same_chain_speculative_duplicate_exempt(self):
        from repro.analysis.planver import verify_lease_disjointness

        leases = [
            self._lease(0, ["sel/k0"], "w0"),
            self._lease(0, ["sel/k0"], "w1", speculative=True),
        ]
        assert verify_lease_disjointness(leases) == []

    def test_assert_raises_with_rule_id(self):
        from repro.analysis.planver import assert_disjoint_leases

        leases = [
            self._lease(0, ["sel/k0"], "w0"),
            self._lease(1, ["sel/k0"], "w1"),
        ]
        with pytest.raises(PlanVerificationError, match="PLAN405"):
            assert_disjoint_leases(leases)

    def test_rule_registered(self):
        from repro.analysis.rules import get_rule

        rule = get_rule("PLAN405")
        assert rule.name == "lease-disjointness"
        assert rule.severity == "error"
