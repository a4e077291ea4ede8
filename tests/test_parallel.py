"""Integration tests: distributed UoI vs the serial reference."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig, UoIVar, UoIVarConfig
from repro.core.parallel import (
    DistributedUoIResult,
    ProcessGrid,
    _ColumnGroups,
    _gram_rows,
    distributed_uoi_lasso,
    distributed_uoi_var,
)
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.pfs import SimH5File
from repro.resilience import (
    CheckpointHook,
    CheckpointPlan,
    CheckpointStore,
    FaultPlan,
)
from repro.simmpi import LAPTOP, run_spmd, SpmdError
from repro.telemetry import Recorder, use_recorder
from repro.var import partition_coefficients

CFG = UoILassoConfig(
    n_lambdas=6,
    n_selection_bootstraps=4,
    n_estimation_bootstraps=3,
    random_state=5,
)
VAR_CFG = UoIVarConfig(
    order=1,
    lasso=UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=2,
        n_estimation_bootstraps=2,
        random_state=7,
    ),
)


@pytest.fixture(scope="module")
def lasso_setup():
    ds = make_sparse_regression(
        96, 10, n_informative=3, snr=15.0, rng=np.random.default_rng(11)
    )
    file = SimH5File("/par.h5")
    file.create_dataset("data", np.column_stack([ds.y, ds.X]))
    serial = UoILasso(CFG).fit(ds.X, ds.y)
    return ds, file, serial


class TestDistributedUoILasso:
    def test_matches_serial(self, lasso_setup):
        ds, file, serial = lasso_setup
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        out = res.values[0]
        assert isinstance(out, DistributedUoIResult)
        np.testing.assert_allclose(out.coef, serial.coef_, atol=5e-4)
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.lambdas, serial.lambdas_)

    def test_store_refuses_another_rho(self, lasso_setup, tmp_path):
        """Solver fields are part of the distributed plan's identity: a
        store written at rho=1.0 refuses the spectral default and still
        resumes bitwise at rho=1.0."""
        _, file, _ = lasso_setup

        def job(cfg):
            return lambda comm, checkpoint=None: distributed_uoi_lasso(
                comm, file, "data", cfg, checkpoint=checkpoint
            )

        ck = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        unit = CFG.with_(rho=1.0)
        first = run_spmd(2, job(unit), machine=LAPTOP, checkpoint=ck)
        with pytest.raises(SpmdError, match="different run"):
            run_spmd(2, job(CFG), machine=LAPTOP, checkpoint=ck)
        resumed = run_spmd(2, job(unit), machine=LAPTOP, checkpoint=ck)
        for out in resumed.values:
            assert out.completed_subproblems == 0
            assert out.coef.tobytes() == first.values[0].coef.tobytes()

    def test_identical_on_all_ranks(self, lasso_setup):
        _, file, _ = lasso_setup
        res = run_spmd(
            3,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        ref = res.values[0]
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, ref.coef)
            np.testing.assert_array_equal(v.supports, ref.supports)

    @pytest.mark.parametrize("pb,plam,world", [(2, 1, 4), (1, 2, 4), (2, 2, 8), (4, 1, 8)])
    def test_grids_match_serial(self, lasso_setup, pb, plam, world):
        ds, file, serial = lasso_setup
        res = run_spmd(
            world,
            lambda comm: distributed_uoi_lasso(
                comm, file, "data", CFG, pb=pb, plam=plam
            ),
            machine=LAPTOP,
        )
        np.testing.assert_allclose(res.values[0].coef, serial.coef_, atol=1e-3)

    def test_supports_match_serial(self, lasso_setup):
        _, file, serial = lasso_setup
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_lasso(comm, file, "data", CFG),
            machine=LAPTOP,
        )
        np.testing.assert_array_equal(res.values[0].supports, serial.supports_)

    def test_fit_intercept_rejected(self, lasso_setup):
        _, file, _ = lasso_setup
        bad = CFG.with_(fit_intercept=True)

        def prog(comm):
            distributed_uoi_lasso(comm, file, "data", bad)

        with pytest.raises(SpmdError, match="fit_intercept"):
            run_spmd(2, prog, machine=LAPTOP)


class TestProcessGrid:
    def test_build_partitions_ranks(self):
        def prog(comm):
            grid = ProcessGrid.build(comm, pb=2, plam=2)
            return grid.b, grid.l, grid.cell.rank, grid.cell.size

        res = run_spmd(8, prog, machine=LAPTOP)
        cells = {(b, l) for b, l, _, _ in res.values}
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(size == 2 for _, _, _, size in res.values)

    def test_ownership_round_robin(self):
        def prog(comm):
            grid = ProcessGrid.build(comm, pb=2, plam=1)
            return [k for k in range(6) if grid.owns_bootstrap(k)], [
                j for j in range(4) if grid.owns_lambda(j)
            ]

        res = run_spmd(4, prog, machine=LAPTOP)
        assert res.values[0][0] == [0, 2, 4]
        assert res.values[-1][0] == [1, 3, 5]
        assert res.values[0][1] == [0, 1, 2, 3]  # plam=1 owns all

    def test_indivisible_world_rejected(self):
        def prog(comm):
            ProcessGrid.build(comm, pb=2, plam=2)

        with pytest.raises(SpmdError, match="divisible"):
            run_spmd(6, prog, machine=LAPTOP)

    def test_bad_grid_params(self):
        def prog(comm):
            ProcessGrid.build(comm, pb=0)

        with pytest.raises(SpmdError, match="pb"):
            run_spmd(2, prog, machine=LAPTOP)


class _OwnedOnlyHook(CheckpointHook):
    """The drivers' checkpoint hook, failing the run on any ``lookup``
    of a task outside this rank's grid cell."""

    def on_run_start(self, plan, executor):
        self.grid = plan.grid
        super().on_run_start(plan, executor)

    def lookup(self, task):
        g = self.grid
        if not (
            g.owns_bootstrap(task.bootstrap) and g.owns_lambda(task.lam_index)
        ):
            raise AssertionError(
                f"lookup of un-owned {task.key} on cell ({g.b}, {g.l})"
            )
        return super().lookup(task)


class TestGridOwnership:
    """The distributed drivers run through ``Coordinator._run_inline``
    behind the grid's ``owns=`` predicate: un-owned tasks are dropped
    before any lookup, and crash/resume keeps bits and counters."""

    VCFG = UoIVarConfig(
        order=1,
        lasso=UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=2,
            n_estimation_bootstraps=2,
            random_state=7,
        ),
    )

    @pytest.fixture
    def jobs(self, lasso_setup, monkeypatch):
        from repro.core import parallel

        monkeypatch.setattr(parallel, "CheckpointHook", _OwnedOnlyHook)
        _, file, _ = lasso_setup
        series = make_sparse_var(3, 40, rng=np.random.default_rng(18)).series

        def lasso(comm, checkpoint=None):
            return distributed_uoi_lasso(
                comm, file, "data", CFG, pb=2, plam=2, checkpoint=checkpoint
            )

        def var(comm, checkpoint=None):
            return distributed_uoi_var(
                comm, series if comm.rank < 1 else None, self.VCFG,
                pb=2, plam=2, checkpoint=checkpoint,
            )

        return {"lasso": (lasso, CFG), "var": (var, self.VCFG.lasso)}

    @pytest.mark.parametrize("kind", ["lasso", "var"])
    def test_predicate_runs_before_lookup(self, jobs, kind):
        job, _ = jobs[kind]
        res = run_spmd(4, job, machine=LAPTOP)
        assert res.failed_ranks == {}
        for v in res.values[1:]:
            assert v.coef.tobytes() == res.values[0].coef.tobytes()

    def test_executor_is_an_inline_coordinator_named_simmpi(self):
        from repro.engine import Coordinator

        def prog(comm):
            ex = ProcessGrid.build(comm, pb=2, plam=2).executor()
            return type(ex) is Coordinator, ex.name, ex.transport.inline

        res = run_spmd(4, prog, machine=LAPTOP)
        assert res.values == [(True, "simmpi", True)] * 4

    @pytest.mark.parametrize("kind", ["lasso", "var"])
    def test_interrupted_then_resumed_matches_uninterrupted(
        self, jobs, kind, tmp_path
    ):
        job, lcfg = jobs[kind]
        total = lcfg.n_lambdas * (
            lcfg.n_selection_bootstraps + lcfg.n_estimation_bootstraps
        )
        ref = run_spmd(
            4, job, machine=LAPTOP,
            checkpoint=CheckpointPlan(CheckpointStore(tmp_path / "ref")),
        )
        assert ref.completed
        uninterrupted = ref.values[0]
        assert uninterrupted.recovered_subproblems == 0
        assert uninterrupted.completed_subproblems == total

        store = CheckpointStore(tmp_path / "ckpt")
        ck = CheckpointPlan(store, cadence=1)
        faults = FaultPlan().crash(1, at_time=0.5 * ref.elapsed)
        failed = run_spmd(
            4, job, machine=LAPTOP, fault_plan=faults, checkpoint=ck
        )
        assert set(failed.failed_ranks) == {1}
        pre_crash = len(store)
        assert pre_crash > 0

        resumed = run_spmd(
            4, job, machine=LAPTOP, fault_plan=faults, checkpoint=ck
        )
        assert resumed.completed
        for out in resumed.values:
            assert out.coef.tobytes() == uninterrupted.coef.tobytes()
            assert out.losses.tobytes() == uninterrupted.losses.tobytes()
            np.testing.assert_array_equal(out.supports, uninterrupted.supports)
            np.testing.assert_array_equal(out.winners, uninterrupted.winners)
            assert out.recovered_subproblems == pre_crash
            assert (
                out.recovered_subproblems + out.completed_subproblems
                == uninterrupted.completed_subproblems
            )

    def test_failure_note_names_simmpi_backend(self, lasso_setup, monkeypatch):
        from repro.core import parallel

        real = parallel.consensus_lasso_admm

        def boom(comm, *args, **kwargs):
            # Only world rank 0 fails: if every rank raised, another
            # rank could abort the job before rank 0 reached its solve.
            if comm.clock.rank == 0:
                raise RuntimeError("boom")
            return real(comm, *args, **kwargs)

        monkeypatch.setattr(parallel, "consensus_lasso_admm", boom)
        _, file, _ = lasso_setup
        with pytest.raises(SpmdError, match="boom") as excinfo:
            run_spmd(
                4,
                lambda comm: distributed_uoi_lasso(
                    comm, file, "data", CFG, pb=2, plam=2
                ),
                machine=LAPTOP,
            )
        assert [rank for rank, _ in excinfo.value.failures] == [0]
        # Rank 0 is cell (0, 0): its first chain is bootstrap 0, and of
        # its six λ tasks the cell owns the even ones.
        assert (
            "engine backend=simmpi stage=selection "
            "subproblems [sel/k0/j0, sel/k0/j2, sel/k0/j4]"
        ) in str(excinfo.value)


class TestDistributedUoIVar:
    def test_matches_serial(self):
        sv = make_sparse_var(4, 60, rng=np.random.default_rng(17))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=5,
                n_selection_bootstraps=3,
                n_estimation_bootstraps=2,
                random_state=6,
            ),
        )
        serial = UoIVar(vcfg).fit(sv.series)
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 2 else None, vcfg, n_readers=2
            ),
            machine=LAPTOP,
        )
        out = res.values[0]
        # The serial reference solves per-column ADMM paths; the
        # distributed driver solves the lifted consensus problem — the
        # same optimization up to stopping-rule differences, so supports
        # may disagree on marginal features near the threshold.  The
        # winners, losses and all solidly-selected coefficients must
        # agree.
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.losses, serial.losses_, rtol=0.05)
        coefs, _ = partition_coefficients(out.coef, 4, 1)
        both = (coefs[0] != 0) & (serial.coefs_[0] != 0)
        overlap = both.sum() / max((serial.coefs_[0] != 0).sum(), 1)
        assert overlap >= 0.8
        np.testing.assert_allclose(
            coefs[0][both], serial.coefs_[0][both], atol=0.15
        )

    def test_all_ranks_agree(self):
        sv = make_sparse_var(3, 40, rng=np.random.default_rng(18))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=4,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=7,
            ),
        )
        res = run_spmd(
            3,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 1 else None, vcfg, n_readers=1
            ),
            machine=LAPTOP,
        )
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, res.values[0].coef)

    def test_reader_must_have_series(self):
        vcfg = UoIVarConfig()

        def prog(comm):
            distributed_uoi_var(comm, None, vcfg, n_readers=1)

        with pytest.raises(SpmdError, match="series"):
            run_spmd(2, prog, machine=LAPTOP)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_series_refused_on_every_rank(self, bad):
        """Rank 0 reads the series, every rank raises the serial fit's
        error before any solve."""
        series = make_sparse_var(3, 40, rng=np.random.default_rng(18)).series
        series[7, 1] = bad
        with pytest.raises(ValueError, match="series contains NaN or inf"):
            UoIVar(VAR_CFG).fit(series)

        def prog(comm):
            # Caught on the rank, so no rank's error aborts another's.
            try:
                distributed_uoi_var(
                    comm, series if comm.rank == 0 else None, VAR_CFG
                )
            except ValueError as exc:
                return str(exc)

        res = run_spmd(2, prog, machine=LAPTOP)
        assert res.values == ["series contains NaN or inf"] * 2

    def test_store_refuses_lifted_consensus_records(self, tmp_path, monkeypatch):
        """The solve layout is part of the plan identity: a store written
        by the lifted-consensus driver (the same meta, without
        ``solve``) is refused, and the column-group driver still
        resumes its own store bitwise."""
        from repro.core import parallel

        series = make_sparse_var(3, 40, rng=np.random.default_rng(18)).series

        def job(comm, checkpoint=None):
            return distributed_uoi_var(
                comm, series if comm.rank == 0 else None, VAR_CFG,
                checkpoint=checkpoint,
            )

        column_groups_meta = parallel._DistVarPlan.meta

        def lifted_meta(plan):
            meta = column_groups_meta(plan)
            assert meta.pop("solve") == "column-groups"
            return meta

        lifted = CheckpointPlan(CheckpointStore(tmp_path / "lifted"))
        monkeypatch.setattr(parallel._DistVarPlan, "meta", lifted_meta)
        run_spmd(2, job, machine=LAPTOP, checkpoint=lifted)
        monkeypatch.undo()
        with pytest.raises(SpmdError, match="different run"):
            run_spmd(2, job, machine=LAPTOP, checkpoint=lifted)

        own = CheckpointPlan(CheckpointStore(tmp_path / "own"))
        first = run_spmd(2, job, machine=LAPTOP, checkpoint=own)
        resumed = run_spmd(2, job, machine=LAPTOP, checkpoint=own)
        for out in resumed.values:
            assert out.completed_subproblems == 0
            assert out.coef.tobytes() == first.values[0].coef.tobytes()


def _n_cut(m: int, p: int, world: int) -> int:
    return _ColumnGroups.build(m, p, world, 0).n_cut


class TestColumnGroups:
    """Response columns one rank owns are solved locally; a column whose
    lifted rows span ranks runs consensus among exactly those ranks."""

    VCFG = UoIVarConfig(
        order=1,
        lasso=UoILassoConfig(
            n_lambdas=5,
            n_selection_bootstraps=3,
            n_estimation_bootstraps=2,
            random_state=6,
        ),
    )

    @staticmethod
    def _run(series, vcfg, world, **kwargs):
        return run_spmd(
            world,
            lambda comm: distributed_uoi_var(
                comm, series if comm.rank == 0 else None, vcfg, **kwargs
            ),
            machine=LAPTOP,
        )

    def test_layout(self):
        # p = 3 on 2 ranks, m = 10: rank 0 owns rows [0, 15), rank 1
        # [15, 30); column 1 is cut, and rank 0 contributes it.
        left = _ColumnGroups.build(10, 3, 2, 0)
        right = _ColumnGroups.build(10, 3, 2, 1)
        assert (left.whole, left.cut) == ([0], [(1, 0)])
        assert (right.whole, right.cut) == ([2], [(1, 0)])
        assert left.sources == right.sources == [[0, 1], [2]]
        assert (left.rows(1), right.rows(1)) == (slice(10, 15), slice(0, 5))
        # p = 2 on 5 ranks: rank 2 holds the end of column 0 and the
        # start of column 1, adjacent cut positions of both parities.
        middle = _ColumnGroups.build(10, 2, 5, 2)
        assert (middle.whole, middle.cut) == ([], [(0, 0), (1, 1)])
        assert _ColumnGroups.build(10, 2, 5, 3).cut == [(1, 1)]
        # No column is cut when the ranks divide the columns.
        assert _n_cut(159, 10, 2) == _n_cut(59, 4, 4) == 0

    def test_gram_rows_carry_the_least_squares_problem(self):
        """A cut column's estimation has only the allreduced ``X'X`` and
        ``X'y``; the row design built from them gives ols_from_gram's
        SVD fallback the minimiser the scattered rows would."""
        from repro.linalg.ols import ols_from_gram, ols_on_support

        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 6))
        X[:, 4] = X[:, 1]  # exact collinearity: Cholesky fails on it
        y = rng.standard_normal(30)
        G, c = X.T @ X, X.T @ y
        R, r = _gram_rows(G, c)
        assert R.shape == (5, 6)  # one row per non-zero eigenvalue
        np.testing.assert_allclose(R.T @ R, G, atol=1e-10)
        for support in ([0, 2, 5], [1, 4], [0, 1, 3, 4, 5]):
            np.testing.assert_allclose(
                ols_from_gram(G, c, np.array(support), R, r),
                ols_on_support(X, y, np.array(support)),
                atol=1e-10,
            )

    @pytest.mark.parametrize("p,world", [(3, 2), (5, 3), (2, 5)])
    def test_cut_layouts_match_serial(self, p, world):
        sv = make_sparse_var(p, 60, rng=np.random.default_rng(17))
        assert _n_cut(59, p, world) > 0
        serial = UoIVar(self.VCFG).fit(sv.series)
        res = self._run(sv.series, self.VCFG, world)
        out = res.values[0]
        for v in res.values[1:]:
            for name in ("coef", "supports", "losses", "winners"):
                assert getattr(v, name).tobytes() == getattr(out, name).tobytes()
        # test_matches_serial's tolerances.
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.losses, serial.losses_, rtol=0.05)
        coefs, _ = partition_coefficients(out.coef, p, 1)
        both = (coefs[0] != 0) & (serial.coefs_[0] != 0)
        overlap = both.sum() / max((serial.coefs_[0] != 0).sum(), 1)
        assert overlap >= 0.8
        np.testing.assert_allclose(
            coefs[0][both], serial.coefs_[0][both], atol=0.15
        )

    @pytest.mark.parametrize("p,world", [(4, 4), (10, 2)])
    def test_no_cut_layout_is_the_serial_fit(self, p, world):
        sv = make_sparse_var(p, 60, rng=np.random.default_rng(17))
        vcfg = self.VCFG.with_(lasso=self.VCFG.lasso.with_(solver="admm"))
        assert _n_cut(59, p, world) == 0
        serial = UoIVar(vcfg).fit(sv.series)
        res = self._run(sv.series, vcfg, world, pb=1, plam=1, telemetry=True)
        out = res.values[0]
        assert out.supports.tobytes() == serial.supports_.tobytes()
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.coef, serial.vec_coef_, rtol=0, atol=1e-10)
        for v in res.values:
            counters = v.telemetry.recorder.counter_values()
            assert counters.get("consensus.solves", 0) == 0
            assert counters["admm.solves"] > 0

    @pytest.mark.parametrize("p,world", [(4, 4), (10, 2)])
    def test_no_cut_layout_cd_is_the_serial_fit(self, p, world):
        """Whole columns under ``solver="cd"`` run the covariance path
        kernel one λ per task, seeded along the owned chain: the serial
        fit's selection, bit for bit."""
        sv = make_sparse_var(p, 60, rng=np.random.default_rng(17))
        vcfg = self.VCFG.with_(
            lasso=self.VCFG.lasso.with_(solver="cd", max_iter=20000)
        )
        assert _n_cut(59, p, world) == 0
        rec = Recorder()
        with use_recorder(rec):
            serial = UoIVar(vcfg).fit(sv.series)
        res = self._run(sv.series, vcfg, world, pb=1, plam=1, telemetry=True)
        out = res.values[0]
        assert out.supports.tobytes() == serial.supports_.tobytes()
        np.testing.assert_array_equal(out.winners, serial.winners_)
        np.testing.assert_allclose(out.coef, serial.vec_coef_, rtol=0, atol=1e-10)
        totals = {"cd.solves": 0.0, "cd.sweeps": 0.0}
        for v in res.values:
            counters = v.telemetry.recorder.counter_values()
            assert counters.get("consensus.solves", 0) == 0
            assert counters.get("cd.nonconverged", 0) == 0
            for name in totals:
                totals[name] += counters[name]
        # the same warm-started chains: as many solves and sweeps
        ref = rec.counter_values()
        assert totals == {name: ref[name] for name in totals}

    def test_crash_on_cut_layout_resumes_bitwise(self, tmp_path):
        from repro.resilience import run_with_recovery

        sv = make_sparse_var(5, 60, rng=np.random.default_rng(17))

        def job(comm, checkpoint=None):
            return distributed_uoi_var(
                comm, sv.series if comm.rank == 0 else None, self.VCFG,
                checkpoint=checkpoint,
            )

        ref = run_spmd(3, job, machine=LAPTOP)
        ck = CheckpointPlan(CheckpointStore(tmp_path / "ckpt"))
        outcome = run_with_recovery(
            3, job, machine=LAPTOP,
            fault_plan=FaultPlan().crash(1, at_time=0.5 * ref.elapsed),
            checkpoint=ck,
        )
        assert outcome.n_restarts == 1
        assert outcome.recovered_subproblems > 0
        want = ref.values[0]
        for out in outcome.result.values:
            for name in ("coef", "supports", "losses", "winners"):
                assert getattr(out, name).tobytes() == getattr(want, name).tobytes()


class TestDistributedUoIVarGrids:
    """Fig. 8's P_B x P_lambda parallelism, functionally."""

    @pytest.fixture(scope="class")
    def var_setup(self):
        sv = make_sparse_var(4, 60, rng=np.random.default_rng(17))
        vcfg = UoIVarConfig(
            order=1,
            lasso=UoILassoConfig(
                n_lambdas=6,
                n_selection_bootstraps=4,
                n_estimation_bootstraps=2,
                random_state=6,
            ),
        )
        base = run_spmd(
            4,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank < 2 else None, vcfg, n_readers=2
            ),
            machine=LAPTOP,
        ).values[0]
        return sv, vcfg, base

    @pytest.mark.parametrize("pb,plam,world", [(2, 1, 4), (1, 2, 4), (2, 2, 8)])
    def test_grids_match_ungridded(self, var_setup, pb, plam, world):
        sv, vcfg, base = var_setup
        res = run_spmd(
            world,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank == 0 else None, vcfg,
                n_readers=1, pb=pb, plam=plam,
            ),
            machine=LAPTOP,
        )
        out = res.values[0]
        np.testing.assert_array_equal(out.winners, base.winners)
        np.testing.assert_allclose(out.coef, base.coef, atol=2e-3)
        np.testing.assert_array_equal(out.supports, base.supports)

    def test_grid_all_ranks_agree(self, var_setup):
        sv, vcfg, _ = var_setup
        res = run_spmd(
            8,
            lambda comm: distributed_uoi_var(
                comm, sv.series if comm.rank == 0 else None, vcfg,
                n_readers=1, pb=2, plam=2,
            ),
            machine=LAPTOP,
        )
        ref = res.values[0].coef
        for v in res.values[1:]:
            np.testing.assert_array_equal(v.coef, ref)
