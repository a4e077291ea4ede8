"""Execution-engine contract: backends, plans, hooks, attribution."""

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig, UoIVar, UoIVarConfig
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.engine import (
    BACKENDS,
    ESTIMATION,
    SELECTION,
    EngineHook,
    HookList,
    LassoPlan,
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
    VarPlan,
    annotate_failure,
    default_executor,
    make_executor,
    run_plan,
)

LASSO_CFG = UoILassoConfig(
    n_lambdas=5,
    n_selection_bootstraps=3,
    n_estimation_bootstraps=2,
    random_state=12,
)
VAR_CFG = UoIVarConfig(
    order=1,
    lasso=UoILassoConfig(
        n_lambdas=4,
        n_selection_bootstraps=2,
        n_estimation_bootstraps=2,
        random_state=21,
    ),
)


@pytest.fixture(scope="module")
def lasso_data():
    return make_sparse_regression(
        80, 9, n_informative=3, snr=12.0, rng=np.random.default_rng(31)
    )


@pytest.fixture(scope="module")
def var_series():
    return make_sparse_var(3, 48, rng=np.random.default_rng(32)).series


def _executors():
    return [
        ("serial", SerialExecutor()),
        ("multiprocess", MultiprocessExecutor(max_workers=2)),
        ("simmpi", SimMpiExecutor(nranks=2)),
    ]


class TestCrossBackendEquivalence:
    """The tentpole invariant: every backend produces the same bits."""

    @pytest.mark.parametrize("name,executor", _executors())
    def test_lasso_matrix(self, lasso_data, name, executor):
        ref = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y)
        got = UoILasso(LASSO_CFG).fit(
            lasso_data.X, lasso_data.y, executor=executor
        )
        assert got.coef_.tobytes() == ref.coef_.tobytes()
        assert got.losses_.tobytes() == ref.losses_.tobytes()
        np.testing.assert_array_equal(got.supports_, ref.supports_)
        np.testing.assert_array_equal(got.winners_, ref.winners_)

    @pytest.mark.parametrize("name,executor", _executors())
    def test_var_matrix(self, var_series, name, executor):
        ref = UoIVar(VAR_CFG).fit(var_series)
        got = UoIVar(VAR_CFG).fit(var_series, executor=executor)
        assert got.vec_coef_.tobytes() == ref.vec_coef_.tobytes()
        assert got.losses_.tobytes() == ref.losses_.tobytes()
        np.testing.assert_array_equal(got.supports_, ref.supports_)
        for a, b in zip(got.coefs_, ref.coefs_):
            assert a.tobytes() == b.tobytes()


class TestPlanEnumeration:
    def test_lasso_describe_counts(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        desc = plan.describe()
        assert desc["kind"] == "serial_uoi_lasso"
        assert desc["stages"][SELECTION]["chains"] == 3
        assert desc["stages"][SELECTION]["subproblems"] == 3
        assert desc["stages"][ESTIMATION]["subproblems"] == 2
        assert desc["subproblems"] == 5

    def test_var_describe_counts(self, var_series):
        plan = VarPlan(VAR_CFG, var_series)
        desc = plan.describe()
        assert desc["stages"][SELECTION]["subproblems"] == 2
        assert desc["stages"][ESTIMATION]["subproblems"] == 2

    def test_legacy_checkpoint_keys(self, lasso_data, var_series):
        lp = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        assert lp.chains(SELECTION)[0][0].key == "serial-sel/k0"
        assert lp.chains(ESTIMATION)[1][0].key == "serial-est/k1"
        vp = VarPlan(VAR_CFG, var_series)
        assert vp.chains(SELECTION)[0][0].key == "serial-var-sel/k0"
        assert vp.chains(ESTIMATION)[0][0].key == "serial-var-est/k0"

    def test_flops_estimate_positive(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        flops = plan.estimate_flops()
        assert flops[SELECTION] > 0.0
        assert flops[ESTIMATION] > 0.0

    def test_input_validation_messages(self):
        with pytest.raises(ValueError, match="X must be 2-D"):
            LassoPlan(LASSO_CFG, np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="incompatible with X"):
            LassoPlan(LASSO_CFG, np.zeros((4, 2)), np.zeros(5))


class _TaggedHook(EngineHook):
    """Appends (tag, event, detail) to a shared log for order assertions."""

    def __init__(self, tag, log, *, serves=()):
        self.tag = tag
        self.log = log
        self.serves = dict(serves)

    def on_run_start(self, plan, executor):
        self.log.append((self.tag, "run_start"))

    def lookup(self, task):
        self.log.append((self.tag, "lookup", task.key))
        return self.serves.get(task.key)

    def on_subproblem_done(self, task, payload, *, recovered):
        self.log.append((self.tag, "done", task.key, recovered))

    def on_stage_end(self, stage, plan):
        self.log.append((self.tag, "stage_end", stage))

    def on_run_end(self, plan):
        self.log.append((self.tag, "run_end"))


class TestHookDispatch:
    def test_recording_hook_order(self, lasso_data):
        log = []
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        run_plan(plan, SerialExecutor(), [_TaggedHook("h", log)])
        events = [e[1:] for e in log if e[1] != "lookup"]
        kinds = [e[0] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        # every subproblem reported exactly once, none recovered
        done = [e for e in events if e[0] == "done"]
        assert len(done) == plan.describe()["subproblems"]
        assert all(not e[2] for e in done)
        # stage_end fires after that stage's last done event
        stage_ends = [i for i, e in enumerate(events) if e[0] == "stage_end"]
        assert len(stage_ends) == 2
        sel_done = [
            i
            for i, e in enumerate(events)
            if e[0] == "done" and e[1].startswith("serial-sel/")
        ]
        assert max(sel_done) < stage_ends[0]


class TestHookListOrdering:
    """Satellite contract: the composite semantics TelemetryHook rides on."""

    def _task(self, plan):
        return plan.chains(SELECTION)[0][0]

    def test_lookup_first_non_none_wins(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        task = self._task(plan)
        log = []
        first = _TaggedHook("a", log, serves={task.key: {"hit": "a"}})
        second = _TaggedHook("b", log, serves={task.key: {"hit": "b"}})
        hooks = HookList([first, second])
        assert hooks.lookup(task) == {"hit": "a"}
        # The second child is never even consulted once the first hit.
        assert log == [("a", "lookup", task.key)]

    def test_lookup_falls_through_none(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        task = self._task(plan)
        log = []
        first = _TaggedHook("a", log)  # serves nothing
        second = _TaggedHook("b", log, serves={task.key: {"hit": "b"}})
        hooks = HookList([first, second])
        assert hooks.lookup(task) == {"hit": "b"}
        assert [e[0] for e in log] == ["a", "b"]

    def test_done_and_stage_end_fire_on_every_child_in_order(self, lasso_data):
        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        task = self._task(plan)
        log = []
        hooks = HookList([_TaggedHook("a", log), _TaggedHook("b", log)])
        hooks.on_subproblem_done(task, {}, recovered=True)
        hooks.on_stage_end(SELECTION, plan)
        assert log == [
            ("a", "done", task.key, True),
            ("b", "done", task.key, True),
            ("a", "stage_end", SELECTION),
            ("b", "stage_end", SELECTION),
        ]

    def test_recovery_still_notifies_later_children(self, lasso_data):
        """A child that recovers a task does not swallow anyone's events.

        This is exactly what TelemetryHook depends on: registered
        *after* CheckpointHook, it must still see every subproblem —
        with ``recovered=True`` for the ones the checkpoint served.
        """
        import tempfile

        from repro.resilience.checkpoint import CheckpointPlan, CheckpointStore

        plan = LassoPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        total = plan.describe()["subproblems"]
        with tempfile.TemporaryDirectory() as store_dir:
            ckpt = CheckpointPlan(CheckpointStore(store_dir))
            # First run populates the store; second run recovers all.
            UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, checkpoint=ckpt)
            model = UoILasso(LASSO_CFG).fit(
                lasso_data.X, lasso_data.y, checkpoint=ckpt, telemetry=True
            )
            tel = model.telemetry_
            # TelemetryHook is registered after CheckpointHook, yet saw
            # every subproblem, all attributed as recovered.
            assert len(tel.subproblem_spans()) == total
            assert all(s.attrs["recovered"] for s in tel.subproblem_spans())
            summary = tel.summary()
            assert summary["recovered"] == total
            assert summary["solved"] == 0


class TestBackendRegistry:
    def test_backends_have_descriptions(self):
        assert set(BACKENDS) == {"serial", "multiprocess", "simmpi", "elastic"}
        for factory, desc in BACKENDS.values():
            assert isinstance(desc, str) and desc

    def test_backend_aliases(self):
        from repro.engine import BACKEND_ALIASES

        assert BACKEND_ALIASES == {"processpool-elastic": "elastic"}
        for alias, target in BACKEND_ALIASES.items():
            assert alias not in BACKENDS
            assert target in BACKENDS

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_executor("mpi4py")

    def test_default_executor_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
        assert isinstance(default_executor(), SerialExecutor)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "multiprocess")
        assert isinstance(default_executor(), MultiprocessExecutor)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "Serial ")
        assert isinstance(default_executor(), SerialExecutor)

    def test_env_var_reaches_estimator(self, lasso_data, monkeypatch):
        ref = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "multiprocess")
        got = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y)
        assert got.coef_.tobytes() == ref.coef_.tobytes()


class _ExplodingPlan(LassoPlan):
    def run_chain(self, stage, tasks, recovered, emit):
        if stage == ESTIMATION:
            raise RuntimeError("boom")
        super().run_chain(stage, tasks, recovered, emit)


class TestFailureAttribution:
    def test_annotate_failure_notes(self):
        exc = RuntimeError("x")
        annotate_failure(exc, "serial", SELECTION)
        assert any("backend=serial" in n for n in exc.__notes__)

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), MultiprocessExecutor(max_workers=2)],
        ids=["serial", "multiprocess"],
    )
    def test_failure_names_backend_stage_and_tasks(self, lasso_data, executor):
        plan = _ExplodingPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            run_plan(plan, executor)
        notes = " ".join(getattr(excinfo.value, "__notes__", []))
        assert f"backend={executor.name}" in notes
        assert "stage=estimation" in notes
        assert "serial-est/k0" in notes

    def test_simmpi_spmd_error_carries_plan_position(self, lasso_data):
        from repro.simmpi.executor import SpmdError

        plan = _ExplodingPlan(LASSO_CFG, lasso_data.X, lasso_data.y)
        with pytest.raises(SpmdError) as excinfo:
            run_plan(plan, SimMpiExecutor(nranks=2))
        # Satellite contract: the aggregated message itself names the
        # backend and the subproblem that was in flight.
        msg = str(excinfo.value)
        assert "backend=simmpi" in msg
        assert "stage=estimation" in msg
        assert "serial-est/" in msg
