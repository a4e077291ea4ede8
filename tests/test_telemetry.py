"""repro.telemetry: recorder primitives, hook acceptance, export formats."""

import json

import numpy as np
import pytest

from repro.core import UoILasso, UoILassoConfig, UoIVar, UoIVarConfig
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.engine import (
    ESTIMATION,
    LassoPlan,
    MultiprocessExecutor,
    SerialExecutor,
    SimMpiExecutor,
    run_plan,
)
from repro.perf.report import CATEGORY_ORDER, BreakdownRow
from repro.telemetry import (
    CATEGORIES,
    COMPUTATION,
    DATA_IO,
    Recorder,
    TelemetryHook,
    chrome_trace,
    count,
    current_recorder,
    diff_manifests,
    gauge,
    read_manifest,
    resolve_telemetry,
    span,
    tracer_to_chrome,
    use_recorder,
    validate_chrome_trace,
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


# ---------------------------------------------------------------------------
# Recorder primitives
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_categories_match_perf_report(self):
        assert list(CATEGORIES) == CATEGORY_ORDER

    def test_span_context_manager_records_interval(self):
        rec = Recorder()
        with rec.span("work", COMPUTATION, tag=1):
            pass
        (s,) = rec.spans
        assert s.name == "work"
        assert s.category == COMPUTATION
        assert s.end >= s.start >= 0.0
        assert s.attrs == {"tag": 1}

    def test_add_span_rejects_bad_category_and_interval(self):
        rec = Recorder()
        with pytest.raises(ValueError, match="unknown category"):
            rec.add_span("x", "gpu_time", 0.0, 1.0)
        with pytest.raises(ValueError, match="before start"):
            rec.add_span("x", COMPUTATION, 2.0, 1.0)

    def test_counters_and_gauges(self):
        rec = Recorder()
        rec.count("iters", 3)
        rec.count("iters", 2)
        rec.gauge("resid", 0.5)
        rec.gauge("resid", 0.25)
        assert rec.counter_values() == {"iters": 5.0}
        assert rec.gauge_values() == {"resid": 0.25}

    def test_category_seconds_sums_by_category(self):
        rec = Recorder(clock=lambda: 0.0)
        rec.add_span("a", COMPUTATION, 0.0, 2.0)
        rec.add_span("b", COMPUTATION, 2.0, 3.0)
        rec.add_span("c", DATA_IO, 0.0, 0.5)
        cats = rec.category_seconds()
        assert cats[COMPUTATION] == 3.0
        assert cats[DATA_IO] == 0.5
        assert set(cats) == set(CATEGORIES)

    def test_module_helpers_no_op_without_recorder(self):
        assert current_recorder() is None
        # These must be safe (and free) with telemetry disabled.
        with span("x", COMPUTATION):
            pass
        count("x")
        gauge("x", 1.0)

    def test_use_recorder_installs_and_restores(self):
        rec = Recorder()
        with use_recorder(rec):
            assert current_recorder() is rec
            with span("inside", DATA_IO, nbytes=8):
                pass
            count("hits")
            gauge("level", 2.0)
        assert current_recorder() is None
        assert len(rec) == 1
        assert rec.counter_values() == {"hits": 1.0}
        assert rec.gauge_values() == {"level": 2.0}


class TestResolveTelemetry:
    def test_false_and_true(self):
        assert resolve_telemetry(False) is None
        hook = resolve_telemetry(True)
        assert isinstance(hook, TelemetryHook)
        assert hook.export_dir is None

    def test_path_and_recorder_and_hook(self, tmp_path):
        hook = resolve_telemetry(str(tmp_path))
        assert hook.export_dir == str(tmp_path)
        rec = Recorder()
        wrapped = resolve_telemetry(rec)
        assert wrapped.recorder is rec
        direct = TelemetryHook()
        assert resolve_telemetry(direct) is direct

    def test_env_variable(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert resolve_telemetry(None) is None
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert resolve_telemetry(None) is None
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        hook = resolve_telemetry(None)
        assert isinstance(hook, TelemetryHook) and hook.export_dir is None
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path))
        assert resolve_telemetry(None).export_dir == str(tmp_path)
        # explicit False beats the environment
        assert resolve_telemetry(False) is None

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="telemetry must be"):
            resolve_telemetry(3.14)


# ---------------------------------------------------------------------------
# Acceptance: TelemetryHook through the estimators, every backend
# ---------------------------------------------------------------------------
def _executors():
    return [
        ("serial", SerialExecutor()),
        ("multiprocess", MultiprocessExecutor(max_workers=2)),
        ("simmpi", SimMpiExecutor(nranks=2)),
    ]


class _FailingEstimation(LassoPlan):
    def run_chain(self, stage, tasks, recovered, emit):
        if stage == ESTIMATION:
            raise RuntimeError("boom")
        super().run_chain(stage, tasks, recovered, emit)


class TestFailedRunRestoresRecorder:
    """A run whose chain raises must not leave its recorder installed:
    the next fit on this thread would record into the dead run."""

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), MultiprocessExecutor(max_workers=2)],
        ids=["serial", "multiprocess"],
    )
    def test_failing_plan_leaves_no_recorder(self, lasso_data, executor):
        assert current_recorder() is None
        hook = TelemetryHook()
        plan = _FailingEstimation(LASSO_CFG, lasso_data.X, lasso_data.y)
        with pytest.raises(RuntimeError, match="boom"):
            run_plan(plan, executor, [hook])
        assert current_recorder() is None
        # The dead run's recorder stops growing: a later fit on this
        # thread records nothing into it.
        before = dict(hook.recorder.counter_values())
        UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y)
        assert hook.recorder.counter_values() == before
        # The failed run still closed its run span (it is traceable).
        assert hook.total_seconds() > 0.0

    def test_outer_recorder_is_restored_not_cleared(self, lasso_data):
        outer = Recorder()
        plan = _FailingEstimation(LASSO_CFG, lasso_data.X, lasso_data.y)
        with use_recorder(outer):
            with pytest.raises(RuntimeError, match="boom"):
                run_plan(plan, SerialExecutor(), [TelemetryHook()])
            assert current_recorder() is outer


class TestFitTelemetry:
    @pytest.mark.parametrize("name,executor", _executors())
    def test_lasso_span_count_equals_plan(self, lasso_data, name, executor):
        model = UoILasso(LASSO_CFG).fit(
            lasso_data.X, lasso_data.y, executor=executor, telemetry=True
        )
        tel = model.telemetry_
        planned = sum(v["subproblems"] for v in tel.plan_counts.values())
        assert planned == 5  # 3 selection + 2 estimation
        assert len(tel.subproblem_spans()) == planned
        assert tel.backend == name
        summary = tel.summary()
        assert summary["subproblems"] == planned
        assert summary["solved"] == planned and summary["recovered"] == 0

    @pytest.mark.parametrize("name,executor", _executors())
    def test_var_span_count_equals_plan(self, var_series, name, executor):
        model = UoIVar(VAR_CFG).fit(
            var_series, executor=executor, telemetry=True
        )
        tel = model.telemetry_
        planned = sum(v["subproblems"] for v in tel.plan_counts.values())
        assert len(tel.subproblem_spans()) == planned

    def test_breakdown_matches_category_order(self, lasso_data):
        model = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, telemetry=True)
        tel = model.telemetry_
        breakdown = tel.breakdown()
        assert list(breakdown) == CATEGORY_ORDER
        assert all(v >= 0.0 for v in breakdown.values())
        assert breakdown["computation"] > 0.0
        row = tel.to_breakdown_row("demo")
        assert isinstance(row, BreakdownRow)
        assert row.label == "demo"

    def test_disabled_fit_bitwise_identical(self, lasso_data):
        ref = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, telemetry=False)
        on = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, telemetry=True)
        off = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y)
        assert ref.coef_.tobytes() == on.coef_.tobytes() == off.coef_.tobytes()
        assert ref.losses_.tobytes() == on.losses_.tobytes()
        assert off.telemetry_ is None and ref.telemetry_ is None

    def test_var_disabled_fit_bitwise_identical(self, var_series):
        ref = UoIVar(VAR_CFG).fit(var_series)
        on = UoIVar(VAR_CFG).fit(var_series, telemetry=True)
        assert ref.vec_coef_.tobytes() == on.vec_coef_.tobytes()

    def test_solver_counters_flow_through(self, lasso_data):
        model = UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, telemetry=True)
        counters = model.telemetry_.recorder.counter_values()
        assert counters["admm.solves"] > 0
        assert counters["admm.iterations"] >= counters["admm.solves"]
        assert counters["ols.solves"] > 0

    def test_recorder_uninstalled_after_fit(self, lasso_data):
        UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, telemetry=True)
        assert current_recorder() is None

    def test_recovered_attribution(self, lasso_data, tmp_path):
        from repro.resilience.checkpoint import CheckpointPlan, CheckpointStore

        ckpt = CheckpointPlan(CheckpointStore(tmp_path / "store"))
        UoILasso(LASSO_CFG).fit(lasso_data.X, lasso_data.y, checkpoint=ckpt)
        model = UoILasso(LASSO_CFG).fit(
            lasso_data.X, lasso_data.y, checkpoint=ckpt, telemetry=True
        )
        summary = model.telemetry_.summary()
        assert summary["recovered"] == summary["subproblems"] > 0
        assert summary["solved"] == 0
        for st in summary["stages"].values():
            assert st["recovered"] == st["subproblems"]


# ---------------------------------------------------------------------------
# Export: manifest + Chrome trace
# ---------------------------------------------------------------------------
class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        data = make_sparse_regression(
            80, 9, n_informative=3, snr=12.0, rng=np.random.default_rng(31)
        )
        out = tmp_path_factory.mktemp("telemetry")
        model = UoILasso(LASSO_CFG).fit(data.X, data.y, telemetry=out)
        return model.telemetry_, model.telemetry_.exported

    def test_export_writes_manifest_and_trace(self, exported):
        tel, paths = exported
        assert len(paths) == 2
        assert paths[0].endswith("manifest-serial_uoi_lasso.jsonl")
        assert paths[1].endswith("trace-serial_uoi_lasso.json")

    def test_manifest_roundtrip(self, exported):
        tel, paths = exported
        man = read_manifest(paths[0])
        assert man["run"]["kind"] == "serial_uoi_lasso"
        # backend follows REPRO_ENGINE_BACKEND; roundtrip = matches hook
        assert man["run"]["backend"] == tel.backend
        assert man["run"]["schema"] == 1
        # every recorded span appears in the manifest
        assert len(man["spans"]) == len(tel.recorder.spans)
        sub = [s for s in man["spans"] if s["attrs"].get("type") == "subproblem"]
        assert len(sub) == len(tel.subproblem_spans())
        assert man["summary"]["subproblems"] == len(sub)
        assert list(man["summary"]["breakdown"]) == CATEGORY_ORDER
        assert man["counters"] == tel.recorder.counter_values()

    def test_chrome_trace_validates(self, exported):
        tel, paths = exported
        with open(paths[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) == len(tel.recorder.spans)
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0

    def test_chrome_trace_from_recorder(self):
        rec = Recorder(clock=lambda: 0.0)
        rec.add_span("a", COMPUTATION, 0.0, 1.5, stage="selection")
        rec.count("hits", 2)
        doc = chrome_trace(rec, tid=3)
        assert validate_chrome_trace(doc) == []
        (ev,) = doc["traceEvents"]
        assert ev["tid"] == 3
        assert ev["dur"] == pytest.approx(1.5e6)
        assert doc["otherData"]["counters"] == {"hits": 2.0}

    def test_validator_flags_malformed(self):
        assert validate_chrome_trace({"events": []})
        assert validate_chrome_trace(42)
        errs = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "??", "ts": -1.0}]}
        )
        assert any("phase" in e for e in errs)
        assert any("ts" in e for e in errs)
        # complete event without dur
        errs = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}]}
        )
        assert any("dur" in e for e in errs)
        # out-of-order on one row
        errs = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0},
                    {"name": "b", "ph": "X", "ts": 1.0, "dur": 1.0},
                ]
            }
        )
        assert any("backwards" in e for e in errs)

    def test_diff_manifests(self, exported, tmp_path):
        _, paths = exported
        man = read_manifest(paths[0])
        text = diff_manifests(man, man)
        assert "delta +0" in text
        assert "breakdown (s)" in text
        for cat in CATEGORY_ORDER:
            assert cat in text

    def test_simmpi_tracer_bridge(self):
        from repro.simmpi.clock import TimeCategory
        from repro.simmpi.trace import Tracer

        tracer = Tracer()
        tracer.record(0, TimeCategory.COMPUTE, 0.0, 1.0)
        tracer.record(1, TimeCategory.COMMUNICATION, 0.5, 2.0)
        doc = tracer_to_chrome(tracer)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["virtual_time"] is True
        cats = {ev["cat"] for ev in doc["traceEvents"]}
        assert cats == {"computation", "communication"}
        tids = {ev["tid"] for ev in doc["traceEvents"]}
        assert tids == {0, 1}


# ---------------------------------------------------------------------------
# Distributed drivers
# ---------------------------------------------------------------------------
class TestDistributedTelemetry:
    def test_distributed_lasso_per_rank_hooks(self, tmp_path):
        from repro.core.parallel import distributed_uoi_lasso
        from repro.pfs import SimH5File
        from repro.simmpi import LAPTOP, run_spmd

        cfg = UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=3,
            n_estimation_bootstraps=2,
            random_state=5,
        )
        ds = make_sparse_regression(
            96, 10, n_informative=3, snr=15.0, rng=np.random.default_rng(11)
        )
        file = SimH5File("/tel.h5")
        file.create_dataset("data", np.column_stack([ds.y, ds.X]))
        out = tmp_path / "dist"
        res = run_spmd(
            4,
            lambda comm: distributed_uoi_lasso(
                comm, file, "data", cfg, telemetry=str(out)
            ),
            machine=LAPTOP,
        )
        planned = None
        for rank, value in enumerate(res.values):
            tel = value.telemetry
            assert tel.tid == rank
            assert tel.backend == "simmpi"
            owned = sum(v["subproblems"] for v in tel.plan_counts.values())
            assert len(tel.subproblem_spans()) == owned
            planned = owned
            # only world rank 0 exports files
            assert (tel.export_dir is not None) == (rank == 0)
        assert planned is not None
        # the rank-0 export is on disk and valid
        tel0 = res.values[0].telemetry
        assert len(tel0.exported) == 2
        with open(tel0.exported[1], "r", encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        man = read_manifest(tel0.exported[0])
        assert man["run"]["backend"] == "simmpi"
        # tier-2 shuffles attributed to DISTRIBUTION
        assert man["summary"]["breakdown"]["distribution"] > 0.0
        assert man["counters"]["tier2.gets"] > 0

    def test_distributed_telemetry_does_not_change_results(self):
        from repro.core.parallel import distributed_uoi_lasso
        from repro.pfs import SimH5File
        from repro.simmpi import LAPTOP, run_spmd

        cfg = UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=2,
            n_estimation_bootstraps=2,
            random_state=5,
        )
        ds = make_sparse_regression(
            64, 8, n_informative=3, snr=15.0, rng=np.random.default_rng(7)
        )
        file = SimH5File("/tel2.h5")
        file.create_dataset("data", np.column_stack([ds.y, ds.X]))
        run = lambda **kw: run_spmd(
            2,
            lambda comm: distributed_uoi_lasso(comm, file, "data", cfg, **kw),
            machine=LAPTOP,
        ).values[0]
        ref = run()
        got = run(telemetry=True)
        assert ref.coef.tobytes() == got.coef.tobytes()
        assert ref.losses.tobytes() == got.losses.tobytes()
