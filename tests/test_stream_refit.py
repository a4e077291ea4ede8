"""Rolling re-fit loop: cadence, warm-start identity, recovery.

The acceptance bar from the streaming issue: over a rolling run of K
windows, every window's supports (and coefficients) are identical to
an independent cold batch fit of that window's data — warm starts
change cost, never results — on both the finance panel and the
synthetic spike-rate stream; and a window whose run dies mid-fit
still converges via recovery.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.engine import SerialExecutor, VarPlan, run_plan
from repro.resilience.faults import FaultPlan
from repro.stream import (
    DiffLog,
    FinanceReplaySource,
    RollingRefitter,
    SpikeRateSource,
    StreamConfig,
    StreamOutputs,
    run_rolling,
)
from repro.stream.diff import read_events
from repro.telemetry import Recorder, use_recorder

VAR_CFG = UoIVarConfig(
    order=1,
    lasso=UoILassoConfig(
        n_lambdas=5,
        n_selection_bootstraps=4,
        n_estimation_bootstraps=3,
        solver="cd",
        random_state=17,
    ),
)


def _cfg(**overrides):
    base = dict(var=VAR_CFG, window=30, cadence=8, max_windows=3)
    base.update(overrides)
    return StreamConfig(**base)


def _spikes(n):
    return list(SpikeRateSource(4, seed=21, max_ticks=n))


# ---------------------------------------------------------------------------
# cadence and shapes
# ---------------------------------------------------------------------------
class TestCadence:
    def test_first_fit_at_full_window_then_every_cadence(self):
        out = run_rolling(iter(_spikes(60)), _cfg())
        assert [w.t_end for w in out.windows] == [30, 38, 46]
        assert [w.index for w in out.windows] == [0, 1, 2]
        assert not out.windows[0].warm
        assert all(w.warm for w in out.windows[1:])

    def test_min_samples_starts_earlier(self):
        out = run_rolling(iter(_spikes(40)), _cfg(min_samples=12, max_windows=2))
        assert [w.t_end for w in out.windows] == [12, 20]

    def test_source_exhaustion_before_priming_raises(self):
        with pytest.raises(ValueError, match="no windows were fit"):
            run_rolling(iter(_spikes(10)), _cfg())

    def test_empty_source_raises(self):
        with pytest.raises(ValueError, match="empty stream"):
            run_rolling(iter([]), _cfg())

    def test_p_inferred_from_first_tick(self):
        out = run_rolling(iter(_spikes(30)), _cfg(max_windows=1))
        assert out.p == 4 and out.coef.shape == (16,)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window must exceed"):
            StreamConfig(var=VAR_CFG, window=1)
        with pytest.raises(ValueError, match="cadence"):
            StreamConfig(var=VAR_CFG, cadence=0)
        with pytest.raises(ValueError, match="min_samples"):
            StreamConfig(var=VAR_CFG, window=30, min_samples=31)
        with pytest.raises(ValueError, match="chain_seeding"):
            StreamConfig(var=VAR_CFG, chain_seeding="warm")


# ---------------------------------------------------------------------------
# the headline invariant: warm starts change cost, never results
# ---------------------------------------------------------------------------
class TestWarmColdIdentity:
    @pytest.mark.parametrize(
        "make_source",
        [
            lambda: iter(_spikes(60)),
            lambda: FinanceReplaySource(4, n_days=240, seed=13),
        ],
        ids=["spike_rate", "finance"],
    )
    def test_every_window_identical_to_cold_batch_fit(self, make_source):
        """verify=True re-fits each window cold from scratch on a serial
        backend and asserts bitwise-equal supports and coefficients —
        the streaming acceptance criterion, on both data regimes."""
        out = run_rolling(make_source(), _cfg(verify=True))
        assert len(out) == 3  # verify raised nowhere

    def test_warm_and_cold_rolling_runs_match_bitwise(self):
        warm = run_rolling(iter(_spikes(60)), _cfg(warm=True))
        cold = run_rolling(iter(_spikes(60)), _cfg(warm=False))
        assert [w.t_end for w in warm.windows] == [w.t_end for w in cold.windows]
        for ww, cw in zip(warm.windows, cold.windows):
            assert np.array_equal(ww.outputs.supports, cw.outputs.supports)
            assert np.array_equal(ww.outputs.coef, cw.outputs.coef)
        assert warm.windows[1].warm and not cold.windows[1].warm

    def test_unseeded_chains_also_identical(self):
        """chain_seeding='none' (the bench baseline) is slower, not
        different: same supports and coefficients again."""
        seeded = run_rolling(iter(_spikes(46)), _cfg(max_windows=2))
        unseeded = run_rolling(
            iter(_spikes(46)),
            _cfg(max_windows=2, warm=False, chain_seeding="none"),
        )
        for sw, uw in zip(seeded.windows, unseeded.windows):
            assert np.array_equal(sw.outputs.supports, uw.outputs.supports)
            assert np.array_equal(sw.outputs.coef, uw.outputs.coef)

    def test_identity_requires_converged_solves(self):
        """The identity's one precondition, pinned by a real case.

        On this seed an ill-conditioned bootstrap window makes some cd
        solves crawl: with the default ``max_iter=500`` sweep budget
        they stop early at start-dependent points, and warm/cold
        supports genuinely diverge.  The refitter must *report* the
        budget exhaustion (``WindowFit.nonconverged``, the
        ``stream.nonconverged_solves`` counter), and restoring a
        convergent budget must restore bitwise identity.
        """
        def cfg(max_iter, **overrides):
            return StreamConfig(
                var=UoIVarConfig(
                    order=1,
                    lasso=UoILassoConfig(
                        n_lambdas=6,
                        n_selection_bootstraps=4,
                        n_estimation_bootstraps=3,
                        solver="cd",
                        max_iter=max_iter,
                        random_state=3,
                    ),
                ),
                window=40,
                cadence=10,
                max_windows=2,
                **overrides,
            )

        series = np.array(list(SpikeRateSource(5, order=1, seed=3, max_ticks=50)))

        rec = Recorder()
        with use_recorder(rec):
            starved = run_rolling(iter(series), cfg(500))
        stuck = sum(w.nonconverged for w in starved.windows)
        assert stuck > 0
        assert rec.counter_values()["stream.nonconverged_solves"] == stuck
        assert np.array_equal(
            starved.extra["stream_nonconverged"],
            np.array([w.nonconverged for w in starved.windows]),
        )

        # Same data, solver allowed to reach tolerance: verify=True
        # passes every window (a divergence would raise), nothing is
        # reported nonconverged.
        healthy = run_rolling(iter(series), cfg(20000, verify=True))
        assert sum(w.nonconverged for w in healthy.windows) == 0

    def test_admm_budget_exhaustion_is_reported_too(self):
        """An admm stream feeds the same field from ``admm.nonconverged``
        (one count per response column), not a constant zero."""
        def cfg(max_iter):
            lasso = dataclasses.replace(
                VAR_CFG.lasso, solver="admm", max_iter=max_iter
            )
            return _cfg(
                var=dataclasses.replace(VAR_CFG, lasso=lasso), max_windows=2
            )

        rec = Recorder()
        with use_recorder(rec):
            starved = run_rolling(iter(_spikes(46)), cfg(3))
        stuck = [w.nonconverged for w in starved.windows]
        assert all(n > 0 for n in stuck)
        counters = rec.counter_values()
        assert counters["admm.nonconverged"] == sum(stuck)
        assert counters["stream.nonconverged_solves"] == sum(stuck)

        healthy = run_rolling(iter(_spikes(46)), cfg(20000))
        assert [w.nonconverged for w in healthy.windows] == [0, 0]


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------
class _FlakyExecutor:
    """Delegates to a serial backend, dying on chosen run_stage calls."""

    name = "flaky"

    def __init__(self, fail_calls):
        self.inner = SerialExecutor()
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def run_stage(self, plan, stage, chains, hooks):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise RuntimeError("injected mid-window failure")
        return self.inner.run_stage(plan, stage, chains, hooks)


class TestRecovery:
    def test_failed_window_retries_and_matches_clean_run(self):
        clean = run_rolling(iter(_spikes(46)), _cfg(max_windows=2))
        # Call 3 is window 1's selection stage: die mid-stream, recover.
        flaky = _FlakyExecutor(fail_calls=[3])
        out = run_rolling(
            iter(_spikes(46)), _cfg(max_windows=2), executor=flaky
        )
        assert out.windows[0].retries == 0
        assert out.windows[1].retries == 1
        for cw, fw in zip(clean.windows, out.windows):
            assert np.array_equal(cw.outputs.supports, fw.outputs.supports)
            assert np.array_equal(cw.outputs.coef, fw.outputs.coef)

    def test_retry_budget_exhaustion_propagates(self):
        flaky = _FlakyExecutor(fail_calls=range(1, 50))
        with pytest.raises(RuntimeError, match="injected"):
            run_rolling(
                iter(_spikes(46)),
                _cfg(max_windows=1, max_retries=1),
                executor=flaky,
            )

    def test_worker_killed_mid_window_converges_on_elastic(self):
        """A worker crash inside a streaming window's fit is absorbed by
        the elastic backend's lease reassignment; the rolling results
        stay bitwise identical to the undisturbed serial run."""
        from repro.engine.elastic import ElasticExecutor

        clean = run_rolling(iter(_spikes(46)), _cfg(max_windows=2))
        executor = ElasticExecutor(
            workers=2, faults=FaultPlan().crash(1, at_collective=1)
        )
        try:
            out = run_rolling(
                iter(_spikes(46)), _cfg(max_windows=2), executor=executor
            )
            stats = executor.utilization()
        finally:
            executor.shutdown()
        assert stats["leaves"] >= 1
        for cw, fw in zip(clean.windows, out.windows):
            assert np.array_equal(cw.outputs.supports, fw.outputs.supports)
            assert np.array_equal(cw.outputs.coef, fw.outputs.coef)


# ---------------------------------------------------------------------------
# outputs, diffs, telemetry
# ---------------------------------------------------------------------------
class TestOutputs:
    def test_stream_outputs_quack_like_plan_outputs(self):
        out = run_rolling(iter(_spikes(60)), _cfg())
        final = out.windows[-1].outputs
        assert out.coef is final.coef
        assert out.supports is final.supports
        assert out.losses is final.losses
        assert out.winners is final.winners
        assert out.lambdas is final.lambdas
        extra = out.extra
        assert list(extra["stream_t_end"]) == [30, 38, 46]
        assert extra["stream_stability"].shape == (2,)
        assert extra["stream_seconds"].shape == (3,)

    def test_service_flattening_accepts_stream_outputs(self):
        from repro.service.jobs import outputs_to_arrays

        out = run_rolling(iter(_spikes(46)), _cfg(max_windows=2))
        arrays = outputs_to_arrays(out)
        assert np.array_equal(arrays["coef"], out.coef)
        assert "extra_stream_stability" in arrays
        assert "extra_stream_t_end" in arrays

    def test_diff_log_and_matching_window_diffs(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with DiffLog(path) as log:
            out = run_rolling(iter(_spikes(60)), _cfg(), diff_log=log)
        events = read_events(path)
        assert [e["window"] for e in events] == [0, 1, 2]
        assert "stability" not in events[0]  # no previous network yet
        assert events[1]["t_end"] == 38
        assert events[1]["stability"] == pytest.approx(
            out.windows[1].diff.stability
        )
        assert events[2]["edges"]  # full edge list rides every event
        assert out.windows[0].diff is None

    def test_telemetry_spans_and_counters(self):
        rec = Recorder()
        with use_recorder(rec):
            run_rolling(iter(_spikes(60)), _cfg())
        spans = rec.spans_named("stream.window/")
        assert [s.name for s in spans] == [
            "stream.window/0", "stream.window/1", "stream.window/2",
        ]
        assert all(s.category == "computation" for s in spans)
        counters = rec.counter_values()
        assert counters["stream.refits"] == 3
        assert counters["stream.ticks"] == 46  # drain stops at max_windows
        assert counters["stream.edges_gained"] >= 0

    def test_on_window_callback_sees_every_fit(self):
        seen = []
        run_rolling(iter(_spikes(60)), _cfg(), on_window=seen.append)
        assert [w.index for w in seen] == [0, 1, 2]

    def test_refitter_finalize_empty_raises(self):
        refitter = RollingRefitter(_cfg(), 4)
        with pytest.raises(ValueError, match="no windows"):
            refitter.finalize()

    def test_stream_outputs_requires_windows(self):
        with pytest.raises(ValueError, match="no windows"):
            StreamOutputs([], 4, 1)


class TestPlanVerification:
    def test_verify_plan_clean_on_warm_started_plan(self):
        """A warm-started streaming plan passes the plan verifier (the
        DET/planver satellite: warm payload differences are declared in
        meta, not smuggled)."""
        from repro.analysis.planver import assert_valid_plan

        series = np.array(_spikes(40))
        first = VarPlan(VAR_CFG, series[:30], keep_paths=True)
        run_plan(first, SerialExecutor())
        warm = VarPlan(
            VAR_CFG, series[8:38], warm_start=first.selection_paths
        )
        assert_valid_plan(warm)
        run_plan(warm, SerialExecutor())

    def test_run_plan_verify_flag_on_warm_plan(self):
        series = np.array(_spikes(34))
        first = VarPlan(VAR_CFG, series[:30], keep_paths=True)
        run_plan(first, SerialExecutor())
        warm = VarPlan(
            VAR_CFG, series[4:34], warm_start=first.selection_paths
        )
        out = run_plan(warm, SerialExecutor(), verify=True)
        cold = run_plan(VarPlan(VAR_CFG, series[4:34]), SerialExecutor())
        assert np.array_equal(out.supports, cold.supports)
        assert np.array_equal(out.coef, cold.coef)
