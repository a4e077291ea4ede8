"""Tests for the DET determinism-taint pass (``repro.analysis.determinism``)."""

import os
import textwrap

from repro.analysis.determinism import (
    default_determinism_paths,
    determinism_check_index,
)
from repro.analysis.source import SourceIndex

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "det_time_in_run_chain.py"
)

PLAN_HEADER = """\
class UoIPlan:
    pass


"""


def check(code: str):
    index = SourceIndex.from_source(PLAN_HEADER + textwrap.dedent(code), "prog.py")
    return determinism_check_index(index)


class TestWallClock:
    def test_time_in_run_chain_flagged(self):
        findings = check(
            """\
            import time

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    t0 = time.time()
                    return t0
            """
        )
        assert [f.rule for f in findings] == ["DET301"]
        assert "run_chain" in findings[0].message

    def test_perf_counter_in_reduce_flagged(self):
        findings = check(
            """\
            import time

            class P(UoIPlan):
                def reduce(self, stage, results):
                    return time.perf_counter()
            """
        )
        assert [f.rule for f in findings] == ["DET301"]

    def test_init_is_exempt(self):
        # The contract *requires* draws (and timing is harmless) in
        # __init__: only run_chain/reduce root the traversal.
        findings = check(
            """\
            import time

            class P(UoIPlan):
                def __init__(self):
                    self.t0 = time.time()
            """
        )
        assert findings == []

    def test_non_plan_class_untainted(self):
        findings = check(
            """\
            import time

            class Telemetry:
                def run_chain(self, stage, tasks, recovered, emit):
                    return time.time()
            """
        )
        assert findings == []


class TestOsOrdering:
    def test_listdir_flagged(self):
        findings = check(
            """\
            import os

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return os.listdir(".")
            """
        )
        assert [f.rule for f in findings] == ["DET302"]

    def test_sorted_listdir_clean(self):
        findings = check(
            """\
            import os

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return sorted(os.listdir("."))
            """
        )
        assert findings == []


class TestSetIteration:
    def test_local_set_iteration_flagged(self):
        findings = check(
            """\
            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    keys = {t.key for t in tasks}
                    for key in keys:
                        emit(key, None)
            """
        )
        assert [f.rule for f in findings] == ["DET303"]

    def test_sorted_set_iteration_clean(self):
        findings = check(
            """\
            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    keys = {t.key for t in tasks}
                    for key in sorted(keys):
                        emit(key, None)
            """
        )
        assert findings == []


class TestUnseededRng:
    def test_unseeded_default_rng_flagged(self):
        findings = check(
            """\
            import numpy as np

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return np.random.default_rng().normal()
            """
        )
        assert [f.rule for f in findings] == ["DET304"]

    def test_seeded_default_rng_clean(self):
        findings = check(
            """\
            import numpy as np

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return np.random.default_rng(7).normal()
            """
        )
        assert findings == []

    def test_stdlib_random_flagged(self):
        findings = check(
            """\
            import random

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return random.shuffle(tasks)
            """
        )
        assert [f.rule for f in findings] == ["DET304"]


class TestReachability:
    def test_taint_crosses_helper_calls_with_path(self):
        findings = check(
            """\
            import time

            def helper():
                return time.time()

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return self.solve()

                def solve(self):
                    return helper()
            """
        )
        assert [f.rule for f in findings] == ["DET301"]
        assert findings[0].context["path"] == [
            "P.run_chain",
            "P.solve",
            "helper",
        ]

    def test_unreachable_code_untainted(self):
        findings = check(
            """\
            import time

            def helper():
                return time.time()

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return None
            """
        )
        assert findings == []

    def test_suppression(self):
        findings = check(
            """\
            import time

            class P(UoIPlan):
                def run_chain(self, stage, tasks, recovered, emit):
                    return time.time()  # repro: ignore[DET301]
            """
        )
        assert findings == []


class TestSeededFixture:
    def test_fixture_yields_exact_rules_and_lines(self):
        findings = determinism_check_index(SourceIndex.from_paths([FIXTURE]))
        assert [(f.rule, f.line) for f in findings] == [
            ("DET301", 27),
            ("DET302", 32),
            ("DET304", 33),
            ("DET303", 36),
        ]
        assert all(f.file == FIXTURE for f in findings)
        # The reachability path names how each source is reached.
        assert findings[0].context["path"] == ["TimedPlan.run_chain"]
        assert findings[1].context["path"] == [
            "TimedPlan.run_chain",
            "TimedPlan._solve",
        ]


class TestRepoGate:
    def test_installed_package_checks_clean(self):
        # The acceptance gate: nothing reachable from any shipped
        # plan's run_chain/reduce reads clocks, fs order, or entropy.
        index = SourceIndex.from_paths(default_determinism_paths())
        assert determinism_check_index(index) == []


class TestExclusionList:
    def test_excluded_subpackages_exactly(self):
        """The DET exclusion list is a reviewed contract — a new entry
        must update this test (and docs/static-analysis.md) with the
        rationale for why the package can never taint plan arithmetic."""
        from repro.analysis.determinism import EXCLUDED_SUBPACKAGES

        assert EXCLUDED_SUBPACKAGES == (
            "telemetry",
            "simmpi",
            "analysis",
            "perf",
            "service",
            # Coordinator + elastic transport: lease timing, straggler
            # percentiles and join/leave read the monotonic clock by
            # design, but payloads all come out of UoIPlan.run_chain
            # and replay through hooks in deterministic chain order —
            # no clock value reaches plan arithmetic.  The in-process
            # transports module deliberately stays scanned.
            "coordinator",
            "elastic",
            # Streaming ingest/refit: tick timestamps, buffer timeouts
            # and per-window wall-clock seconds are the subsystem's job;
            # window numerics all come from VarPlans (scanned), and
            # StreamConfig(verify=True) asserts them bitwise-equal to a
            # cold batch fit.  The pure-compute modules (window, diff)
            # are carved back in via SCANNED_EXCEPTIONS below.
            "stream",
        )

    def test_scanned_exceptions_exactly(self):
        """The carve-back list is a reviewed contract too: only the
        pure-compute stream modules (no sockets, no clocks, no thread
        scheduling) may be scanned from inside an excluded package."""
        from repro.analysis.determinism import SCANNED_EXCEPTIONS

        assert SCANNED_EXCEPTIONS == (
            # Incremental lag-window products: pure array arithmetic
            # feeding window fits directly.
            "repro.stream.window",
            # Network-diff arithmetic over fitted adjacency matrices.
            "repro.stream.diff",
        )

    def test_coordinator_and_elastic_modules_are_excluded(self):
        """The orchestration layer reads monotonic clocks (lease ages,
        speculation thresholds) by design; the taint pass must skip
        exactly those two modules while still scanning transports.py,
        which calls straight into plan code."""
        from repro.analysis.determinism import _excluded

        assert _excluded("repro.engine.coordinator")
        assert _excluded("repro.engine.elastic")
        assert not _excluded("repro.engine.transports")
        assert not _excluded("repro.engine.plan")
        assert not _excluded("repro.engine.plans")

    def test_engine_package_scan_is_clean(self):
        """Scanning the whole engine package (exclusions applied the
        way the CLI gate applies them) yields no DET findings — the
        clock reads all live in the excluded orchestration modules."""
        import glob
        import os

        from repro.analysis.determinism import _excluded
        from repro.analysis.source import module_name

        engine_dir = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "engine"
        )
        paths = sorted(glob.glob(os.path.join(engine_dir, "*.py")))
        assert paths, "engine package not found"
        kept = [p for p in paths if not _excluded(module_name(p))]
        assert any(p.endswith("transports.py") for p in kept)
        assert not any(p.endswith("coordinator.py") for p in kept)
        assert not any(p.endswith("elastic.py") for p in kept)
        assert determinism_check_index(SourceIndex.from_paths(kept)) == []

    def test_service_modules_are_excluded(self):
        """repro.service uses wall clocks, threads and sockets by design
        (job ordering, Lamport stamps); the taint pass must skip it."""
        import glob
        import os

        service_dir = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "service"
        )
        paths = sorted(glob.glob(os.path.join(service_dir, "*.py")))
        assert paths, "service package not found"
        assert determinism_check_index(SourceIndex.from_paths(paths)) == []

    def test_stream_modules_are_excluded(self):
        """repro.stream reads clocks and sockets by design (ingestion
        timestamps, cadence pacing); its window numerics come from
        VarPlans, which the pass scans via the engine package.  The
        two pure-compute modules are carved back into the scan."""
        from repro.analysis.determinism import _excluded

        assert _excluded("repro.stream.ingest")
        assert _excluded("repro.stream.refit")
        assert not _excluded("repro.stream.window")
        assert not _excluded("repro.stream.diff")
        assert not _excluded("repro.engine.plans")

    def test_stream_pure_modules_scan_clean(self):
        """The carved-back stream modules pass the taint scan with zero
        findings and zero suppressions — they are pure computation."""
        import os

        stream_dir = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "stream"
        )
        paths = [
            os.path.join(stream_dir, "window.py"),
            os.path.join(stream_dir, "diff.py"),
        ]
        for path in paths:
            assert os.path.exists(path), path
            with open(path, "r", encoding="utf-8") as fh:
                assert "repro: ignore" not in fh.read()
        assert determinism_check_index(SourceIndex.from_paths(paths)) == []

    def test_default_paths_skip_excluded_packages(self):
        from repro.analysis.determinism import (
            EXCLUDED_SUBPACKAGES,
            default_determinism_paths,
        )

        sep = os.sep
        for path in default_determinism_paths():
            for sub in EXCLUDED_SUBPACKAGES:
                assert f"{sep}{sub}{sep}" not in path
