"""DYN207 allocation observer: nothing patched unless installed,
bitwise identity, interval attribution, the static↔runtime
cross-check, and the ``repro check alloc`` CLI surface."""

import json
import os
import pickle
import sys

import numpy as np
import pytest

import repro.analysis.allocobs as allocobs
from repro.analysis.allocobs import (
    PATCHED_CONSTRUCTORS,
    AllocationHook,
    AllocationObserver,
    _SiteStats,
    cross_check,
)
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _reference_outputs(hooks=()):
    from repro.analysis.check import _reference_plans
    from repro.engine import SerialExecutor, run_plan

    return [
        pickle.dumps(run_plan(plan, SerialExecutor(), hooks=hooks))
        for plan in _reference_plans()
    ]


class TestDisabledCost:
    def test_constructors_unpatched_when_disabled(self):
        # The plain-span path is byte-for-byte numpy: nothing wrapped,
        # nothing traced.  (np.kron carries numpy's own __wrapped__, so
        # probe for OUR wrapper by module instead.)
        for name in PATCHED_CONSTRUCTORS:
            module = getattr(getattr(np, name), "__module__", "")
            assert module != allocobs.__name__, name


class TestObserver:
    def test_install_patches_and_uninstall_restores(self):
        observer = AllocationObserver()
        pristine = {n: getattr(np, n) for n in PATCHED_CONSTRUCTORS}
        observer.install()
        try:
            for name in PATCHED_CONSTRUCTORS:
                assert getattr(np, name).__wrapped__ is pristine[name]
        finally:
            observer.uninstall()
        for name in PATCHED_CONSTRUCTORS:
            assert getattr(np, name) is pristine[name]

    def test_install_is_reference_counted(self):
        observer = AllocationObserver()
        observer.install()
        observer.install()
        observer.uninstall()
        assert hasattr(np.zeros, "__wrapped__")
        observer.uninstall()
        assert not hasattr(np.zeros, "__wrapped__")

    def test_wrapped_results_identical(self):
        observer = AllocationObserver()
        observer.install()
        try:
            a = np.zeros(5)
            b = np.full((2, 2), 3.0)
        finally:
            observer.uninstall()
        assert a.tobytes() == np.zeros(5).tobytes()
        assert b.tobytes() == np.full((2, 2), 3.0).tobytes()

    def test_interval_attribution(self):
        observer = AllocationObserver()
        observer.install()
        try:
            observer.begin_interval()
            keep = np.zeros(1024)  # retained: shows in net and sites
            np.ones(2048)  # temporary churn: shows in peak and sites
            record = observer.end_interval("first", type="subproblem")
        finally:
            observer.uninstall()
        assert keep.shape == (1024,)
        assert record["constructor_calls"] == 2
        assert record["constructor_bytes"] == 1024 * 8 + 2048 * 8
        assert record["net_bytes"] >= 1024 * 8
        assert record["peak_bytes"] >= record["net_bytes"]
        # Both constructor calls attribute to THIS code: the file name
        # its code object was compiled with (a copied tree's stale
        # bytecode names the original path, not ``__file__``).
        here = os.path.abspath(sys._getframe().f_code.co_filename)
        assert all(here in site for site in record["sites"])

    def test_site_totals_accumulate_across_intervals(self):
        observer = AllocationObserver()
        observer.install()
        try:
            for _ in range(3):
                observer.begin_interval()
                np.empty(16)
                observer.end_interval("step", type="subproblem")
        finally:
            observer.uninstall()
        totals = observer.site_totals()
        ((_site, stats),) = [
            (s, v) for s, v in totals.items() if v["calls"] == 3
        ]
        assert stats["bytes"] == 3 * 16 * 8

    def test_export_jsonl(self, tmp_path):
        observer = AllocationObserver()
        observer.install()
        try:
            observer.begin_interval()
            np.zeros(4)
            observer.end_interval("only", type="subproblem", key="k")
        finally:
            observer.uninstall()
        out = tmp_path / "profile.jsonl"
        observer.export_jsonl(str(out))
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["label"] == "only"
        assert lines[0]["key"] == "k"
        assert lines[-1]["label"] == "sites"
        assert lines[-1]["sites"]


class TestHookOnRealRuns:
    def test_observed_fit_bitwise_identical_and_attributed(self):
        plain = _reference_outputs()
        observer = AllocationObserver()
        observed = _reference_outputs(hooks=(AllocationHook(observer),))
        assert plain == observed
        subs = observer.subproblem_records()
        assert subs
        for record in subs:
            assert record["stage"] in ("selection", "estimation")
            assert "bootstrap" in record and "lam_index" in record
            assert record["peak_bytes"] >= 0
        # Reduction allocations land in stage records, not tasks.
        assert any(r["type"] == "stage" for r in observer.records)
        assert observer.records[-1]["type"] == "run-tail"
        # The hook uninstalled on run end.
        assert not hasattr(np.zeros, "__wrapped__")


class TestCrossCheck:
    def _observer_with_site(self, path, line, calls, nbytes, tasks=2):
        observer = AllocationObserver()
        stats = _SiteStats()
        stats.calls = calls
        stats.nbytes = nbytes
        observer.sites[(path, line)] = stats
        for i in range(tasks):
            observer.records.append(
                {"label": f"subproblem:{i}", "type": "subproblem"}
            )
        return observer

    def test_unflagged_runtime_hotspot_is_dyn207(self):
        path = "/scanned/hot.py"
        observer = self._observer_with_site(path, 10, calls=64, nbytes=2**21)
        findings, downgrades = cross_check(set(), observer, {path})
        assert [f.rule for f in findings] == ["DYN207"]
        assert findings[0].file == path and findings[0].line == 10
        assert findings[0].source == "dynamic"
        assert downgrades == []

    def test_statically_known_site_not_reported(self):
        path = "/scanned/hot.py"
        observer = self._observer_with_site(path, 10, calls=64, nbytes=2**21)
        findings, downgrades = cross_check({(path, 10)}, observer, {path})
        assert findings == []
        assert downgrades == []

    def test_cold_site_below_thresholds_not_reported(self):
        path = "/scanned/hot.py"
        # Plenty of calls but tiny bytes; then big bytes but few calls.
        few = self._observer_with_site(path, 10, calls=64, nbytes=512)
        assert cross_check(set(), few, {path})[0] == []
        small = self._observer_with_site(path, 10, calls=3, nbytes=2**21)
        assert cross_check(set(), small, {path})[0] == []

    def test_unscanned_file_out_of_scope(self):
        observer = self._observer_with_site(
            "/elsewhere/test_foo.py", 10, calls=64, nbytes=2**21
        )
        findings, _ = cross_check(set(), observer, {"/scanned/hot.py"})
        assert findings == []

    def test_static_site_never_allocating_is_downgraded(self):
        path = "/scanned/hot.py"
        observer = AllocationObserver()
        observer.records.append({"label": "subproblem:0", "type": "subproblem"})
        findings, downgrades = cross_check({(path, 42)}, observer, {path})
        assert findings == []
        assert downgrades == [(path, 42)]


class TestCheckAllocCli:
    def test_human_mode_clean_tree(self, capsys):
        assert main(["check", "alloc"]) == 0
        assert "findings: none" in capsys.readouterr().out

    def test_json_mode_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        assert main(["check", "alloc", "--format", "json", "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        doc = json.loads(stdout[: stdout.rfind("wrote ")])
        assert doc["schema"] == 1 and doc["count"] == 0
        artifact = json.loads(out.read_text())
        assert artifact["count"] == 0 and artifact["findings"] == []
        assert "wrote " + str(out) in stdout

    def test_sarif_mode(self, capsys):
        assert main(["check", "alloc", "--format", "sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"] == []

    def test_profile_out_artifact(self, tmp_path, capsys):
        profile = tmp_path / "alloc-profile.jsonl"
        assert main(["check", "alloc", "--profile-out", str(profile)]) == 0
        lines = [
            json.loads(line) for line in profile.read_text().splitlines()
        ]
        assert any(r.get("type") == "subproblem" for r in lines)
        assert lines[-1]["label"] == "sites"

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        fixture = os.path.join(FIXTURES, "alloc_missed_inplace.py")
        out = tmp_path / "f.json"
        code = main(
            ["check", "alloc", "--path", fixture, "-o", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert [f["rule"] for f in doc["findings"]] == ["ALLOC603"]
        assert doc["findings"][0]["line"] == 17

    def test_static_mode_includes_alloc_pass(self, tmp_path):
        # `repro check static` runs the AST pass (no runtime battery):
        # a seeded fixture must fail it.
        fixture = os.path.join(FIXTURES, "alloc_loop_allocation.py")
        assert main(["check", "static", "--path", fixture]) == 1


@pytest.mark.parametrize("mode", ["alloc"])
def test_run_check_alloc_clean(mode):
    from repro.analysis.check import run_check

    assert run_check(mode) == []
