"""LOCK5xx static pass: rules, fixtures, suppressions, and the gate.

The seeded fixtures (`tests/fixtures/lock_order_inversion.py`,
`tests/fixtures/lock_bare_wait.py`) are asserted by exact rule ID and
line number — they are the regression contract for the pass's
precision.  The shipped-tree tests pin that ``repro check threads``
runs clean on ``src/repro`` and that the one real finding the pass
surfaced (the elastic executor's unlocked ``_procs`` teardown) stays
fixed.
"""

import os
import textwrap

import pytest

from repro.analysis.rules import RULES, THREAD_RULES
from repro.analysis.source import SourceIndex
from repro.analysis.threads import default_threads_paths, threads_check_index

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def check(source: str) -> list:
    index = SourceIndex.from_source(textwrap.dedent(source), "<test>")
    return threads_check_index(index)


class TestRuleRegistry:
    def test_thread_rules_registered(self):
        assert [r.id for r in THREAD_RULES] == [
            "LOCK501",
            "LOCK502",
            "LOCK503",
            "LOCK504",
        ]
        for rule in THREAD_RULES:
            assert RULES[rule.id] is rule
            assert rule.severity == "error"

    def test_dyn206_registered(self):
        assert RULES["DYN206"].name == "lock-order-violation"


class TestSeededFixtures:
    def test_lock_order_inversion_fixture_exact(self):
        path = os.path.join(FIXTURES, "lock_order_inversion.py")
        findings = threads_check_index(SourceIndex.from_paths([path]))
        assert [(f.rule, f.line) for f in findings] == [
            ("LOCK501", 22),
            ("LOCK501", 28),
        ]
        edges = {tuple(f.context["edge"]) for f in findings}
        assert edges == {
            ("Accounts._ledger", "Accounts._audit"),
            ("Accounts._audit", "Accounts._ledger"),
        }

    def test_bare_wait_fixture_exact(self):
        path = os.path.join(FIXTURES, "lock_bare_wait.py")
        findings = threads_check_index(SourceIndex.from_paths([path]))
        assert [(f.rule, f.line) for f in findings] == [("LOCK502", 24)]
        assert findings[0].context["lock"] == "Mailbox.cond"


class TestLockOrderInversion:
    def test_consistent_order_is_clean(self):
        assert not check(
            """
            import threading

            class Box:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.a:
                        with self.b:
                            pass
            """
        )

    def test_inversion_through_a_call_is_reported(self):
        findings = check(
            """
            import threading

            class Box:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def helper(self):
                    with self.a:
                        pass

                def one(self):
                    with self.b:
                        self.helper()

                def two(self):
                    with self.a:
                        with self.b:
                            pass
            """
        )
        assert [f.rule for f in findings] == ["LOCK501", "LOCK501"]

    def test_reentrant_same_lock_is_clean(self):
        assert not check(
            """
            import threading

            class Box:
                def __init__(self):
                    self.a = threading.RLock()

                def outer(self):
                    with self.a:
                        self.inner()

                def inner(self):
                    with self.a:
                        pass
            """
        )

    def test_cross_class_inversion_via_unique_attr(self):
        findings = check(
            """
            import threading

            class Store:
                def __init__(self):
                    self.shard = threading.Lock()

            class Sched:
                def __init__(self):
                    self.cv = threading.Condition()
                    self.store = Store()

                def claim(self, store: Store):
                    with self.cv:
                        with store.shard:
                            pass

                def publish(self, store: Store):
                    with store.shard:
                        with self.cv:
                            pass
            """
        )
        assert [f.rule for f in findings] == ["LOCK501", "LOCK501"]


class TestBareConditionWait:
    def test_while_predicate_wait_is_clean(self):
        assert not check(
            """
            import threading

            class Q:
                def __init__(self):
                    self.cond = threading.Condition()
                    self.items = []

                def take(self):
                    with self.cond:
                        while not self.items:
                            self.cond.wait()
                        return self.items.pop()
            """
        )

    def test_while_true_wait_is_reported(self):
        findings = check(
            """
            import threading

            class Q:
                def __init__(self):
                    self.cond = threading.Condition()
                    self.items = []

                def take(self):
                    with self.cond:
                        while True:
                            self.cond.wait()
            """
        )
        assert [f.rule for f in findings] == ["LOCK502"]
        assert "while True" in findings[0].message

    def test_event_wait_is_not_a_condition_wait(self):
        assert not check(
            """
            import threading

            class J:
                def __init__(self):
                    self.done = threading.Event()

                def block(self):
                    self.done.wait()
            """
        )

    def test_wait_for_is_exempt(self):
        assert not check(
            """
            import threading

            class Q:
                def __init__(self):
                    self.cond = threading.Condition()
                    self.items = []

                def take(self):
                    with self.cond:
                        self.cond.wait_for(lambda: self.items)
            """
        )

    def test_dataclass_condition_field_is_recognized(self):
        findings = check(
            """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Job:
                cond: threading.Condition = field(
                    default_factory=threading.Condition
                )
                state: str = "queued"

                def block(self):
                    with self.cond:
                        if self.state == "queued":
                            self.cond.wait()
            """
        )
        assert [f.rule for f in findings] == ["LOCK502"]


class TestUnlockedSharedWrite:
    def test_unlocked_write_is_reported(self):
        findings = check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """
        )
        assert [f.rule for f in findings] == ["LOCK503"]
        assert findings[0].context["attribute"] == "count"

    def test_init_writes_are_exempt(self):
        assert not check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self.count += 1
            """
        )

    def test_helper_called_under_lock_is_covered(self):
        assert not check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self.lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self.count += 1
            """
        )

    def test_container_mutation_counts_as_write(self):
        findings = check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self.lock:
                        self.items.append(x)

                def wipe(self):
                    self.items.clear()
            """
        )
        assert [f.rule for f in findings] == ["LOCK503"]

    def test_snapshot_and_swap_under_lock_is_clean(self):
        # The idiom the elastic shutdown fix uses.
        assert not check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.procs = []

                def start(self, p):
                    with self.lock:
                        self.procs.append(p)

                def stop(self):
                    with self.lock:
                        procs, self.procs = self.procs, []
                    for p in procs:
                        p.wait()
            """
        )


class TestBlockingUnderLock:
    def test_future_result_under_lock_is_reported(self):
        findings = check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()

                def run(self, future):
                    with self.lock:
                        return future.result()
            """
        )
        assert [f.rule for f in findings] == ["LOCK504"]
        assert findings[0].context["call"] == "result()"

    def test_sleep_under_lock_is_reported(self):
        findings = check(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self.lock = threading.Lock()

                def nap(self):
                    with self.lock:
                        time.sleep(1.0)
            """
        )
        assert [f.rule for f in findings] == ["LOCK504"]

    def test_blocking_outside_lock_is_clean(self):
        assert not check(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.n = 0

                def run(self, future):
                    with self.lock:
                        self.n += 1
                    time.sleep(0.1)
                    return future.result()
            """
        )

    def test_dict_get_is_not_blocking(self):
        assert not check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.d = {}

                def read(self, k):
                    with self.lock:
                        return self.d.get(k)
            """
        )

    def test_condition_wait_is_not_lock504(self):
        # wait() releases the lock while blocked — only LOCK502 applies.
        findings = check(
            """
            import threading

            class C:
                def __init__(self):
                    self.cond = threading.Condition()
                    self.ready = False

                def block(self):
                    with self.cond:
                        while not self.ready:
                            self.cond.wait()
            """
        )
        assert findings == []


class TestExplicitAcquire:
    """``lock.acquire()`` holds the lock for the statements after it,
    up to the ``release()`` (a ``finally`` included) or the body's end."""

    def test_blocking_after_acquire_is_reported(self):
        findings = check(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self.lock = threading.Lock()

                def nap(self):
                    self.lock.acquire()
                    time.sleep(1.0)
                    self.lock.release()
                    time.sleep(1.0)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("LOCK504", 11)]

    def test_try_finally_release_ends_the_hold(self):
        findings = check(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self.lock = threading.Lock()

                def nap(self, future):
                    self.lock.acquire()
                    try:
                        future.result()
                    finally:
                        self.lock.release()
                    time.sleep(1.0)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("LOCK504", 12)]

    def test_lock_taken_after_acquire_makes_an_edge(self):
        findings = check(
            """
            import threading

            class Box:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    self.a.acquire()
                    with self.b:
                        pass
                    self.a.release()

                def two(self):
                    with self.b:
                        with self.a:
                            pass
            """
        )
        assert [f.rule for f in findings] == ["LOCK501", "LOCK501"]
        assert {tuple(f.context["edge"]) for f in findings} == {
            ("Box.a", "Box.b"), ("Box.b", "Box.a"),
        }

    def test_released_lock_makes_no_edge(self):
        assert not check(
            """
            import threading

            class Box:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    self.a.acquire()
                    self.a.release()
                    with self.b:
                        pass

                def two(self):
                    with self.b:
                        with self.a:
                            pass
            """
        )


class TestSuppressions:
    SOURCE = """
        import threading

        class C:
            def __init__(self):
                self.lock = threading.Lock()

            def run(self, future):
                with self.lock:
                    return future.result(){suffix}
        """

    def test_targeted_suppression_silences(self):
        assert not check(self.SOURCE.format(suffix="  # repro: ignore[LOCK504]"))

    def test_stale_lock_suppression_is_sup001(self):
        findings = check(
            """
            import threading

            class C:
                def __init__(self):
                    self.lock = threading.Lock()  # repro: ignore[LOCK501]
            """
        )
        assert [f.rule for f in findings] == ["SUP001"]

    def test_foreign_family_suppressions_are_not_audited(self):
        # A SHAPE directive in scanned source is not this pass's business.
        assert not check(
            """
            import numpy as np

            def f(x):
                return x + np.eye(3)  # repro: ignore[SHAPE102]
            """
        )


class TestShippedTree:
    def test_src_repro_is_clean(self):
        """The gate: zero LOCK findings over the whole package."""
        index = SourceIndex.from_paths(default_threads_paths())
        assert threads_check_index(index) == []

    def test_default_paths_is_package_root(self):
        (root,) = default_threads_paths()
        assert os.path.basename(root) == "repro"

    def test_elastic_shutdown_swaps_procs_under_lock(self):
        """Regression pin for the LOCK503 finding this pass surfaced:
        ``ElasticExecutor.shutdown`` used to clear ``self._procs``
        after releasing ``_lock``, racing ``ensure_fleet``.  The fix
        snapshots-and-swaps under the lock; re-introducing the
        unlocked ``clear()`` must re-fire LOCK503."""
        import inspect

        from repro.engine import elastic

        source = inspect.getsource(elastic.ElasticExecutor.shutdown)
        assert "procs, self._procs = self._procs, []" in source
        assert "self._procs.clear()" not in source

        broken = source.replace(
            "            procs, self._procs = self._procs, []\n", ""
        ).replace("for proc in procs:", "for proc in self._procs:")
        module = (
            "import subprocess\nimport threading\nimport time\n\n\n"
            "class ElasticExecutor:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._closed = False\n"
            "        self._procs = []\n"
            "        self.hub = None\n\n"
            "    def ensure_fleet(self):\n"
            "        with self._lock:\n"
            "            self._procs.append(object())\n\n"
            + broken
            + "        self._procs.clear()\n"
        )
        index = SourceIndex.from_source(module, "<broken-shutdown>")
        findings = threads_check_index(index)
        assert any(
            f.rule == "LOCK503" and f.context["attribute"] == "_procs"
            for f in findings
        )

    def test_elastic_run_stage_suppression_is_live(self):
        """The intentional whole-stage serialization keeps its
        documented LOCK504 suppression; if the lock scope ever shrinks
        the directive goes stale and SUP001 fires here."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "engine", "elastic.py"
        )
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        assert source.count("repro: ignore[LOCK504]") == 1
        assert threads_check_index(SourceIndex.from_paths([path])) == []


class TestCheckWiring:
    def test_threads_mode_in_cli_and_api(self):
        from repro.analysis.check import MODES, run_check

        assert "threads" in MODES
        assert run_check("threads") == []

    def test_sarif_includes_lock_rules(self):
        """LOCK/DYN206 findings export with full registry metadata."""
        import json

        from repro.analysis.findings import Finding
        from repro.analysis.rules import get_rule
        from repro.analysis.sarif import findings_to_sarif

        index = SourceIndex.from_paths(
            [
                os.path.join(FIXTURES, "lock_order_inversion.py"),
                os.path.join(FIXTURES, "lock_bare_wait.py"),
            ]
        )
        findings = threads_check_index(index)
        dyn = get_rule("DYN206")
        findings.append(
            Finding(
                rule=dyn.id,
                severity=dyn.severity,
                message="lock-order inversion observed",
                file="<runtime>",
                line=0,
                source="dynamic",
                context={},
            )
        )
        sarif = json.loads(findings_to_sarif(findings))
        (run,) = sarif["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert {"LOCK501", "LOCK502", "DYN206"} <= set(rules)
        assert rules["LOCK501"]["defaultConfiguration"]["level"] == "error"
        assert {r["ruleId"] for r in run["results"]} == set(rules)


@pytest.mark.parametrize("path", ["lock_order_inversion.py", "lock_bare_wait.py"])
def test_fixtures_are_importable(path):
    """The seeded fixtures must stay valid Python (ast.parse targets)."""
    with open(os.path.join(FIXTURES, path), "r", encoding="utf-8") as fh:
        compile(fh.read(), path, "exec")
