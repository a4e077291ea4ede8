"""DYN206: the runtime lock-order observer.

Covers the wrapper mechanics (plain/reentrant locks, the Condition
protocol), the two finding shapes (observed inversion, long-held
stall), the factory gating (plain primitives when no observer is
active), and the purity contract: a service demo run with the
observer attached is bitwise-identical to an unchecked one.
"""

import threading
import time

import pytest

from repro.analysis.dynamic import (
    DynamicChecker,
    LockOrderObserver,
    current_lock_observer,
    instrumented_condition,
    instrumented_lock,
    instrumented_rlock,
    use_lock_observer,
)


class TestFactoryGating:
    def test_plain_primitives_without_observer(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREAD_CHECK", raising=False)
        assert current_lock_observer() is None
        assert type(instrumented_lock("x")) is type(threading.Lock())
        assert type(instrumented_rlock("x")) is type(threading.RLock())
        cond = instrumented_condition("x")
        assert isinstance(cond, threading.Condition)
        assert type(cond._lock) is type(threading.RLock())

    def test_env_gate_creates_global_observer(self, monkeypatch):
        import repro.analysis.dynamic as dyn

        monkeypatch.setenv("REPRO_THREAD_CHECK", "1")
        monkeypatch.setattr(dyn, "_ENV_OBSERVER", None)
        observer = current_lock_observer()
        assert isinstance(observer, LockOrderObserver)
        assert current_lock_observer() is observer  # cached singleton
        monkeypatch.setenv("REPRO_THREAD_CHECK", "0")
        monkeypatch.setattr(dyn, "_ENV_OBSERVER", None)
        assert current_lock_observer() is None

    def test_scoped_observer_wins_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREAD_CHECK", raising=False)
        observer = LockOrderObserver()
        with use_lock_observer(observer) as scoped:
            assert scoped is observer
            assert current_lock_observer() is observer
        assert current_lock_observer() is None

    def test_explicit_observer_argument(self):
        observer = LockOrderObserver()
        lock = instrumented_lock("x", observer=observer)
        with lock:
            pass
        assert observer.findings() == []


class TestInversionDetection:
    def test_observed_inversion_reports_once(self):
        observer = LockOrderObserver()
        a = instrumented_lock("A", observer=observer)
        b = instrumented_lock("B", observer=observer)
        for _ in range(3):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        findings = observer.findings()
        assert len(findings) == 1
        assert findings[0].rule == "DYN206"
        assert set(findings[0].context["edge"]) == {"A", "B"}
        assert findings[0].file.endswith("test_analysis_lock_observer.py")

    def test_consistent_order_is_clean(self):
        observer = LockOrderObserver()
        a = instrumented_lock("A", observer=observer)
        b = instrumented_lock("B", observer=observer)
        for _ in range(5):
            with a:
                with b:
                    pass
        assert observer.findings() == []

    def test_cross_thread_inversion_detected(self):
        observer = LockOrderObserver()
        a = instrumented_lock("A", observer=observer)
        b = instrumented_lock("B", observer=observer)

        with a:
            with b:
                pass

        def other() -> None:
            with b:
                with a:
                    pass

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(observer.findings()) == 1

    def test_same_name_pairs_are_ambiguous_not_edges(self):
        # Two replicas of one class share a lock name; opposite orders
        # across distinct objects are not a provable inversion.
        observer = LockOrderObserver()
        r1 = instrumented_rlock("replica", observer=observer)
        r2 = instrumented_rlock("replica", observer=observer)
        with r1:
            with r2:
                pass
        with r2:
            with r1:
                pass
        assert observer.findings() == []

    def test_reentrant_acquisition_is_not_an_edge(self):
        observer = LockOrderObserver()
        r = instrumented_rlock("R", observer=observer)
        with r:
            with r:
                pass
        assert observer.findings() == []


class TestStallDetection:
    def test_long_hold_reports_once(self):
        observer = LockOrderObserver(stall_threshold=0.05)
        lock = instrumented_lock("S", observer=observer)
        for _ in range(2):
            with lock:
                time.sleep(0.08)
        findings = observer.findings()
        assert len(findings) == 1
        assert "long-held" in findings[0].message
        assert findings[0].context["lock"] == "S"

    def test_short_hold_is_clean(self):
        observer = LockOrderObserver(stall_threshold=0.5)
        lock = instrumented_lock("S", observer=observer)
        with lock:
            pass
        assert observer.findings() == []

    def test_stall_exempt_lock_never_reports(self):
        observer = LockOrderObserver(stall_threshold=0.05)
        lock = instrumented_lock("E", observer=observer, stall_exempt=True)
        with lock:
            time.sleep(0.08)
        assert observer.findings() == []

    def test_condition_wait_time_is_not_hold_time(self):
        """The Condition protocol releases the lock during wait(); a
        long wait must not read as a long hold."""
        observer = LockOrderObserver(stall_threshold=0.15)
        cond = instrumented_condition("C", observer=observer)
        ready: list[int] = []

        def producer() -> None:
            time.sleep(0.3)  # waiter blocks well past the threshold
            with cond:
                ready.append(1)
                cond.notify()

        t = threading.Thread(target=producer)
        t.start()
        with cond:
            while not ready:
                cond.wait()
        t.join()
        assert observer.findings() == []

    def test_plain_lock_condition_wait_is_clean(self):
        """A Condition over an instrumented plain Lock routes wait
        through the wrapper's release/acquire."""
        observer = LockOrderObserver(stall_threshold=0.15)
        lock = instrumented_lock("L", observer=observer)
        cond = threading.Condition(lock)
        ready: list[int] = []

        def producer() -> None:
            time.sleep(0.3)
            with cond:
                ready.append(1)
                cond.notify()

        t = threading.Thread(target=producer)
        t.start()
        with cond:
            while not ready:
                cond.wait()
        t.join()
        assert observer.findings() == []


class TestCheckerIntegration:
    def test_observer_feeds_shared_checker(self):
        checker = DynamicChecker()
        observer = LockOrderObserver(checker)
        a = instrumented_lock("A", observer=observer)
        b = instrumented_lock("B", observer=observer)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert len(checker.findings_for("DYN206")) == 1
        assert observer.checker is checker

    def test_exercise_lock_observer_is_clean(self):
        from repro.analysis.check import _exercise_lock_observer

        checker = _exercise_lock_observer()
        assert checker.findings == []


class TestInstrumentedProduction:
    def test_progress_stream_under_observer(self):
        """Condition producer/consumer: a client blocks in
        ``stream_progress`` on the job's condition while the scheduler's
        worker notifies it once per solved subproblem."""
        import numpy as np

        from repro.core.config import UoILassoConfig
        from repro.service.jobs import JobSpec
        from repro.service.service import Service

        observer = LockOrderObserver()
        with use_lock_observer(observer):
            rng = np.random.default_rng(4)
            X = rng.standard_normal((30, 4))
            y = X @ rng.standard_normal(4)
            config = UoILassoConfig(
                n_lambdas=3,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=6,
            )
            with Service(workers=1) as service:
                job_id = service.submit(
                    JobSpec(
                        tenant="t",
                        kind="lasso",
                        data={"X": X, "y": y},
                        config=config,
                    )
                )
                events = list(service.stream_progress(job_id, poll=0.01))
        assert events[-1]["final"] and events[-1]["state"] == "done"
        last = {e["stage"]: e for e in events[:-1]}
        assert set(last) == {"selection", "estimation"}
        assert all(e["done"] == e["total"] for e in last.values())
        assert observer.findings() == []

    def test_scheduler_job_lifecycle_under_observer(self):
        import numpy as np

        from repro.core.config import UoILassoConfig
        from repro.service.jobs import JobSpec
        from repro.service.service import Service

        observer = LockOrderObserver()
        with use_lock_observer(observer):
            rng = np.random.default_rng(3)
            X = rng.standard_normal((30, 4))
            y = X @ rng.standard_normal(4)
            config = UoILassoConfig(
                n_lambdas=3,
                n_selection_bootstraps=2,
                n_estimation_bootstraps=2,
                random_state=5,
            )
            with Service(workers=2, batching=True, max_batch=2) as service:
                ids = [
                    service.submit(
                        JobSpec(
                            tenant="t",
                            kind="lasso",
                            data={"X": X, "y": y},
                            config=config,
                        )
                    )
                    for _ in range(3)
                ]
                for job_id in ids:
                    service.results(job_id, timeout=60.0)
        assert observer.findings() == []


@pytest.mark.slow
class TestDemoBitwiseIdentity:
    def test_checked_demo_is_bitwise_identical(self, tmp_path):
        """The acceptance contract: a DYN206-observed service demo run
        reproduces direct fits bitwise, exactly like an unchecked one,
        and the observer sees a clean lock discipline."""
        from repro.service.server import run_demo

        unchecked = run_demo(
            2, workers=2, store_root=str(tmp_path / "plain")
        )
        assert unchecked["identical"] is True

        observer = LockOrderObserver()
        with use_lock_observer(observer):
            checked = run_demo(
                2, workers=2, store_root=str(tmp_path / "checked")
            )
        assert checked["identical"] is True
        assert observer.findings() == []
        assert [j["state"] for j in checked["per_job"]] == [
            j["state"] for j in unchecked["per_job"]
        ]
