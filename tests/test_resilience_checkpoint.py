"""Tests for the checkpoint store, sessions, and serial-estimator resume."""

import json
import os

import numpy as np
import pytest

from repro.core import UoILasso, UoIVar
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.resilience import (
    CheckpointCorruption,
    CheckpointPlan,
    CheckpointSession,
    CheckpointStore,
)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpt")


class TestCheckpointStore:
    def test_save_load_roundtrip_is_bitwise(self, store):
        beta = np.random.default_rng(0).normal(size=17)
        mask = beta > 0
        store.save("sel/k0/j3", {"beta": beta, "mask": mask})
        rec = store.load("sel/k0/j3")
        assert rec["beta"].tobytes() == beta.tobytes()
        np.testing.assert_array_equal(rec["mask"], mask)

    def test_absent_key_returns_none(self, store):
        assert store.load("nope") is None
        assert "nope" not in store
        assert len(store) == 0

    def test_contains_keys_len_nbytes(self, store):
        store.save("a/k0", {"x": np.ones(3)})
        store.save("b/k1", {"x": np.zeros(5)})
        assert "a/k0" in store and "b/k1" in store
        assert store.keys() == ["a/k0", "b/k1"]
        assert len(store) == 2
        assert store.nbytes("a/k0") > 0

    def test_version_increments_on_every_mutation(self, store):
        v0 = store.version
        store.save("a", {"x": np.ones(1)})
        v1 = store.version
        store.save("a", {"x": np.zeros(1)})  # overwrite is a mutation too
        v2 = store.version
        assert v0 < v1 < v2

    def test_reopen_sees_existing_records(self, store):
        store.save("a", {"x": np.arange(4.0)})
        reopened = CheckpointStore(store.root)
        assert "a" in reopened
        np.testing.assert_array_equal(reopened.load("a")["x"], np.arange(4.0))
        assert reopened.version == store.version

    def test_empty_record_rejected(self, store):
        with pytest.raises(ValueError):
            store.save("a", {})

    def test_corrupted_payload_detected(self, store):
        store.save("a", {"x": np.ones(8)})
        fname = json.load(open(store.root / "MANIFEST.json"))["records"]["a"]["file"]
        path = store.root / "records" / fname
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF  # bit rot
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruption, match="checksum"):
            store.load("a")
        assert store.load("a", verify=False) is not None
        assert store.verify() == ["a"]

    def test_missing_record_file_detected(self, store):
        store.save("a", {"x": np.ones(2)})
        fname = json.load(open(store.root / "MANIFEST.json"))["records"]["a"]["file"]
        os.unlink(store.root / "records" / fname)
        with pytest.raises(CheckpointCorruption, match="missing"):
            store.load("a")
        assert store.verify() == ["a"]

    def test_clear_drops_records_keeps_meta(self, store):
        store.ensure_meta({"kind": "t"})
        store.save("a", {"x": np.ones(2)})
        store.clear()
        assert len(store) == 0
        assert store.load("a") is None
        assert store.meta == {"kind": "t"}

    def test_ensure_meta_pins_and_rejects_mismatch(self, store):
        store.ensure_meta({"kind": "uoi_lasso", "n": 96})
        store.ensure_meta({"kind": "uoi_lasso", "n": 96})  # idempotent
        with pytest.raises(ValueError, match="different run"):
            store.ensure_meta({"kind": "uoi_lasso", "n": 97})

    def test_colliding_key_sanitizations_stay_distinct(self, store):
        store.save("sel/k0:j1", {"x": np.ones(1)})
        store.save("sel/k0!j1", {"x": np.zeros(1)})
        np.testing.assert_array_equal(store.load("sel/k0:j1")["x"], np.ones(1))
        np.testing.assert_array_equal(store.load("sel/k0!j1")["x"], np.zeros(1))


class TestCheckpointSession:
    def test_inactive_session_is_noop(self):
        s = CheckpointSession(None)
        assert not s.active
        s.ensure_meta({"kind": "t"})
        assert s.lookup("a") is None
        s.record("a", {"x": np.ones(1)})
        s.flush()
        assert s.completed == 1 and s.saved == 0 and s.recovered == 0

    def test_cadence_buffers_flushes(self, store):
        plan = CheckpointPlan(store, cadence=3)
        s = CheckpointSession(plan)
        for i in range(5):
            s.record(f"k{i}", {"x": np.full(2, float(i))})
        assert len(store) == 3  # one full batch flushed, 2 buffered
        s.flush()
        assert len(store) == 5
        assert s.saved == 5 and s.completed == 5

    def test_cadence_zero_never_writes(self, store):
        s = CheckpointSession(CheckpointPlan(store, cadence=0))
        s.record("a", {"x": np.ones(1)})
        s.flush()
        assert len(store) == 0

    def test_non_writer_never_writes_but_reads(self, store):
        store.save("a", {"x": np.ones(1)})
        s = CheckpointSession(CheckpointPlan(store), writer=False)
        assert s.lookup("a") is not None
        assert s.recovered == 1
        s.record("b", {"x": np.ones(1)})
        s.flush()
        assert "b" not in store

    def test_resume_false_skips_lookup(self, store):
        store.save("a", {"x": np.ones(1)})
        s = CheckpointSession(CheckpointPlan(store, resume=False))
        assert s.lookup("a") is None
        assert s.recovered == 0

    def test_invalid_cadence_rejected(self, store):
        with pytest.raises(ValueError):
            CheckpointPlan(store, cadence=-1)


class TestSerialResume:
    def test_uoi_lasso_resume_is_bitwise_identical(self, tmp_path):
        ds = make_sparse_regression(
            60, 8, n_informative=3, snr=10.0, rng=np.random.default_rng(3)
        )
        kw = dict(n_lambdas=5, n_selection_bootstraps=3,
                  n_estimation_bootstraps=3, random_state=9)
        plain = UoILasso(**kw).fit(ds.X, ds.y)

        plan = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        first = UoILasso(**kw).fit(ds.X, ds.y, checkpoint=plan)
        assert first.recovered_subproblems_ == 0
        assert first.completed_subproblems_ == 6
        assert first.coef_.tobytes() == plain.coef_.tobytes()

        resumed = UoILasso(**kw).fit(ds.X, ds.y, checkpoint=plan)
        assert resumed.recovered_subproblems_ == 6
        assert resumed.completed_subproblems_ == 0
        assert resumed.coef_.tobytes() == plain.coef_.tobytes()
        np.testing.assert_array_equal(resumed.supports_, plain.supports_)
        assert resumed.losses_.tobytes() == plain.losses_.tobytes()
        np.testing.assert_array_equal(resumed.winners_, plain.winners_)

    def test_uoi_lasso_partial_resume(self, tmp_path):
        ds = make_sparse_regression(
            60, 8, n_informative=3, snr=10.0, rng=np.random.default_rng(3)
        )
        kw = dict(n_lambdas=5, n_selection_bootstraps=4,
                  n_estimation_bootstraps=3, random_state=9)
        plain = UoILasso(**kw).fit(ds.X, ds.y)

        store = CheckpointStore(tmp_path / "s")
        UoILasso(**kw).fit(ds.X, ds.y, checkpoint=CheckpointPlan(store))
        # Lose some records (as a cadence>1 crash would): resume must
        # recompute exactly those and still match bitwise.
        dropped = [k for k in store.keys() if k in
                   ("serial-sel/k2", "serial-est/k1")]
        assert len(dropped) == 2
        full = {k: store.load(k) for k in store.keys() if k not in dropped}
        store.clear()
        for k, rec in full.items():
            store.save(k, rec)
        resumed = UoILasso(**kw).fit(
            ds.X, ds.y, checkpoint=CheckpointPlan(store)
        )
        assert resumed.recovered_subproblems_ == 5
        assert resumed.completed_subproblems_ == 2
        assert resumed.coef_.tobytes() == plain.coef_.tobytes()
        assert resumed.losses_.tobytes() == plain.losses_.tobytes()

    def test_uoi_lasso_meta_mismatch_rejected(self, tmp_path):
        ds = make_sparse_regression(
            40, 6, n_informative=2, snr=10.0, rng=np.random.default_rng(3)
        )
        plan = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        UoILasso(n_lambdas=4, n_selection_bootstraps=2,
                 n_estimation_bootstraps=2).fit(ds.X, ds.y, checkpoint=plan)
        with pytest.raises(ValueError, match="different run"):
            UoILasso(n_lambdas=4, n_selection_bootstraps=3,
                     n_estimation_bootstraps=2).fit(ds.X, ds.y, checkpoint=plan)

    def test_solver_fields_are_part_of_the_store_identity(self, tmp_path):
        """A store written at rho=1.0 (the former default) refuses a
        rerun at the spectral default — its payloads are the iterates of
        another penalty — and still resumes bitwise at rho=1.0."""
        ds = make_sparse_regression(
            60, 8, n_informative=3, snr=10.0, rng=np.random.default_rng(3)
        )
        kw = dict(n_lambdas=4, n_selection_bootstraps=2,
                  n_estimation_bootstraps=2, random_state=9)
        plain = UoILasso(rho=1.0, **kw).fit(ds.X, ds.y)
        plan = CheckpointPlan(CheckpointStore(tmp_path / "s"))
        UoILasso(rho=1.0, **kw).fit(ds.X, ds.y, checkpoint=plan)
        for other in (dict(rho=None), dict(rho=1.0, max_iter=400),
                      dict(rho=1.0, reltol=1e-3), dict(rho=1.0, solver="cd")):
            with pytest.raises(ValueError, match="different run"):
                UoILasso(**kw, **other).fit(ds.X, ds.y, checkpoint=plan)
        resumed = UoILasso(rho=1.0, **kw).fit(ds.X, ds.y, checkpoint=plan)
        assert resumed.recovered_subproblems_ == 4
        assert resumed.completed_subproblems_ == 0
        assert resumed.coef_.tobytes() == plain.coef_.tobytes()

    def test_uoi_var_store_refuses_another_rho(self, tmp_path):
        ds = make_sparse_var(4, 60, rng=np.random.default_rng(5))
        kw = dict(order=1, n_lambdas=3, n_selection_bootstraps=2,
                  n_estimation_bootstraps=2, random_state=2)
        plan = CheckpointPlan(CheckpointStore(tmp_path / "v"))
        UoIVar(rho=1.0, **kw).fit(ds.series, checkpoint=plan)
        with pytest.raises(ValueError, match="different run"):
            UoIVar(**kw).fit(ds.series, checkpoint=plan)
        resumed = UoIVar(rho=1.0, **kw).fit(ds.series, checkpoint=plan)
        assert resumed.recovered_subproblems_ == 4

    def test_uoi_var_resume_is_bitwise_identical(self, tmp_path):
        ds = make_sparse_var(4, 60, rng=np.random.default_rng(5))
        kw = dict(order=1, n_lambdas=4, n_selection_bootstraps=3,
                  n_estimation_bootstraps=2, random_state=2)
        plain = UoIVar(**kw).fit(ds.series)

        plan = CheckpointPlan(CheckpointStore(tmp_path / "v"))
        UoIVar(**kw).fit(ds.series, checkpoint=plan)
        resumed = UoIVar(**kw).fit(ds.series, checkpoint=plan)
        assert resumed.recovered_subproblems_ == 5
        assert resumed.completed_subproblems_ == 0
        assert resumed.vec_coef_.tobytes() == plain.vec_coef_.tobytes()
        np.testing.assert_array_equal(resumed.supports_, plain.supports_)
        assert resumed.losses_.tobytes() == plain.losses_.tobytes()
        for a, b in zip(resumed.coefs_, plain.coefs_):
            assert a.tobytes() == b.tobytes()


class TestCheckpointStoreConcurrency:
    def test_racing_writers_never_leave_a_torn_entry(self, store):
        """Two writers race the same key behind a barrier: the surviving
        record must be exactly one writer's full payload — named arrays
        from different writers never interleave — and its manifest
        checksum must verify (a torn write would fail ``load``)."""
        import threading

        payloads = {
            tid: {
                "coef": np.full(64, float(tid)),
                "tag": np.array([tid], dtype=np.int64),
            }
            for tid in (1, 2)
        }
        errors = []
        for round_no in range(10):
            key = f"raced/k{round_no}"
            barrier = threading.Barrier(2)

            def write(tid, key=key, barrier=barrier):
                try:
                    barrier.wait(5.0)
                    store.save(key, payloads[tid])
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=write, args=(tid,)) for tid in (1, 2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            got = store.load(key)  # checksum-verified read
            assert got is not None
            winner = int(got["tag"][0])
            assert winner in (1, 2)
            np.testing.assert_array_equal(
                got["coef"], payloads[winner]["coef"]
            )

    def test_reopen_after_racing_writers_is_consistent(self, tmp_path):
        import threading

        store = CheckpointStore(tmp_path / "race")
        barrier = threading.Barrier(4)

        def write(tid):
            barrier.wait(5.0)
            for i in range(8):
                store.save(f"t{tid}/k{i}", {"x": np.full(8, float(tid))})

        threads = [
            threading.Thread(target=write, args=(tid,)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reopened = CheckpointStore(tmp_path / "race")
        assert len(reopened.keys()) == 32
        for key in reopened.keys():
            assert reopened.load(key) is not None
