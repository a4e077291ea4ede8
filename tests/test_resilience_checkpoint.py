"""Tests for the checkpoint store, sessions, and serial-estimator resume."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import UoILasso, UoIVar
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.resilience import (
    CheckpointCorruption,
    CheckpointPlan,
    CheckpointSession,
    CheckpointStore,
)
from repro.resilience.checkpoint import decode_record, encode_record


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

    @pytest.mark.parametrize(
        "stored, given, named",
        [
            ({"rho": 1.0, "solver": "admm"}, {"rho": None, "solver": "cd"},
             ["rho: stored 1.0, given None", "solver: stored 'admm', given 'cd'"]),
            ({"p": 5}, {"p": 5, "solve": "column-groups"},
             ["solve: stored (absent), given 'column-groups'"]),
            ({"p": 5}, {"p": 5, "selection": "homotopy"},
             ["selection: stored (absent), given 'homotopy'"]),
        ],
        ids=["solver-fields", "column-groups", "homotopy"],
    )
    def test_refusal_names_the_differing_keys_and_the_fix(
        self, store, stored, given, named
    ):
        common = {"kind": "serial_uoi_lasso", "random_state": 4}
        store.ensure_meta({**common, **stored})
        with pytest.raises(ValueError) as info:
            store.ensure_meta({**common, **given})
        message = str(info.value)
        assert "different run" in message and "fresh store root" in message
        for diff in named:
            assert diff in message
        # Keys both runs agree on are not dumped.
        assert "serial_uoi_lasso" not in message and "random_state" not in message

    def test_object_arrays_are_refused_before_anything_is_written(self, store):
        store.save("a", {"x": np.ones(2)})
        manifest = (store.root / "MANIFEST.json").read_bytes()
        files = sorted(os.listdir(store.root / "records"))
        with pytest.raises(ValueError, match="'b'.*'ragged'"):
            ragged = np.array([[1], [2, 3]], dtype=object)
            store.save("b", {"x": np.ones(2), "ragged": ragged})
        assert (store.root / "MANIFEST.json").read_bytes() == manifest
        assert sorted(os.listdir(store.root / "records")) == files
        assert store.keys() == ["a"] and store.load("b") is None

    def test_old_format_manifest_is_refused(self, store):
        store.save("a", {"x": np.ones(2)})
        manifest = json.loads((store.root / "MANIFEST.json").read_text())
        assert manifest["format"] == 2
        manifest["format"] = 1  # npz records
        (store.root / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported checkpoint format 1"):
            CheckpointStore(store.root)

    def test_colliding_key_sanitizations_stay_distinct(self, store):
        store.save("sel/k0:j1", {"x": np.ones(1)})
        store.save("sel/k0!j1", {"x": np.zeros(1)})
        np.testing.assert_array_equal(store.load("sel/k0:j1")["x"], np.ones(1))
        np.testing.assert_array_equal(store.load("sel/k0!j1")["x"], np.zeros(1))


#: Every dtype the record codec round-trips (explicit byte orders too).
CODEC_DTYPES = ["<f8", "<f4", "<i8", "<i4", "|b1", ">f8", "<U3"]


@st.composite
def codec_arrays(draw):
    """0-d, empty and general arrays, some Fortran-ordered or strided."""
    dtype = np.dtype(draw(st.sampled_from(CODEC_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    a = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        a = np.asfortranarray(a)
    elif layout == "strided" and a.ndim:
        a = np.repeat(a, 2, axis=0)[::2]
    return a


class TestRecordCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8), codec_arrays(), min_size=1, max_size=4
        )
    )
    def test_roundtrip_is_bitwise_and_writable(self, arrays):
        out = decode_record(encode_record(arrays, "k"), "k")
        assert list(out) == list(arrays)
        for name, a in arrays.items():
            got = out[name]
            assert got.dtype == a.dtype and got.shape == a.shape
            assert got.tobytes() == a.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous

    @pytest.mark.parametrize(
        "array",
        [
            np.array(["a", None], dtype=object),
            np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")]),
            np.zeros(2, dtype="V0"),
        ],
        ids=["object", "structured", "zero-width"],
    )
    def test_dtype_without_raw_bytes_is_refused_naming_the_key(self, array):
        with pytest.raises(ValueError, match="'job1/result'.*'labels'"):
            encode_record({"labels": array}, "job1/result")

    @staticmethod
    def _payload(header, body: bytes) -> bytes:
        head = json.dumps(header).encode()
        return struct.pack("<I", len(head)) + head + body

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda p: p[:3], "truncated"),
            (lambda p: p[:-1], "describes 24 array bytes, payload holds 23"),
            (lambda p: p + b"\0", "describes 24 array bytes, payload holds 25"),
            (lambda p: struct.pack("<I", len(p)) + p[4:], "runs past"),
            (lambda p: p[:4] + b"#" + p[5:], "header is damaged"),
        ],
        ids=["short-prefix", "truncated-body", "extra-bytes", "header-past-end",
             "bad-json"],
    )
    def test_damaged_payload_raises_corruption_naming_the_key(self, damage, match):
        payload = encode_record({"x": np.arange(3.0)}, "k")
        with pytest.raises(CheckpointCorruption, match=f"record 'sel/k0'.*{match}"):
            decode_record(damage(payload), "sel/k0")

    @pytest.mark.parametrize(
        "header, body",
        [
            ([["x", "<f8", [4]]], bytes(24)),  # shape says 32 bytes
            ([["x", "<f8", [1 << 62, 1 << 62]]], bytes(8)),  # never allocated
            ([["x", "|O", [1]]], bytes(8)),  # would need pickle
            ([["x", "|V0", [1 << 62]]], b""),  # zero-width items
            ([["x", "(2,)<f8", [1]]], bytes(16)),  # subarray dtype
            ([["x", "<f8", [-1]]], b""),
            ([["x", "no-such-dtype", [1]]], bytes(8)),
            ([["x", "<f8"]], bytes(8)),
            ({"x": 1}, b""),
        ],
        ids=["short-body", "huge-shape", "object", "zero-width", "subarray",
             "negative-dim", "bad-dtype", "no-shape", "not-a-list"],
    )
    def test_header_and_byte_count_must_agree(self, header, body):
        with pytest.raises(CheckpointCorruption, match="record 'k'"):
            decode_record(self._payload(header, body), "k")

    def test_unverified_load_still_rejects_a_truncated_record(self, store):
        store.save("a", {"x": np.ones(8)})
        path = store.root / "records" / json.loads(
            (store.root / "MANIFEST.json").read_text()
        )["records"]["a"]["file"]
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointCorruption, match="record 'a'"):
            store.load("a", verify=False)


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
