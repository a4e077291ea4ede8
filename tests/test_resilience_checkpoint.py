"""Tests for the checkpoint store, its engine hook, and serial-estimator resume."""

import json
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import UoILasso, UoIVar
from repro.datasets import make_sparse_regression, make_sparse_var
from repro.resilience import (
    CheckpointCorruption,
    CheckpointHook,
    CheckpointPlan,
    CheckpointStore,
)
from repro.resilience.checkpoint import decode_record, encode_record
from repro.simmpi.clock import RankClock, TimeCategory
from repro.simmpi.machine import LAPTOP
from tests.test_service_store import (
    RecordLogContract,
    flip_byte,
    frames,
    truncate_tail,
)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpt")


def _checkpoint_ops() -> list:
    small = lambda i: {"x": np.array([float(i)])}  # noqa: E731
    return [
        lambda s: s.save("a", small(1)),
        lambda s: s.save("b", small(2)),
        lambda s: s.save("a", small(3)),  # the last frame for a key wins
        lambda s: s.save("c", {"x": np.arange(3.0), "m": np.ones(3, bool)}),
    ]


class TestCheckpointStore(RecordLogContract):
    LOG = "CHECKPOINT.log"
    OPS = _checkpoint_ops()

    def open_store(self, root):
        return CheckpointStore(root)

    def write(self, store, key, arrays):
        store.save(key, arrays)

    def fingerprint(self, store):
        return store.meta, {
            key: [(n, a.dtype.str, a.shape, a.tobytes())
                  for n, a in store.load(key).items()]
            for key in store.keys()
        }

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

    def test_reopen_sees_existing_records(self, store):
        store.ensure_meta({"kind": "t"})
        store.save("a", {"x": np.zeros(4)})
        store.save("a", {"x": np.arange(4.0)})  # supersedes the first frame
        reopened = CheckpointStore(store.root)
        assert "a" in reopened and len(reopened) == 1
        np.testing.assert_array_equal(reopened.load("a")["x"], np.arange(4.0))
        assert reopened.nbytes("a") == store.nbytes("a")
        assert reopened.meta == {"kind": "t"}

    def test_empty_record_rejected(self, store):
        with pytest.raises(ValueError):
            store.save("a", {})

    def test_corrupted_payload_detected(self, store):
        store.save("b", {"x": np.zeros(8)})
        store.save("a", {"x": np.ones(8)})
        flip_byte(store.root / "CHECKPOINT.log")  # bit rot in a's payload
        with pytest.raises(CheckpointCorruption, match="checksum"):
            store.load("a")
        assert store.verify() == ["a"]
        # A reopen reads headers only: the rot surfaces at load, not before.
        assert CheckpointStore(store.root).verify() == ["a"]

    def test_missing_record_file_detected(self, store):
        store.save("b", {"x": np.zeros(2)})
        store.save("a", {"x": np.ones(2)})
        log = store.root / "CHECKPOINT.log"
        truncate_tail(log)  # the live index still points past the end
        with pytest.raises(CheckpointCorruption, match="missing"):
            store.load("a")
        assert store.verify() == ["a"]
        log.unlink()
        with pytest.raises(CheckpointCorruption, match="missing"):
            store.load("b")

    def test_save_cost_does_not_grow_with_store_size(self, store, monkeypatch):
        store.ensure_meta({"kind": "t"})
        renamed: list[str] = []
        real_replace = os.replace

        def counting_replace(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        entries = sorted(store.root.rglob("*"))
        nsaves = 150
        for i in range(nsaves):
            store.save(f"sel/k{i}", {"x": np.full(4, float(i))})
        # Per save: one frame appended to the log, and no file created or
        # renamed — no index or manifest rewrite that scales with the
        # number of keys already stored.
        assert renamed == []
        assert sorted(store.root.rglob("*")) == entries
        assert len(frames(store.root / "CHECKPOINT.log")) == nsaves

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
        contents = {p.name: p.read_bytes() for p in store.root.iterdir()}
        with pytest.raises(ValueError, match="'b'.*'ragged'"):
            ragged = np.array([[1], [2, 3]], dtype=object)
            store.save("b", {"x": np.ones(2), "ragged": ragged})
        assert {p.name: p.read_bytes() for p in store.root.iterdir()} == contents
        assert store.keys() == ["a"] and store.load("b") is None

    def test_old_format_manifest_is_refused(self, tmp_path):
        # Format 2: a manifest rewritten per save beside per-key files.
        old = tmp_path / "old"
        (old / "records").mkdir(parents=True)
        (old / "MANIFEST.json").write_text(json.dumps(
            {"format": 2, "version": 1, "meta": {}, "records": {}}
        ))
        with pytest.raises(ValueError, match="unsupported checkpoint format 2"):
            CheckpointStore(old)
        assert sorted(os.listdir(old)) == ["MANIFEST.json", "records"]
        store = CheckpointStore(tmp_path / "new")
        sidecar = json.loads((store.root / "CHECKPOINT.json").read_text())
        assert sidecar == {"format": 3, "meta": {}}
        sidecar["format"] = 99
        (store.root / "CHECKPOINT.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="unsupported checkpoint format 99"):
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


def _task(key: str) -> SimpleNamespace:
    return SimpleNamespace(key=key)


class TestCheckpointSession:
    """The per-rank, per-run bookkeeping a :class:`CheckpointHook` keeps."""

    def test_inactive_session_is_noop(self):
        hook = CheckpointHook(None)
        assert not hook.active
        hook.on_run_start(SimpleNamespace(meta=lambda: {"kind": "t"}), None)
        assert hook.lookup(_task("a")) is None
        hook.on_subproblem_done(_task("a"), {"x": np.ones(1)}, recovered=False)
        hook.on_stage_end("selection", None)
        assert hook.completed == 1 and hook.saved == 0 and hook.recovered == 0

    def test_cadence_buffers_flushes(self, store):
        hook = CheckpointHook(CheckpointPlan(store, cadence=3))
        for i in range(5):
            hook.on_subproblem_done(
                _task(f"k{i}"), {"x": np.full(2, float(i))}, recovered=False
            )
        assert len(store) == 3  # one full batch flushed, 2 buffered
        hook.on_stage_end("selection", None)
        assert len(store) == 5
        assert hook.saved == 5 and hook.completed == 5

    def test_cadence_zero_never_writes(self, store):
        hook = CheckpointHook(CheckpointPlan(store, cadence=0))
        hook.on_subproblem_done(_task("a"), {"x": np.ones(1)}, recovered=False)
        hook.on_stage_end("selection", None)
        assert len(store) == 0

    def test_non_writer_never_writes_but_reads(self, store):
        store.save("a", {"x": np.ones(1)})
        hook = CheckpointHook(CheckpointPlan(store), writer=False)
        assert hook.lookup(_task("a")) is not None
        assert hook.recovered == 1
        hook.on_subproblem_done(_task("b"), {"x": np.ones(1)}, recovered=False)
        hook.on_stage_end("selection", None)
        assert "b" not in store

    def test_flush_charges_modeled_write_time(self, store):
        clock = RankClock()
        hook = CheckpointHook(CheckpointPlan(store), clock=clock, machine=LAPTOP)
        hook.on_subproblem_done(_task("a"), {"x": np.ones(4)}, recovered=False)
        assert clock.breakdown[TimeCategory.DATA_IO] > 0
        # Without a clock and a machine there is nothing to charge.
        plain = CheckpointHook(CheckpointPlan(store))
        plain.on_subproblem_done(_task("b"), {"x": np.ones(4)}, recovered=False)
        assert plain.saved == 1

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
        kept = CheckpointStore(tmp_path / "kept")
        kept.ensure_meta(store.meta)
        for k in store.keys():
            if k not in dropped:
                kept.save(k, store.load(k))
        resumed = UoILasso(**kw).fit(
            ds.X, ds.y, checkpoint=CheckpointPlan(kept)
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

    def test_store_pinned_with_adapt_rho_is_refused(self, tmp_path):
        """A store pinned by a build whose config still carried the
        residual-balancing switch (``"adapt_rho": false`` in its meta)
        is another run's store: the resume is refused, naming the key."""
        ds = make_sparse_regression(
            40, 6, n_informative=2, snr=10.0, rng=np.random.default_rng(3)
        )
        kw = dict(n_lambdas=4, n_selection_bootstraps=2,
                  n_estimation_bootstraps=2)
        fresh = CheckpointStore(tmp_path / "fresh")
        UoILasso(**kw).fit(ds.X, ds.y, checkpoint=CheckpointPlan(fresh))
        assert "adapt_rho" not in fresh.meta
        old = CheckpointStore(tmp_path / "old")
        old.ensure_meta({**fresh.meta, "adapt_rho": False})
        with pytest.raises(
            ValueError, match=r"adapt_rho: stored False, given \(absent\)"
        ):
            UoILasso(**kw).fit(ds.X, ds.y, checkpoint=CheckpointPlan(old))

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
        from different writers never interleave — and its frame
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
