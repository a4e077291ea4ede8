"""Tests for the replicated, idempotent results store."""

import hashlib
import io
import json
import os
import random
import shutil
import threading

import numpy as np
import pytest

from repro.resilience.checkpoint import CheckpointCorruption
from repro.service.store import (
    SNAPSHOT_EVERY,
    LamportClock,
    ReplicaNode,
    ReplicatedResultsStore,
    WriteOp,
    parse_op_id,
)


def arrays(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"coef": rng.normal(size=7), "mask": rng.integers(0, 2, size=7)}


def flip_byte(path) -> None:
    """Bit rot: invert the last byte of a file in place."""
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def truncate_tail(path) -> None:
    """Lost tail: cut the last 16 bytes of a file."""
    os.truncate(path, path.stat().st_size - 16)


def frames(log) -> list[tuple[int, dict, bytes]]:
    """Parse a replica log into ``(header offset, header, payload)``."""
    data = log.read_bytes()
    out, pos = [], 0
    while pos < len(data):
        end = data.index(b"\n", pos) + 1
        header = json.loads(data[pos:end])
        out.append((pos, header, data[end : end + header["size"]]))
        pos = end + header["size"]
    return out


class TestOpIds:
    def test_roundtrip(self):
        assert parse_op_id("s0r1:17") == ("s0r1", 17)

    def test_origin_may_contain_colons(self):
        assert parse_op_id("node:a:3") == ("node:a", 3)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_op_id("no-separator")

    def test_writeop_properties(self):
        op = WriteOp("n1:4", "k", 9, {"x": np.zeros(2)})
        assert op.origin == "n1"
        assert op.seq == 4


class TestLamportClock:
    def test_tick_monotone(self):
        clock = LamportClock()
        assert [clock.tick() for _ in range(3)] == [1, 2, 3]

    def test_observe_merges_max(self):
        clock = LamportClock()
        clock.tick()
        assert clock.observe(10) == 10
        assert clock.observe(4) == 10  # never goes backwards
        assert clock.tick() == 11


class RecordLogContract:
    """Record-log behaviour both stores share, run once per store.

    A subclass sets ``LOG`` (its log's file name) and ``OPS`` (a fixed
    write sequence for the crash test), and defines ``open_store(root)``,
    ``write(store, key, arrays)`` and ``fingerprint(store)`` — everything
    a reopen must reproduce.
    """

    LOG: str
    OPS: list

    def test_reopen_reads_headers_only(self, tmp_path, monkeypatch):
        store = self.open_store(tmp_path / "n")
        big = {"x": np.arange(1 << 16, dtype=np.float64)}  # 512 KiB payloads
        for i in range(3):
            self.write(store, f"k{i}", big)
        real_open = open

        class Counting(io.BufferedReader):
            consumed = 0

            def read(self, *args):
                data = super().read(*args)
                Counting.consumed += len(data)
                return data

            def readline(self, *args):
                line = super().readline(*args)
                Counting.consumed += len(line)
                return line

        def counting_open(path, mode="r", *args, **kwargs):
            if str(path).endswith(self.LOG) and mode == "rb":
                return Counting(io.FileIO(path, "rb"))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        reopened = self.open_store(tmp_path / "n")
        monkeypatch.undo()
        # The reopen consumed three header lines and seeked past 1.5 MiB.
        assert Counting.consumed == sum(
            len(json.dumps(h, sort_keys=True)) + 1
            for _, h, _ in frames(tmp_path / "n" / self.LOG)
        )
        assert self.fingerprint(reopened) == self.fingerprint(store)

    def test_crash_after_any_byte_reopens_to_the_complete_prefix(self, tmp_path):
        small = lambda i: {"x": np.array([float(i)])}  # noqa: E731
        ref = self.open_store(tmp_path / "ref")
        expected = [self.fingerprint(ref)]
        for op in self.OPS:
            op(ref)
            expected.append(self.fingerprint(ref))
        data = (tmp_path / "ref" / self.LOG).read_bytes()
        ends = [pos + len(json.dumps(h, sort_keys=True)) + 1 + h["size"]
                for pos, h, _ in frames(tmp_path / "ref" / self.LOG)]
        assert ends[-1] == len(data) and len(ends) == len(self.OPS)
        # Every file but the log (the replica snapshot, the checkpoint
        # sidecar) is restored as it was; only the log is cut.
        sidecars = {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()
                    if p.name != self.LOG}
        crashed = tmp_path / "crashed"
        crashed.mkdir()
        for cut in range(len(data) + 1):
            for name, content in sidecars.items():
                (crashed / name).write_bytes(content)
            (crashed / self.LOG).write_bytes(data[:cut])
            store = self.open_store(crashed)
            whole = sum(end <= cut for end in ends)
            assert self.fingerprint(store) == expected[whole], cut
            assert (crashed / self.LOG).stat().st_size == ([0] + ends)[whole]
            self.write(store, "late", small(9))
            reopened = self.open_store(crashed)
            assert self.fingerprint(reopened) == self.fingerprint(store)
            assert self.fingerprint(reopened) != expected[whole]

    def test_damaged_header_mid_log_names_its_offset(self, tmp_path):
        store = self.open_store(tmp_path / "n")
        for i in range(3):
            self.write(store, f"k{i}", arrays(i))
        log = tmp_path / "n" / self.LOG
        (_, _, _), (second, _, _), _ = frames(log)
        data = bytearray(log.read_bytes())
        data[second + 1] = ord("#")  # '{"deleted"...' -> '{#deleted"...', say
        log.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruption, match=f"at byte {second} "):
            self.open_store(tmp_path / "n")
        assert log.read_bytes() == bytes(data)  # damage is not cut away


def _replica_ops() -> list:
    small = lambda i: {"x": np.array([float(i)])}  # noqa: E731
    ops = [
        WriteOp("n:1", "a", 1, small(1)),
        WriteOp("n:2", "b", 2, small(2)),
        WriteOp("n:3", "a", 3, None),
        WriteOp("peer:4", "b", 5, small(3)),
        WriteOp("n:4", "a", 6, small(4)),
    ]
    return [lambda node, op=op: node.apply(op) for op in ops]


class TestReplicaNode(RecordLogContract):
    LOG = "REPLICA.log"
    OPS = _replica_ops()

    def open_store(self, root):
        return ReplicaNode(root, "n")

    def write(self, node, key, arrays):
        node.local_write(key, arrays)

    def fingerprint(self, node):
        return node.state_digest(), node.last_seen

    def test_log_bytes_are_pinned_for_a_fixed_op_sequence(self, tmp_path):
        """The log layout is an on-disk format: a fixed op sequence writes
        these exact bytes, and they reopen to this exact state."""
        def rec(i):
            return {"coef": np.arange(7, dtype="<f8") * (i + 0.5),
                    "mask": np.arange(7, dtype="<i8") % (i + 2) == 0}

        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k0", rec(0))
        node.local_write("k1", rec(1))
        node.local_write("k0", None)
        node.apply(WriteOp("peer:1", "k2", 5, rec(2)))
        node.local_write("k1", rec(3))
        data = (tmp_path / "n" / "REPLICA.log").read_bytes()
        assert len(data) == 1122
        assert hashlib.sha256(data).hexdigest() == (
            "5dd5cd724a53fa429729e3e1d133d9b88af2644abeca415fc9a755d004b0848a"
        )
        digest = "8bf6e62334bef10eb1dfac6ae7a46183fc3ce1f90a92f2fd0f04418de70c89fd"
        assert ReplicaNode(tmp_path / "n", "n").state_digest() == digest

    def test_local_write_roundtrip_bitwise(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        payload = arrays(0)
        op = node.local_write("k", payload)
        assert op.op_id == "n:1"
        got = node.get("k")
        assert set(got) == set(payload)
        for name in payload:
            assert np.array_equal(got[name], payload[name])

    def test_duplicate_apply_suppressed(self, tmp_path):
        a = ReplicaNode(tmp_path / "a", "a")
        b = ReplicaNode(tmp_path / "b", "b")
        op = a.local_write("k", arrays(1))
        assert b.apply(op) is True
        assert b.apply(op) is False  # duplicate delivery
        assert a.apply(op) is False  # echo back to the origin
        assert len(b.log) == 1
        assert b.last_seen == {"a": 1}

    def test_reordered_delivery_within_origin(self, tmp_path):
        a = ReplicaNode(tmp_path / "a", "a")
        b = ReplicaNode(tmp_path / "b", "b")
        ops = [a.local_write(f"k{i}", arrays(i)) for i in range(4)]
        # Deliver out of order; each op still applies exactly once.
        for op in [ops[3], ops[0], ops[2], ops[1]]:
            assert b.apply(op) is True
        for op in ops:
            assert b.apply(op) is False
        assert b.last_seen == {"a": 4}
        assert a.state_digest() == b.state_digest()

    def test_lww_resolves_by_timestamp_then_origin(self, tmp_path):
        a = ReplicaNode(tmp_path / "a", "a")
        b = ReplicaNode(tmp_path / "b", "b")
        older = WriteOp("x:1", "k", 5, arrays(1))
        newer = WriteOp("y:1", "k", 9, arrays(2))
        # Delivery order differs; the winner does not.
        a.apply(older)
        a.apply(newer)
        b.apply(newer)
        b.apply(older)
        for node in (a, b):
            got = node.get("k")
            assert np.array_equal(got["coef"], arrays(2)["coef"])
        assert a.state_digest() == b.state_digest()

    def test_lww_tie_breaks_by_origin(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.apply(WriteOp("zz:1", "k", 7, arrays(1)))
        node.apply(WriteOp("aa:1", "k", 7, arrays(2)))
        # Same timestamp: the lexicographically larger origin wins,
        # on every replica, regardless of delivery order.
        assert np.array_equal(node.get("k")["coef"], arrays(1)["coef"])

    def test_tombstone_hides_key(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k", arrays(0))
        node.local_write("k", None)
        assert node.get("k") is None
        assert node.keys() == []

    def test_state_persists_across_reopen(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k", arrays(3))
        node.apply(WriteOp("peer:5", "k2", 20, arrays(4)))
        digest = node.state_digest()
        reopened = ReplicaNode(tmp_path / "n", "n")
        assert reopened.last_seen == {"n": 1, "peer": 5}
        assert reopened.clock.time == 20
        assert reopened.state_digest() == digest
        # The next local op continues the sequence (no op_id reuse).
        assert reopened.local_write("k3", arrays(5)).op_id == "n:2"

    def test_journal_replay_recovers_from_missing_snapshot(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        for i in range(5):
            node.local_write(f"k{i}", arrays(i))
        node.apply(WriteOp("peer:9", "k1", 40, arrays(9)))
        digest = node.state_digest()
        # Crash before any periodic snapshot: the sidecar is gone but
        # the journal carries everything.
        (tmp_path / "n" / "REPLICA.json").unlink()
        reopened = ReplicaNode(tmp_path / "n", "n")
        assert reopened.state_digest() == digest
        assert reopened.last_seen == {"n": 5, "peer": 9}
        assert len(reopened.log) == 6
        assert reopened.local_write("k9", arrays(7)).op_id == "n:6"

    def test_snapshot_is_amortized_not_per_op(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        for i in range(5):
            node.local_write(f"k{i}", arrays(i))
        # Only the creation-time snapshot was written; the per-op
        # durability lives in the O(1)-append log, one frame per op.
        state = json.loads((tmp_path / "n" / "REPLICA.json").read_text())
        assert state["journal"] == 0
        assert len(frames(tmp_path / "n" / "REPLICA.log")) == 5
        reopened = ReplicaNode(tmp_path / "n", "n")
        assert reopened.state_digest() == node.state_digest()

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k0", arrays(0))
        node.local_write("k1", arrays(1))
        with open(tmp_path / "n" / "REPLICA.log", "a") as fh:
            fh.write('{"deleted": false, "key"')  # crash mid-append
        reopened = ReplicaNode(tmp_path / "n", "n")
        assert reopened.last_seen == {"n": 2}
        assert len(reopened.log) == 2

    def test_writes_after_a_torn_tail_survive_the_next_reopen(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k0", arrays(0))
        with open(tmp_path / "n" / "REPLICA.log", "a") as fh:
            fh.write('{"deleted": false, "key"')  # crash mid-append
        resumed = ReplicaNode(tmp_path / "n", "n")
        resumed.local_write("k1", arrays(1))
        resumed.local_write("k2", arrays(2))
        # The torn header was cut on reopen, so the later appends start
        # frames of their own instead of extending it into garbage.
        reopened = ReplicaNode(tmp_path / "n", "n")
        assert reopened.last_seen == {"n": 3}
        assert reopened.keys() == ["k0", "k1", "k2"]
        assert reopened.state_digest() == resumed.state_digest()

    def test_journal_line_carries_the_record_checksum(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k", arrays(0))
        node.local_write("k", None)
        (_, put, payload), (_, tomb, empty) = frames(tmp_path / "n" / "REPLICA.log")
        assert put["size"] == len(payload) > 0
        assert put["sha256"] == hashlib.sha256(payload).hexdigest()
        assert tomb["sha256"] is None and tomb["size"] == 0 and empty == b""
        assert sorted(os.listdir(tmp_path / "n")) == ["REPLICA.json", "REPLICA.log"]

    def test_corrupt_or_missing_record_raises(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k", arrays(0))
        log = tmp_path / "n" / "REPLICA.log"
        flip_byte(log)  # the last byte is the put's payload
        for read in (lambda: node.get("k"), lambda: node.log, node.state_digest):
            with pytest.raises(CheckpointCorruption, match="checksum"):
                read()
        truncate_tail(log)
        with pytest.raises(CheckpointCorruption, match="missing"):
            node.get("k")
        log.unlink()
        with pytest.raises(CheckpointCorruption, match="missing"):
            node.get("k")

    def test_corrupt_state_format_rejected(self, tmp_path):
        node = ReplicaNode(tmp_path / "n", "n")
        node.local_write("k", arrays(0))
        state_path = tmp_path / "n" / "REPLICA.json"
        state = json.loads(state_path.read_text())
        state["format"] = 99
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="format"):
            ReplicaNode(tmp_path / "n", "n")


class TestReplicatedResultsStore:
    def test_put_get_roundtrip_bitwise(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s")
        payload = arrays(0)
        op_id = store.put("job1|sel/k0", payload)
        origin, seq = parse_op_id(op_id)
        assert seq == 1
        got = store.get("job1|sel/k0")
        for name in payload:
            assert np.array_equal(got[name], payload[name])
        assert "job1|sel/k0" in store
        assert "absent" not in store

    def test_every_replica_of_the_shard_has_the_write(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=2, replication=3)
        store.put("k", arrays(1))
        for node in store.replicas("k"):
            assert np.array_equal(node.get("k")["coef"], arrays(1)["coef"])
        assert store.converged()

    def test_shard_routing_is_stable_and_total(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=3)
        keys = [f"k{i}" for i in range(64)]
        shards = [store.shard_of(k) for k in keys]
        assert shards == [store.shard_of(k) for k in keys]
        assert set(shards) <= {0, 1, 2}
        assert len(set(shards)) > 1  # actually partitions

    def test_delete_propagates(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s")
        store.put("k", arrays(0))
        store.delete("k")
        assert store.get("k") is None
        assert store.keys() == []

    def test_read_falls_back_to_peer_replicas(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        store.put("k", arrays(2))
        primary = store.nodes[0][0]
        # Simulate a wiped primary: reads degrade to the sibling.
        primary._index.clear()
        got = store.get("k")
        assert np.array_equal(got["coef"], arrays(2)["coef"])

    @staticmethod
    def _log(root, replica: int):
        return root / "shard0" / f"replica{replica}" / "REPLICA.log"

    @pytest.mark.parametrize("damage", [flip_byte, truncate_tail])
    def test_read_falls_back_past_a_damaged_primary_record(self, tmp_path, damage):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        store.put("k", arrays(3))
        damage(self._log(tmp_path / "s", 0))
        with pytest.raises(CheckpointCorruption):
            store.nodes[0][0].get("k")
        got = store.get("k")
        peer = store.nodes[0][1].get("k")
        assert set(got) == set(arrays(3))
        for name in got:
            assert got[name].tobytes() == peer[name].tobytes()
            assert got[name].tobytes() == arrays(3)[name].tobytes()

    def test_read_raises_when_every_replica_is_damaged(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        store.put("k", arrays(4))
        flip_byte(self._log(tmp_path / "s", 0))
        truncate_tail(self._log(tmp_path / "s", 1))
        with pytest.raises(CheckpointCorruption, match="checksum"):
            store.get("k")

    def test_put_cost_does_not_grow_with_store_size(self, tmp_path, monkeypatch):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        renamed: list[str] = []
        real_replace = os.replace

        def counting_replace(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        entries = sorted((tmp_path / "s").rglob("*"))
        nputs = 2 * SNAPSHOT_EVERY + 5
        for i in range(nputs):
            store.put(f"k{i}", arrays(i))
        # Per put: one frame appended to each replica's log, and no file
        # created or renamed; per SNAPSHOT_EVERY applies: one REPLICA.json
        # rename per replica.  Nothing else — no index or manifest
        # rewrite that scales with the number of keys already stored.
        assert renamed == ["REPLICA.json"] * (2 * (nputs // SNAPSHOT_EVERY))
        assert sorted((tmp_path / "s").rglob("*")) == entries
        for replica in (0, 1):
            assert len(frames(self._log(tmp_path / "s", replica))) == nputs

    def test_object_arrays_are_refused_before_any_frame_is_appended(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        store.put("a", arrays(0))
        logs = [self._log(tmp_path / "s", r).read_bytes() for r in (0, 1)]
        digest = store.state_digest()
        bad = {"coef": np.ones(3), "meta": np.array([{"x": 1}], dtype=object)}
        with pytest.raises(ValueError, match="'b'.*'meta'"):
            store.put("b", bad)
        assert [self._log(tmp_path / "s", r).read_bytes() for r in (0, 1)] == logs
        assert store.state_digest() == digest and store.keys() == ["a"]
        # The refused write minted no op id: the next put is seq 2, no gap.
        assert parse_op_id(store.put("c", arrays(1)))[1] == 2
        assert store.converged()
        reopened = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        assert reopened.state_digest() == store.state_digest()

    def test_old_format_store_names_both_formats_and_the_fix(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "STORE.json").write_text(
            json.dumps({"format": 4, "nshards": 2, "replication": 2})
        )
        with pytest.raises(ValueError) as info:
            ReplicatedResultsStore(root, nshards=2, replication=2)
        message = str(info.value)
        assert "format 4" in message and "format 5" in message
        assert "fresh directory" in message
        assert "resharding" not in message

    def test_replay_with_duplicates_and_reordering_is_identical(
        self, tmp_path
    ):
        store = ReplicatedResultsStore(tmp_path / "a", nshards=2)
        for i in range(12):
            store.put(f"job{i % 3}|est/k{i}", arrays(i))
        store.put("job0|est/k0", arrays(99))  # overwrite -> two ops, one key
        store.delete("job2|est/k2")
        reference = store.state_digest()

        ops = store.write_stream()
        corrupted = ops + ops[:5] + ops[::2]  # inject duplicates
        rng = random.Random(7)
        rng.shuffle(corrupted)  # and reorder aggressively

        replayed = ReplicatedResultsStore(tmp_path / "b", nshards=2)
        applied = replayed.replay(corrupted)
        assert applied == len(ops)  # every duplicate was suppressed
        assert replayed.state_digest() == reference
        assert replayed.converged()
        # And the visible values match bitwise.
        assert replayed.keys() == store.keys()
        for key in store.keys():
            a, b = store.get(key), replayed.get(key)
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name], b[name])
        # Replaying again changes nothing.
        assert replayed.replay(ops) == 0
        assert replayed.state_digest() == reference

    def test_write_stream_survives_reopen(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "a", nshards=2)
        for i in range(10):
            store.put(f"k{i}", arrays(i))
        store.put("k0", arrays(50))  # overwrite -> two ops, one key
        store.delete("k3")
        reference = store.state_digest()
        # Restart the whole store: the stream must still be shippable.
        reopened = ReplicatedResultsStore(tmp_path / "a", nshards=2)
        ops = reopened.write_stream()
        assert len(ops) == 12
        fresh = ReplicatedResultsStore(tmp_path / "b", nshards=2)
        assert fresh.replay(ops) == len(ops)
        assert fresh.state_digest() == reference
        assert fresh.keys() == store.keys()

    def test_wiped_replica_reconverges_from_replayed_stream(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=1, replication=2)
        for i in range(6):
            store.put(f"k{i}", arrays(i))
        expected = store.keys()
        # Lose one replica entirely, then restart every process.
        shutil.rmtree(tmp_path / "s" / "shard0" / "replica1")
        reopened = ReplicatedResultsStore(
            tmp_path / "s", nshards=1, replication=2
        )
        assert not reopened.converged()
        reopened.replay(reopened.write_stream())
        assert reopened.converged()
        assert reopened.keys() == expected

    def test_reopen_resumes_identical_state(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s")
        for i in range(6):
            store.put(f"k{i}", arrays(i))
        digest = store.state_digest()
        reopened = ReplicatedResultsStore(tmp_path / "s")
        assert reopened.state_digest() == digest
        assert reopened.keys() == store.keys()

    def test_topology_is_pinned(self, tmp_path):
        ReplicatedResultsStore(tmp_path / "s", nshards=2, replication=2)
        with pytest.raises(ValueError, match="topology"):
            ReplicatedResultsStore(tmp_path / "s", nshards=4, replication=2)

    def test_bad_topology_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ReplicatedResultsStore(tmp_path / "s", nshards=0)
        with pytest.raises(ValueError):
            ReplicatedResultsStore(tmp_path / "s2", replication=0)

    @staticmethod
    def _race_writers(store: ReplicatedResultsStore, nwriters: int = 4) -> None:
        barrier = threading.Barrier(nwriters)
        errors: list[BaseException] = []

        def writer(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(8):
                    store.put(f"t{tid}/k{i}", arrays(tid * 100 + i))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(nwriters)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.converged()
        assert len(store.keys()) == 8 * nwriters

    def test_concurrent_puts_converge(self, tmp_path):
        store = ReplicatedResultsStore(tmp_path / "s", nshards=2)
        self._race_writers(store)

    def test_concurrent_puts_clean_under_lock_observer(self, tmp_path):
        """The same race with DYN206 enabled: the store's primary ->
        replica lock topology must produce zero observed inversions and
        no long holds."""
        from repro.analysis.dynamic import LockOrderObserver, use_lock_observer

        observer = LockOrderObserver()
        with use_lock_observer(observer):
            store = ReplicatedResultsStore(tmp_path / "s", nshards=2)
            self._race_writers(store)
        assert observer.findings() == []
