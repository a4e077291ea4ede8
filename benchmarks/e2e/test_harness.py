"""Self-tests of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e`` (outside the tier-1 ``testpaths``).
They check the harness's own arithmetic and bookkeeping, not the
program's speed: nothing here asserts a timing.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Result, same_arrays  # noqa: E402

REGISTRY = run.load_registry()


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(4, 50.0), (19, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (5000, 90.0)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected > 50.0:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_interpolates():
    xs = [float(i) for i in range(1, 102)]  # 1..101
    assert stats.percentile(xs, 50) == 51.0
    assert stats.percentile(xs, 90) == 91.0
    assert stats.percentile([3.0], 90) == 3.0


def test_slot_minima_take_each_request_at_its_best():
    assert stats.slot_minima([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        stats.slot_minima([[1.0, 2.0], [1.0]])


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------
def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "op_id": None}


def test_self_time_nested():
    spans = [span("op", 0, 10, None), span("a", 1, 4, 0), span("b", 2, 3, 1), span("c", 6, 9, 0)]
    own = stats.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0}
    assert sum(own.values()) == 10.0  # nothing counted twice


def test_self_time_overlapping_children_count_once():
    # two client threads overlap on [3, 5]; one child sticks out past its parent
    spans = [span("op", 0, 10, None), span("c0", 1, 5, 0), span("c1", 3, 8, 0),
             span("late", 9, 12, 0)]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10 - (7 + 1))
    assert stats.self_time_by_name(spans)["late"] == 3.0


# ---------------------------------------------------------------------------
# inputs depend on the seed and on nothing else
# ---------------------------------------------------------------------------
def input_bytes(obj) -> bytes:
    if isinstance(obj, np.ndarray):
        return str((obj.dtype, obj.shape)).encode() + obj.tobytes()
    if isinstance(obj, dict):
        return b"".join(k.encode() + input_bytes(v) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return b"".join(input_bytes(v) for v in obj)
    return repr(obj).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    first = input_bytes(cls.make_inputs(11))
    assert input_bytes(cls.make_inputs(11)) == first
    assert input_bytes(cls.make_inputs(12)) != first


# ---------------------------------------------------------------------------
# failed_frac
# ---------------------------------------------------------------------------
def test_tally_counts_a_raise_and_a_mismatch():
    tally = stats.Tally()
    tally.run(lambda: 1, lambda r: r == 1)
    assert tally.run(lambda: 1 / 0) is None
    tally.run(lambda: 2, lambda r: r == 1)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "ZeroDivisionError" in tally.errors[0]


def test_tally_counts_every_request_of_an_operation():
    tally = stats.Tally()
    tally.run(lambda: Result([], 0.1, requests=50), lambda r: False)
    assert (tally.attempted, tally.failed) == (50, 50)


class Flaky:
    """Stub workload whose second timed operation returns another bit."""

    def __init__(self, bad_call):
        self.calls, self.bad_call = 0, bad_call

    def op(self):
        self.calls += 1
        value = 1.0 + (1e-16 if self.calls != self.bad_call else 2.3e-16)
        return Result([np.array([value])], 0.01)

    def verify(self, result):
        return True


@pytest.mark.parametrize("bad_call, failed", [(None, 0), (3, 1)])
def test_measure_counts_an_operation_that_does_not_repeat_the_warm_up(bad_call, failed):
    flaky, tally = Flaky(bad_call), stats.Tally()
    warm = tally.run(flaky.op)
    doc = child.measure(
        flaky, warm, tally, lambda r: same_arrays(r.arrays, warm.arrays),
        SimpleNamespace(seconds=0.0, min_ops=3),
    )
    assert len(doc["op_s"]) == 3
    assert (tally.attempted, tally.failed) == (5, failed)  # warm-up, 3 ops, reference check


class TinyService(workloads.ServiceSocket):
    jobs_per_client = 2


def test_corrupting_one_expected_output_fails_the_service_check(tmp_path):
    service = TinyService(TinyService.make_inputs(5), str(tmp_path))
    result = service.op()
    assert result.ok and result.requests == 4 and len(result.latencies) == 4
    tally = stats.Tally()
    tally.run(lambda: result, service.verify)
    assert (tally.attempted, tally.failed) == (4, 0)
    result.arrays[0] = result.arrays[0] + 1e-12  # one job's coefficients, off by a hair
    tally.run(lambda: result, service.verify)
    assert (tally.attempted, tally.failed) == (8, 4)  # every job of the failed operation


# ---------------------------------------------------------------------------
# command line and registry
# ---------------------------------------------------------------------------
def test_workload_flag_selects_exactly_the_named_set():
    known = [w["name"] for w in REGISTRY["workloads"]]
    assert run.parse([], REGISTRY)[1] == known
    args, names = run.parse(
        ["--workload", "dist_var", "--workload", "lasso_tall", "--workload", "dist_var"],
        REGISTRY,
    )
    assert names == ["dist_var", "lasso_tall"] and args.rounds == 3
    args, names = run.parse(["--workload", "lasso_wide", "--trace", "1"], REGISTRY)
    assert names == ["lasso_wide"] and args.trace == 1 and args.rounds == 1
    assert run.parse(["--trace"], REGISTRY)[0].trace == 1
    with pytest.raises(SystemExit):
        run.parse(["--workload", "no_such_workload"], REGISTRY)


def test_registry_names_the_workloads_the_harness_has():
    assert [w["name"] for w in REGISTRY["workloads"]] == list(WORKLOADS)
    assert REGISTRY["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in REGISTRY["end_to_end"] + REGISTRY["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_repro_switches_are_refused(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "multiprocess")
    with pytest.raises(SystemExit, match="REPRO_ENGINE_BACKEND"):
        run.refuse_repro_switches()
    monkeypatch.delenv("REPRO_ENGINE_BACKEND")
    run.refuse_repro_switches()


def test_contract_line_has_exactly_the_contract_keys():
    doc = {
        "units": {"wall_s": "s"},
        "workloads": {"w": {"failed": 0, "attempted": 7,
                            "metrics": {"wall_s": {"median": 1.25}}}},
    }
    line = json.loads(run.contract_line(doc))
    assert line == {
        "correct": True, "attempted": 7, "failed": 0,
        "metrics": {"wall_s": {"value": 1.25, "unit": "s"}},
    }
