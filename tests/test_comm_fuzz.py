"""Property-based fuzzing of the simulated communicator.

A random program of collectives is generated per example and executed
on a random world size; every operation's result is checked against
the equivalent serial numpy computation, and the virtual clocks are
checked for basic sanity (monotone, identical category sets).  This is
the substrate's broadest correctness net: if any collective's ordering,
reduction order, or copy semantics regresses, some random program will
catch it.

Every fuzzed schedule additionally runs under the dynamic SPMD
checker (:class:`repro.analysis.DynamicChecker`): since all ranks
execute the same program, any collective-matching, RMA-race, or
deadlock finding would be a checker false positive (or a substrate
regression), so the test asserts zero findings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dynamic import DynamicChecker
from repro.simmpi import LAPTOP, MAX, MIN, SUM, run_spmd

OPS = ["allreduce_sum", "allreduce_max", "allreduce_min", "allgather",
       "bcast", "barrier", "gather", "scatter", "alltoall", "iallreduce"]

programs = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(1, 5)),
    min_size=1,
    max_size=8,
)


def _expected(op, vec_len, size, step):
    """Serial prediction of the collective's result on every rank."""
    contribs = [np.arange(vec_len, dtype=float) + r * 10 + step for r in range(size)]
    if op in ("allreduce_sum", "iallreduce"):
        return [sum(contribs[1:], contribs[0].copy())] * size
    if op == "allreduce_max":
        return [np.maximum.reduce(contribs)] * size
    if op == "allreduce_min":
        return [np.minimum.reduce(contribs)] * size
    if op == "allgather":
        return [contribs] * size
    if op == "bcast":
        return [contribs[0]] * size
    if op == "barrier":
        return [None] * size
    if op == "gather":
        return [contribs if r == 0 else None for r in range(size)]
    if op == "scatter":
        # Root scatters [v + j for j in range(size)].
        return [contribs[0] + r for r in range(size)]
    if op == "alltoall":
        return [[contribs[src] + r for src in range(size)] for r in range(size)]
    raise AssertionError(op)


@settings(max_examples=25, deadline=None)
@given(program=programs, size=st.integers(1, 5))
def test_random_collective_programs(program, size):
    def prog(comm):
        outs = []
        for step, (op, vec_len) in enumerate(program):
            v = np.arange(vec_len, dtype=float) + comm.rank * 10 + step
            if op == "allreduce_sum":
                outs.append(comm.allreduce(v, SUM))
            elif op == "iallreduce":
                req = comm.iallreduce(v, SUM)
                comm.clock.charge_compute(1e-6)
                outs.append(req.wait())
            elif op == "allreduce_max":
                outs.append(comm.allreduce(v, MAX))
            elif op == "allreduce_min":
                outs.append(comm.allreduce(v, MIN))
            elif op == "allgather":
                outs.append(comm.allgather(v))
            elif op == "bcast":
                outs.append(comm.bcast(v if comm.rank == 0 else None, root=0))
            elif op == "barrier":
                comm.barrier()
                outs.append(None)
            elif op == "gather":
                outs.append(comm.gather(v, root=0))
            elif op == "scatter":
                vals = [v + j for j in range(comm.size)] if comm.rank == 0 else None
                outs.append(comm.scatter(vals, root=0))
            elif op == "alltoall":
                outs.append(comm.alltoall([v + j for j in range(comm.size)]))
        return outs

    checker = DynamicChecker()
    res = run_spmd(size, prog, machine=LAPTOP, checker=checker)

    # SPMD programs where every rank runs the same schedule must be
    # free of collective mismatches, RMA races, and deadlocks.
    assert len(checker) == 0, [f.to_dict() for f in checker.findings]

    for step, (op, vec_len) in enumerate(program):
        expected = _expected(op, vec_len, size, step)
        for rank in range(size):
            got = res.values[rank][step]
            want = expected[rank]
            if want is None:
                assert got is None, (op, rank)
            elif isinstance(want, list):
                assert len(got) == len(want), (op, rank)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w, err_msg=f"{op}@{rank}")
            else:
                np.testing.assert_array_equal(got, want, err_msg=f"{op}@{rank}")

    # Clock sanity: nonnegative, and non-trivial programs advance time.
    for clock in res.clocks:
        assert clock.now >= 0.0
        assert clock.total() == pytest.approx(clock.now)
    if size > 1 and any(op != "barrier" for op, _ in program):
        assert max(c.now for c in res.clocks) > 0.0
