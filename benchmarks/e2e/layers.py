"""Per-layer measurements for the traced pass.

Two kinds of number come out of here, both taken from *outside* the
program (no span or counter is added to ``src/``):

* **replays** time one layer's public function standalone on the
  workload's own arrays (best of :data:`BEST_OF` calls);
* **readers** turn what the existing public observation surfaces
  (``TelemetryHook``, ``Recorder``, ``run_spmd(trace=, checker=)``)
  recorded during the traced operation into named metrics.

:class:`Tracer` holds the benchmark-owned spans in memory until the
pass ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from stats import covered
from repro import wire
from repro.core.bootstrap import (
    block_train_eval,
    bootstrap_train_eval,
    circular_block_bootstrap,
    iid_bootstrap,
)
from repro.distribution.kron_dist import DistributedKron
from repro.engine import SerialExecutor, Subproblem, UoIPlan, run_plan
from repro.linalg.admm import LassoADMM
from repro.linalg.kron import identity_kron
from repro.perf.roofline import roofline_attainable
from repro.resilience.checkpoint import CheckpointStore
from repro.service.store import ReplicatedResultsStore
from repro.simmpi import LAPTOP, run_spmd
from repro.simmpi.comm import payload_nbytes
from repro.var.lag import build_lag_matrices

#: Every replay reports the best of this many calls.
BEST_OF = 5


def best_of(fn: Callable[[], Any], repeats: int = BEST_OF) -> tuple[float, Any]:
    """(fastest seconds, last result) of ``repeats`` calls of ``fn``."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory span list: ``{name, start, end, parent, op_id}``.

    ``parent`` is the index of the enclosing span.  Within one thread
    nesting is tracked on a per-thread stack; a span opened on another
    thread (a service client) names its parent explicitly.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        """Index of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(
        self, name: str, start: float, end: float, parent: int | None, op_id: Any = None
    ) -> int:
        """Record a finished interval (``perf_counter`` seconds)."""
        with self._lock:
            self.spans.append(
                {"name": name, "start": start, "end": end, "parent": parent, "op_id": op_id}
            )
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(
        self, name: str, *, op_id: Any = None, parent: int | None = None
    ) -> Iterator[int]:
        stack = self._stack()
        if parent is None:
            parent = self.current()
        index = self.add(name, time.perf_counter(), float("nan"), parent, op_id)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def adopt(
        self, recorder_spans, epoch: float, parent: int, rename: Callable[[Any], str | None]
    ) -> None:
        """Import ``Recorder`` spans (epoch-relative) under ``parent``.

        ``rename(span)`` gives the benchmark's name for a recorder span,
        or ``None`` to leave it out.
        """
        for s in recorder_spans:
            name = rename(s)
            if name is not None:
                self.add(name, epoch + s.start, epoch + s.end, parent, s.attrs.get("key"))

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


class _NoTrace:
    """Stands in for a :class:`Tracer` on untraced passes: records nothing."""

    spans: tuple = ()

    def span(self, name: str, **_: Any) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def add(self, *args: Any, **kwargs: Any) -> None:
        return None

    def current(self) -> None:
        return None


NO_TRACE = _NoTrace()


# ---------------------------------------------------------------------------
# machine rates (denominators)
# ---------------------------------------------------------------------------
def last_level_cache_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (32 MiB if it reports none)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in os.listdir(base):
            try:
                with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            best = max(best, int(text.rstrip("KMG")) * unit)
    except OSError:
        pass
    return best or 32 << 20


def machine_rates() -> tuple[dict[str, float], dict[str, float]]:
    """GEMV / GEMM / triad rates of this box, measured now, and the sizes used.

    The bandwidth-bound kernels stream one buffer of four times the
    last-level cache from DRAM: gemv reads all of it as a matrix; the
    triad ``a = s*a + b`` runs over its two halves in numpy's two-pass
    form, which moves five half-buffers of bytes (computed; cache
    misses ignored).  One buffer, not three, because first-touching a
    GiB costs this VM about 5 s of page faults.
    """
    llc = last_level_cache_bytes()
    side = int(np.ceil(np.sqrt(4 * llc / 8)))
    side += side % 2
    A = np.full((side, side), 0.5)
    x = np.ones(side)
    y = np.empty(side)
    gemv_s, _ = best_of(lambda: np.matmul(A, x, out=y))
    a, b = A.reshape(2, -1)

    def triad() -> None:
        np.multiply(a, 0.5, out=a)
        np.add(a, b, out=a)

    triad_s, _ = best_of(triad)
    buffer_bytes = A.nbytes
    del A, a, b
    m = 1536
    G = np.full((m, m), 0.5)
    H = np.full((m, m), 0.25)
    out = np.empty((m, m))
    gemm_s, _ = best_of(lambda: np.matmul(G, H, out=out))
    rates = {
        "machine.gemv_gflops": 2.0 * side * side / gemv_s / 1e9,
        "machine.gemm_gflops": 2.0 * m**3 / gemm_s / 1e9,
        "machine.triad_gbs": 2.5 * buffer_bytes / triad_s / 1e9,
    }
    return rates, {"llc_bytes": llc, "buffer_bytes": buffer_bytes}


# ---------------------------------------------------------------------------
# solver replays
# ---------------------------------------------------------------------------
def mid_path_lambda(X: np.ndarray, Y: np.ndarray) -> float:
    """A penalty a tenth of the way down from ``lambda_max`` (eq.-2 scaling)."""
    return float(0.2 * np.max(np.abs(X.T @ Y)))


def admm_replay(X: np.ndarray, y: np.ndarray, rates: dict[str, float]) -> dict[str, float]:
    """One ``LassoADMM`` construct + mid-path solve on the workload's shapes.

    Flops and bytes per iteration are *computed* from the shapes (two
    triangular solves on the Cholesky branch; two GEMVs with ``X`` plus
    an ``n x n`` solve on the Woodbury branch), not counted.
    """
    factor_s, solver = best_of(lambda: LassoADMM(X, y))
    lam = mid_path_lambda(X, y)
    solve_s, res = best_of(lambda: solver.solve(lam))
    n, p = X.shape
    if n >= p:
        flops, moved = 2.0 * p * p + 10.0 * p, 8.0 * p * p
    else:
        flops, moved = 4.0 * n * p + 2.0 * n * n + 10.0 * p, 16.0 * n * p + 8.0 * n * n
    iter_s = solve_s / max(res.iterations, 1)
    gflops = flops / iter_s / 1e9
    roof = roofline_attainable(
        flops / moved,
        peak_gflops=rates["machine.gemm_gflops"],
        # gemv moves 8 bytes per 2 flops: its GFLOP/s x 4 is the GB/s it sustained
        mem_bw_gbs=4.0 * rates["machine.gemv_gflops"],
    )
    return {
        "linalg.admm.iter_us": iter_s * 1e6,
        "linalg.admm.factor_s": factor_s,
        "linalg.admm.gflops": gflops,
        "linalg.admm.roofline_frac": gflops / roof,
    }


def admm_counts(counters: dict[str, float]) -> dict[str, float]:
    solves = counters.get("admm.solves", 0.0)
    return {
        "linalg.admm.solves": solves,
        "linalg.admm.iterations": counters.get("admm.iterations", 0.0),
        "linalg.admm.factorizations": counters.get("admm.factorizations", 0.0),
        "linalg.admm.converged_frac": (
            counters.get("admm.converged", 0.0) / solves if solves else 0.0
        ),
        "linalg.ols.solves": counters.get("ols.solves", 0.0),
    }


def bootstrap_replay(m: int, B1: int, B2: int, *, block: bool) -> dict[str, float]:
    """All B1 + B2 index draws of one fit over ``m`` rows."""
    def draw() -> None:
        rng = np.random.default_rng(0)
        for _ in range(B1):
            circular_block_bootstrap(m, rng) if block else iid_bootstrap(m, rng)
        for _ in range(B2):
            block_train_eval(m, rng) if block else bootstrap_train_eval(m, rng)

    return {"core.bootstrap.draw_s": best_of(draw)[0]}


def var_build_replay(series: np.ndarray, order: int = 1) -> dict[str, float]:
    """Lag matrices and the materialized ``I (x) X`` of one series."""
    lag_s, (Y, X) = best_of(lambda: build_lag_matrices(series, order))
    kron_s, lifted = best_of(lambda: identity_kron(X, Y.shape[1]))
    return {
        "var.lag.build_s": lag_s,
        "linalg.kron.build_s": kron_s,
        "linalg.kron.nnz": float(lifted.nnz),
    }


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
class _NoopPlan(UoIPlan):
    """``n`` single-task chains that do nothing: pure dispatch cost."""

    kind = "noop"
    stages = ("selection",)

    def __init__(self, n: int) -> None:
        self.n = n

    def meta(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    def chains(self, stage: str) -> list[list[Subproblem]]:
        return [[Subproblem(stage, k, None, f"noop/k{k}", k, 0)] for k in range(self.n)]

    def run_chain(self, stage, tasks, recovered, emit) -> None:
        emit(tasks[0], {})

    def reduce(self, stage, results) -> None:
        pass

    def finalize(self) -> None:
        return None


def lease_replay(chains: int = 256) -> dict[str, float]:
    seconds, _ = best_of(lambda: run_plan(_NoopPlan(chains), SerialExecutor()))
    return {"engine.coordinator.lease_us": seconds / chains * 1e6}


def engine_metrics(hook) -> dict[str, float]:
    """Run / subproblem / overhead split from a finished ``TelemetryHook``."""
    run_s = hook.total_seconds()
    subs = hook.subproblem_spans()
    run = hook.recorder.spans_named("run:")[-1]
    busy = covered([(s.start, s.end) for s in subs], run.start, run.end)
    summary = hook.summary()
    stages = summary["stages"]
    return {
        "engine.run_s": run_s,
        "engine.subproblems": float(len(subs)),
        "engine.subproblem_s_sum": sum(s.duration for s in subs),
        "engine.overhead_s": run_s - busy,
        "engine.overhead_frac": (run_s - busy) / run_s if run_s else 0.0,
        "engine.leases.issued": summary["counters"].get("engine.leases.issued", 0.0),
        "core.selection.stage_s": stages.get("selection", {}).get("seconds", 0.0),
        "core.estimation.stage_s": stages.get("estimation", {}).get("seconds", 0.0),
    }


# ---------------------------------------------------------------------------
# simmpi
# ---------------------------------------------------------------------------
class CommCounter:
    """Counts collectives and one-sided gets through ``run_spmd(checker=)``.

    Implements the observer protocol ``SimComm`` and ``Window`` call on
    a checker; it validates nothing.  Counts are rank 0's (every rank
    posts the same collectives); RMA counts are the world's.  Get bytes
    are computed from the key's row footprint: ``row_bytes`` per row
    for a plain slice (a window of lag rows), 8 for a ``(slice, j)``
    key (one response column).
    """

    def __init__(self, row_bytes: int) -> None:
        self.row_bytes = row_bytes
        self.allreduce_calls = 0
        self.allreduce_bytes = 0
        self.rma_gets = 0
        self.rma_bytes = 0
        self._lock = threading.Lock()

    def collective_meta(self, kind, value=None, **_: Any) -> dict:
        return {"kind": kind, "nbytes": payload_nbytes(value)}

    def on_collective_contribution(self, comm_id, comm_size, seq, rank, meta) -> None:
        if rank == 0 and meta["kind"] == "allreduce":
            with self._lock:
                self.allreduce_calls += 1
                self.allreduce_bytes += meta["nbytes"]

    def on_rma(self, win_id, epoch, origin, target, op, key, buffer_len) -> None:
        if op != "get":
            return
        rows, width = (key[0], 8) if isinstance(key, tuple) else (key, self.row_bytes)
        n = len(range(*rows.indices(buffer_len)))
        with self._lock:
            self.rma_gets += 1
            self.rma_bytes += n * width

    def end_epoch(self, win_id, epoch) -> None:
        pass

    def finalize(self) -> None:
        pass

    def on_deadlock(self, blocked, reason) -> None:
        pass

    def metrics(self) -> dict[str, float]:
        return {
            "simmpi.allreduce.calls": float(self.allreduce_calls),
            "simmpi.allreduce.bytes": float(self.allreduce_bytes),
            "simmpi.rma.gets": float(self.rma_gets),
            "simmpi.rma.bytes": float(self.rma_bytes),
        }


def allreduce_replay(words: int, calls: int = 200) -> dict[str, float]:
    """Wall time of one 2-rank ``allreduce`` of ``words`` doubles."""
    vec = np.ones(words)

    def program(comm) -> None:
        for _ in range(calls):
            comm.allreduce(vec)

    seconds, _ = best_of(lambda: run_spmd(2, program, machine=LAPTOP))
    return {"simmpi.allreduce_us": seconds / calls * 1e6}


def kron_dist_replay(X: np.ndarray, Y: np.ndarray) -> dict[str, float]:
    """One 2-rank distributed-Kronecker assembly of ``(I (x) X, vec Y)``."""
    def program(comm) -> None:
        reader = comm.rank == 0
        dk = DistributedKron(comm, X if reader else None, Y if reader else None)
        dk.build_local()
        dk.close()

    seconds, _ = best_of(lambda: run_spmd(2, program, machine=LAPTOP))
    return {"distribution.kron_dist.assemble_s": seconds}


# ---------------------------------------------------------------------------
# wire / store / checkpoint
# ---------------------------------------------------------------------------
def _codec_mbs(arrays: dict[str, np.ndarray]) -> tuple[float, float]:
    """(encode, decode) MB/s of ``json.dumps(encode_arrays(..))`` and back."""
    nbytes = sum(a.nbytes for a in arrays.values())
    enc_s, text = best_of(lambda: json.dumps(wire.encode_arrays(arrays)))
    dec_s, _ = best_of(lambda: wire.decode_arrays(json.loads(text)))
    return nbytes / enc_s / 1e6, nbytes / dec_s / 1e6


def wire_replay(arrays: dict[str, np.ndarray], frame_bytes: int, plan: Any) -> dict[str, float]:
    """Codec throughput on a job's submit payload and on an 8 MB array.

    The reported MB/s is the lower of the two payloads (the frame a job
    really sends is small, where per-call overhead dominates).
    """
    small, big = _codec_mbs(arrays), _codec_mbs({"a": np.arange(1 << 20, dtype=float)})
    blob_s, blob = best_of(lambda: wire.encode_blob(plan))
    return {
        "wire.encode_mbs": min(small[0], big[0]),
        "wire.decode_mbs": min(small[1], big[1]),
        "wire.blob_encode_mbs": len(blob) / blob_s / 1e6,
        "wire.submit_frame_bytes": float(frame_bytes),
    }


def _per_key_us(fn: Callable[[str], Any], names: list[str]) -> float:
    t0 = time.perf_counter()
    for name in names:
        fn(name)
    return (time.perf_counter() - t0) / len(names) * 1e6


def store_replay(arrays: dict[str, np.ndarray], root: str, keys: int = 20) -> dict[str, float]:
    """put/get of one job result on the replicated store and save/load
    on the checkpoint store (fresh directories under ``root`` each time)."""
    names = [f"tenant/j{k}/result" for k in range(keys)]
    passes = []
    for rep in range(BEST_OF):
        rdir, cdir = os.path.join(root, f"store{rep}"), os.path.join(root, f"ckpt{rep}")
        store, ckpt = ReplicatedResultsStore(rdir), CheckpointStore(cdir)
        passes.append({
            "service.store.put_us": _per_key_us(partial(store.put, arrays=arrays), names),
            "service.store.get_us": _per_key_us(store.get, names),
            "resilience.checkpoint.save_us": _per_key_us(partial(ckpt.save, arrays=arrays), names),
            "resilience.checkpoint.load_us": _per_key_us(ckpt.load, names),
            "resilience.checkpoint.bytes_per_key": float(ckpt.nbytes(names[0])),
        })
        shutil.rmtree(rdir)
        shutil.rmtree(cdir)
    return {name: min(p[name] for p in passes) for name in passes[0]}
