"""Pure-Python statistics for the end-to-end benchmark.

Nothing here imports numpy or ``repro``: the runner (``run.py``) uses
these helpers in the parent process, which never loads BLAS so that the
thread-count environment reaches the children untouched.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_CANDIDATES = (90.0, 75.0)

#: A tail percentile needs this many samples beyond it to be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """``q``-th percentile (0-100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with >= MIN_BEYOND of ``n`` samples beyond it.

    With fewer than ``2 * MIN_BEYOND`` samples not even the median
    qualifies as a *tail*, and 50.0 is returned: the tail metric then
    repeats the median rather than reporting one or two outliers.
    """
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the acceptance rule of the contract takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def slot_minima(per_op: Sequence[Sequence[float]]) -> list[float]:
    """Per-request best-of-ops latency.

    ``per_op[k][i]`` is the latency of request ``i`` in the ``k``-th
    repetition of the same operation.  The host steals CPU from this VM
    in bursts that only ever *add* time, so the minimum over
    repetitions is the least-disturbed observation of each request;
    percentiles are then taken over the requests.
    """
    if not per_op:
        return []
    width = len(per_op[0])
    if any(len(row) != width for row in per_op):
        raise ValueError("every repetition must time the same requests")
    return [min(row[i] for row in per_op) for i in range(width)]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    ``spans[i]["parent"]`` is the index of the parent span or ``None``.
    Children may overlap one another (client threads) and may stick out
    of their parent (a server-side span closed after the client gave
    up waiting); the union clipped to the parent is what counts.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        i: (s["end"] - s["start"])
        - covered(children.get(i, ()), s["start"], s["end"])
        for i, s in enumerate(spans)
    }


def self_time_by_name(spans: Sequence[dict]) -> dict[str, float]:
    """Self time summed over spans sharing a name."""
    out: dict[str, float] = {}
    for i, t in self_times(spans).items():
        out[spans[i]["name"]] = out.get(spans[i]["name"], 0.0) + t
    return out


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------
class Tally:
    """Operations attempted and failed (``failed_frac`` is their ratio)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, why: str = "", n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if why and len(self.errors) < 8:
                self.errors.append(why)

    def run(self, fn, check=None, label: str = "op"):
        """Call ``fn``; a raise or a failed ``check(result)`` is a failure.

        A result that holds several requests (``result.requests``: the
        jobs of one service operation) counts each of them, all failed
        when the operation's check fails.  Returns the result, or
        ``None`` when the call raised.
        """
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the benchmark must go on
            self.record(False, f"{label} raised {type(exc).__name__}: {exc}")
            return None
        ok = True if check is None else bool(check(result))
        self.record(
            ok,
            "" if ok else f"{label} failed its output check",
            n=getattr(result, "requests", 1),
        )
        return result
