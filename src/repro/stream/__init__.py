"""repro.stream — online Granger networks over live data.

The batch pipeline assumes the whole series is on disk before the lag
rearrangement (eqs. 7-8) begins.  This package turns the platform into
a rolling-Granger-graph server: ticks arrive (:mod:`.ingest`), a
sliding window maintains the lag matrices incrementally
(:mod:`.window`), a cadence-driven loop re-fits UoI_VAR per window
with warm starts seeded from the previous window (:mod:`.refit`), and
consecutive networks are diffed into change events (:mod:`.diff`).
Warm starts change cost, never results: every window's supports and
coefficients are bitwise what an independent cold batch fit of the
same window produces.  See ``docs/streaming.md``.
"""

from repro.stream.window import SlidingLagWindow
from repro.stream.diff import NetworkDiff, DiffLog, diff_networks, edge_set
from repro.stream.ingest import (
    SpikeRateSource,
    FinanceReplaySource,
    SocketSource,
)
from repro.stream.refit import (
    StreamConfig,
    WindowFit,
    StreamOutputs,
    RollingRefitter,
    expected_windows,
    run_rolling,
)

__all__ = [
    "SlidingLagWindow",
    "NetworkDiff",
    "DiffLog",
    "diff_networks",
    "edge_set",
    "SpikeRateSource",
    "FinanceReplaySource",
    "SocketSource",
    "StreamConfig",
    "WindowFit",
    "StreamOutputs",
    "RollingRefitter",
    "expected_windows",
    "run_rolling",
]
