"""Cadence-driven rolling UoI_VAR re-fits with warm-started chains.

:class:`RollingRefitter` is the consumer half of the streaming
pipeline: ticks go in one at a time (:meth:`RollingRefitter.offer`),
and every ``cadence`` ticks — once the sliding window is primed — it
builds a fresh :class:`repro.engine.plans.VarPlan` over the window's
raw series and runs it on any engine backend.  Two things make this a
*streaming* fit rather than a loop of batch fits:

* **Warm-start chains.**  Each fit harvests its selection λ-paths
  (``keep_paths=True``) and seeds the next window's chains from them
  (``warm_start=``).  Seeding moves solver starting points only; every
  solve still runs to the configured tolerances, so each window's
  supports and coefficients are **bitwise identical** to an
  independent cold batch fit of the same window (``verify=True`` and
  ``tests/test_stream_refit.py`` check exactly this).  Only the
  iteration cost changes (gated ≥1.5x in
  ``benchmarks/bench_stream.py``).

  The identity rests on every solve actually *reaching* its tolerance:
  a solve that exhausts ``lasso.max_iter`` stops at a start-dependent
  point instead.  The refitter therefore watches the solvers'
  ``cd.nonconverged`` and ``admm.nonconverged`` telemetry counters per
  window and reports budget exhaustion on :attr:`WindowFit.nonconverged` (plus the
  ``stream.nonconverged_solves`` counter) so a too-small sweep budget
  is a visible, diagnosable condition rather than a silent divergence.
* **Recovery.**  A window whose run dies (worker killed, transport
  torn down) is retried with a freshly built plan, up to
  ``max_retries`` times; because plans are deterministic, a retried
  window produces the same numbers as an undisturbed one.

Per-window results come back as :class:`WindowFit` records carrying
the fitted :class:`~repro.engine.plan.PlanOutputs` plus the network
diff against the previous window; :class:`StreamOutputs` collects them
and quacks like a batch estimator (``coef``/``supports``/… delegate to
the newest window) so service-layer result flattening works unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.core.config import UoIVarConfig
from repro.engine import VarPlan, default_executor, run_plan
from repro.engine.plan import PlanOutputs
from repro.stream.diff import (
    DiffLog,
    NetworkDiff,
    diff_networks,
    edge_set,
    record_diff,
)
from repro.stream.window import SlidingLagWindow
from repro.telemetry.recorder import (
    Recorder,
    count as _tcount,
    current_recorder,
    span as _tspan,
    use_recorder,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Coordinator

__all__ = [
    "StreamConfig",
    "WindowFit",
    "StreamOutputs",
    "RollingRefitter",
    "run_rolling",
    "expected_windows",
]


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of a rolling stream fit.

    Attributes
    ----------
    var:
        The per-window UoI_VAR hyperparameters.  ``solver="cd"`` is
        the recommended streaming solver: its exact active-set step
        lands on exact zeros in a few sweeps per solve, well inside the
        default ``max_iter``, and the warm/cold identity needs every
        solve to stop on tolerance rather than on that budget.
    window:
        Sliding-window capacity in raw samples.
    cadence:
        Ticks between re-fits once the window is primed.
    min_samples:
        Samples required before the first fit; ``None`` means a full
        window (the default — every fitted window then has identical
        shape, which keeps warm-start paths directly transplantable).
    warm:
        Seed each window's selection chains from the previous
        window's harvested λ-paths.  Changes cost, never results.
    chain_seeding:
        Seeding mode for chains without a warm-start path: ``"path"``
        (default) or ``"none"`` (cold chains; the baseline leg of
        ``benchmarks/bench_stream.py``).
    max_windows:
        Stop :func:`run_rolling` after this many fitted windows
        (``None`` = drain the source).
    edge_tol:
        ``|coefficient|`` threshold for an edge to count in diffs.
    verify:
        After every window, run an independent cold serial batch fit
        of the same raw window and assert bitwise-identical supports
        and coefficients.  Expensive; for tests and audits.
    max_retries:
        Re-fit attempts per window after a failure before giving up.
    """

    var: UoIVarConfig = field(default_factory=UoIVarConfig)
    window: int = 120
    cadence: int = 5
    min_samples: int | None = None
    warm: bool = True
    chain_seeding: str = "path"
    max_windows: int | None = None
    edge_tol: float = 0.0
    verify: bool = False
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.window <= self.var.order:
            raise ValueError(
                f"window must exceed VAR order: {self.window} <= {self.var.order}"
            )
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if self.min_samples is not None and not (
            self.var.order < self.min_samples <= self.window
        ):
            raise ValueError(
                "min_samples must lie in (order, window]"
            )
        if self.chain_seeding not in ("path", "none"):
            raise ValueError(
                f"unknown chain_seeding mode {self.chain_seeding!r}"
            )
        if self.max_windows is not None and self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def expected_windows(config: StreamConfig, n_ticks: int) -> int:
    """Windows a rolling run over ``n_ticks`` ticks will fit.

    Mirrors :meth:`RollingRefitter.offer`'s cadence: the first fit at
    ``min_samples`` ticks (a full window by default), one more every
    ``cadence`` ticks after that, capped at ``max_windows``.  The
    service layer uses this as a stream job's progress total.
    """
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    min_samples = (
        config.window if config.min_samples is None else config.min_samples
    )
    if n_ticks < min_samples:
        return 0
    n = 1 + (n_ticks - min_samples) // config.cadence
    if config.max_windows is not None:
        n = min(n, config.max_windows)
    return n


@dataclass
class WindowFit:
    """One fitted window of the stream.

    ``t_end`` is the stream tick count when the window was fit (the
    newest sample's 1-based position in the stream); ``retries`` is
    how many failed attempts preceded the successful one (0 for an
    undisturbed window); ``warm`` records whether warm-start paths
    from the previous window actually seeded this one.

    ``nonconverged`` counts solver calls in this window's fit that
    exhausted their iteration budget instead of reaching tolerance
    (from the ``cd.nonconverged`` and ``admm.nonconverged`` telemetry
    counters, one count per response column).  Nonzero means
    the warm/cold identity is no longer guaranteed for this window —
    raise ``lasso.max_iter``.  Best-effort: solves running in worker
    *processes* (multiprocess/elastic backends) are uninstrumented, so
    only in-process backends feed this field; ``verify=True`` is the
    backend-independent hard check.
    """

    index: int
    t_end: int
    outputs: PlanOutputs
    seconds: float
    warm: bool
    retries: int = 0
    nonconverged: int = 0
    diff: NetworkDiff | None = None


class StreamOutputs:
    """All fitted windows of a rolling run, batch-estimator flavored.

    ``coef``/``supports``/``losses``/``winners``/``lambdas`` delegate
    to the newest window so anything written against
    :class:`~repro.engine.plan.PlanOutputs` (the service layer's
    result flattening, notably) consumes a stream result unchanged;
    ``extra`` additionally carries the per-window stability/drift/edge
    traces that are the stream's own signal.
    """

    def __init__(self, windows: list[WindowFit], p: int, order: int) -> None:
        if not windows:
            raise ValueError("no windows were fit (stream ended before priming)")
        self.windows = windows
        self.p = p
        self.order = order

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def final(self) -> WindowFit:
        return self.windows[-1]

    @property
    def coef(self) -> np.ndarray:
        return self.final.outputs.coef

    @property
    def supports(self) -> np.ndarray:
        return self.final.outputs.supports

    @property
    def losses(self) -> np.ndarray:
        return self.final.outputs.losses

    @property
    def winners(self) -> np.ndarray:
        return self.final.outputs.winners

    @property
    def lambdas(self) -> np.ndarray:
        return self.final.outputs.lambdas

    @property
    def extra(self) -> dict[str, Any]:
        merged = dict(self.final.outputs.extra)
        diffs = [w.diff for w in self.windows if w.diff is not None]
        merged["stream_t_end"] = np.array([w.t_end for w in self.windows])
        merged["stream_seconds"] = np.array([w.seconds for w in self.windows])
        merged["stream_retries"] = np.array([w.retries for w in self.windows])
        merged["stream_nonconverged"] = np.array(
            [w.nonconverged for w in self.windows]
        )
        merged["stream_stability"] = np.array([d.stability for d in diffs])
        merged["stream_drift"] = np.array([d.drift for d in diffs])
        merged["stream_edges"] = np.array(
            [d.n_edges_cur for d in diffs], dtype=float
        )
        return merged


def _nonconverged_solves(probe: Recorder) -> float:
    """Solves that exhausted their budget so far, whichever solver ran."""
    counters = probe.counter_values()
    return counters.get("cd.nonconverged", 0.0) + counters.get(
        "admm.nonconverged", 0.0
    )


class RollingRefitter:
    """Feed ticks in, get :class:`WindowFit` records out at cadence.

    Parameters
    ----------
    config:
        The stream configuration.
    p:
        Series dimension.
    executor:
        Engine backend for the per-window runs; ``None`` follows the
        process default (``REPRO_ENGINE_BACKEND``).
    diff_log:
        Optional :class:`~repro.stream.diff.DiffLog` receiving one
        JSONL event per fitted window.
    on_window:
        Optional callback invoked with each :class:`WindowFit`.
    """

    def __init__(
        self,
        config: StreamConfig,
        p: int,
        *,
        executor: "Coordinator | None" = None,
        diff_log: DiffLog | None = None,
        on_window: Callable[[WindowFit], None] | None = None,
    ) -> None:
        self.config = config
        self.p = p
        self.executor = executor
        self.diff_log = diff_log
        self.on_window = on_window
        self.window = SlidingLagWindow(
            p,
            config.var.order,
            config.window,
            add_intercept=config.var.fit_intercept,
        )
        self.windows: list[WindowFit] = []
        self.ticks = 0
        self._since_fit = 0
        self._primed = False
        self._min_samples = (
            config.window if config.min_samples is None else config.min_samples
        )
        # Previous window's harvested selection λ-paths + coefficients.
        self._prev_paths: dict[int, np.ndarray] | None = None
        self._prev_coef: np.ndarray | None = None

    # ----------------------------------------------------------- ingest
    def offer(self, row: np.ndarray) -> WindowFit | None:
        """Consume one tick; returns a :class:`WindowFit` on fit ticks."""
        self.window.append(row)
        self.ticks += 1
        _tcount("stream.ticks")
        if not self._primed:
            if self.window.n_samples < self._min_samples:
                return None
            self._primed = True
        else:
            self._since_fit += 1
            if self._since_fit < self.config.cadence:
                return None
        self._since_fit = 0
        return self._refit()

    def drain(self, source: Iterable[np.ndarray]) -> list[WindowFit]:
        """Consume ticks until the source ends or ``max_windows`` fit."""
        limit = self.config.max_windows
        fits: list[WindowFit] = []
        for row in source:
            fit = self.offer(row)
            if fit is not None:
                fits.append(fit)
                if limit is not None and len(self.windows) >= limit:
                    break
        return fits

    # ------------------------------------------------------------ refit
    def _build_plan(self, series: np.ndarray, *, warm: bool) -> VarPlan:
        return VarPlan(
            self.config.var,
            series,
            warm_start=self._prev_paths if warm else None,
            keep_paths=self.config.warm,
            chain_seeding=self.config.chain_seeding,
        )

    def _refit(self) -> WindowFit:
        index = len(self.windows)
        series = self.window.series()
        warm = self.config.warm and self._prev_paths is not None
        executor = self.executor if self.executor is not None else default_executor()
        retries = 0
        start = time.perf_counter()
        with _tspan(
            f"stream.window/{index}",
            "computation",
            window=index,
            t_end=self.ticks,
            warm=warm,
            m=len(self.window),
        ):
            while True:
                # A fresh plan per attempt: plans are single-use (they
                # accumulate reduced state), and rebuilding is what
                # makes a retried window bitwise equal to a clean one.
                plan = self._build_plan(series, warm=warm)
                # Probe the solvers' nonconvergence counters across this
                # attempt.  Piggybacks on the caller's recorder when one
                # is installed; otherwise a private recorder keeps the
                # check always-on for in-process backends.
                probe = current_recorder()
                owns_probe = probe is None
                if owns_probe:
                    probe = Recorder()
                before = _nonconverged_solves(probe)
                try:
                    if owns_probe:
                        with use_recorder(probe):
                            outputs = run_plan(plan, executor)
                    else:
                        outputs = run_plan(plan, executor)
                    break
                except Exception:
                    retries += 1
                    _tcount("stream.recoveries")
                    if retries > self.config.max_retries:
                        raise
        seconds = time.perf_counter() - start
        _tcount("stream.refits")
        nonconverged = int(_nonconverged_solves(probe) - before)
        if nonconverged:
            _tcount("stream.nonconverged_solves", nonconverged)

        if self.config.verify:
            self._verify_against_cold(series, outputs, nonconverged)

        diff: NetworkDiff | None = None
        if self._prev_coef is not None:
            diff = diff_networks(
                self._prev_coef,
                outputs.coef,
                self.p,
                self.config.var.order,
                has_intercept=self.config.var.fit_intercept,
                tol=self.config.edge_tol,
            )
            record_diff(diff)
        if self.diff_log is not None:
            self.diff_log.emit(
                index,
                diff,
                edges=edge_set(
                    outputs.coef,
                    self.p,
                    self.config.var.order,
                    has_intercept=self.config.var.fit_intercept,
                    tol=self.config.edge_tol,
                ),
                t_end=self.ticks,
                seconds=seconds,
                warm=warm,
                retries=retries,
                nonconverged=nonconverged,
            )

        if self.config.warm:
            self._prev_paths = plan.selection_paths or None
        self._prev_coef = np.array(outputs.coef, copy=True)

        fit = WindowFit(
            index=index,
            t_end=self.ticks,
            outputs=outputs,
            seconds=seconds,
            warm=warm,
            retries=retries,
            nonconverged=nonconverged,
            diff=diff,
        )
        self.windows.append(fit)
        if self.on_window is not None:
            self.on_window(fit)
        return fit

    def _verify_against_cold(
        self, series: np.ndarray, outputs: PlanOutputs, nonconverged: int
    ) -> None:
        """Assert the streaming fit == an independent cold serial fit."""
        from repro.engine import SerialExecutor

        cold = run_plan(VarPlan(self.config.var, series), SerialExecutor())
        hint = (
            f" ({nonconverged} solve(s) exhausted lasso.max_iter before"
            " reaching tolerance — warm/cold identity requires converged"
            " solves; raise the sweep budget)"
            if nonconverged
            else ""
        )
        if not np.array_equal(outputs.supports, cold.supports):
            raise AssertionError(
                "warm-started window supports diverged from cold batch fit"
                + hint
            )
        if not np.array_equal(outputs.coef, cold.coef):
            raise AssertionError(
                "warm-started window coefficients diverged from cold batch fit"
                + hint
            )

    def finalize(self) -> StreamOutputs:
        """Bundle all fitted windows (raises if none were fit)."""
        return StreamOutputs(self.windows, self.p, self.config.var.order)


def run_rolling(
    source: Iterable[np.ndarray],
    config: StreamConfig,
    *,
    p: int | None = None,
    executor: "Coordinator | None" = None,
    diff_log: DiffLog | None = None,
    on_window: Callable[[WindowFit], None] | None = None,
) -> StreamOutputs:
    """Drive a rolling fit over ``source`` and return its windows.

    ``source`` is any iterable of ``(p,)`` samples — a dataset
    ``iter_ticks`` generator, a :mod:`repro.stream.ingest` source, or a
    plain array's rows, iterated on the calling thread.  ``p`` is
    inferred from the first tick when omitted.  Stops at ``config.max_windows`` fitted windows
    or when the source ends, whichever is first.
    """
    it = iter(source)
    if p is None:
        try:
            first = np.asarray(next(it), dtype=float)
        except StopIteration:
            raise ValueError("empty stream source") from None
        p = int(first.shape[0])

        def _chain() -> Iterable[np.ndarray]:
            yield first
            yield from it

        rows: Iterable[np.ndarray] = _chain()
    else:
        rows = it
    refitter = RollingRefitter(
        config, p, executor=executor, diff_log=diff_log, on_window=on_window
    )
    refitter.drain(rows)
    return refitter.finalize()
