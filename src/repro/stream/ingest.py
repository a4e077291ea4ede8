"""Tick sources for the rolling re-fit loop.

A source is any iterable of ``(p,)`` tick rows;
:class:`~repro.stream.refit.RollingRefitter` iterates it on the calling
thread, so a tick is appended to the window and, on cadence, re-fit
before the next one is read.  Three sources cover the paper's two data
regimes plus a network path:

* :class:`SpikeRateSource` — the neuro regime: a latent sparse stable
  VAR (:func:`repro.datasets.var_synthetic.iter_ticks`) driving
  per-electrode firing rates through the same log-link
  :mod:`repro.datasets.neuro` uses.
* :class:`FinanceReplaySource` — replays weekly first-differences of a
  synthetic S&P-style closing-price panel
  (:func:`repro.datasets.finance.iter_ticks`).
* :class:`SocketSource` — line-JSON ticks over a socket speaking the
  :mod:`repro.wire` codec (``{"tick": <encoded array>}`` frames,
  ``{"end": true}`` terminator).
"""

from __future__ import annotations

import socket
from typing import Iterator

import numpy as np

from repro.datasets import finance, var_synthetic
from repro.wire import LineChannel, decode_array

__all__ = [
    "SpikeRateSource",
    "FinanceReplaySource",
    "SocketSource",
]


class SpikeRateSource:
    """Synthetic neuro regime: latent sparse VAR -> firing rates.

    Yields ``(p,)`` per-electrode firing-rate vectors,
    ``base_rate * exp(clip(latent, -3, 3))`` — the log-link of
    :func:`repro.datasets.neuro.make_spike_counts` over the bitwise-
    reproducible latent stream of
    :func:`repro.datasets.var_synthetic.iter_ticks`.  Infinite; bound
    it with ``max_ticks`` or stop consuming.
    """

    def __init__(
        self,
        p: int,
        *,
        order: int = 1,
        density: float = 0.1,
        coupling_radius: float = 0.6,
        base_rate: float = 2.0,
        noise_std: float = 0.2,
        seed: int = 0,
        max_ticks: int | None = None,
    ) -> None:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        self.p = p
        self.order = order
        self.density = density
        self.coupling_radius = coupling_radius
        self.base_rate = base_rate
        self.noise_std = noise_std
        self.seed = seed
        self.max_ticks = max_ticks

    def __iter__(self) -> Iterator[np.ndarray]:
        latents = var_synthetic.iter_ticks(
            self.p,
            order=self.order,
            density=self.density,
            target_radius=self.coupling_radius,
            noise_std=self.noise_std,
            seed=self.seed,
        )
        for i, latent in enumerate(latents):
            if self.max_ticks is not None and i >= self.max_ticks:
                return
            yield self.base_rate * np.exp(np.clip(latent, -3.0, 3.0))


class FinanceReplaySource:
    """Finance regime: replay weekly first-differenced closes.

    Finite — yields exactly the rows of
    :func:`repro.datasets.finance.iter_ticks` (one per completed week
    after the first), in panel order, bitwise equal to the batch
    pipeline's design matrix rows.
    """

    def __init__(
        self,
        n_companies: int = 50,
        *,
        n_days: int = 504,
        seed: int = 0,
        **panel_kwargs: float,
    ) -> None:
        self.p = n_companies
        self.n_companies = n_companies
        self.n_days = n_days
        self.seed = seed
        self.panel_kwargs = panel_kwargs

    def __iter__(self) -> Iterator[np.ndarray]:
        return finance.iter_ticks(
            self.n_companies,
            n_days=self.n_days,
            seed=self.seed,
            **self.panel_kwargs,
        )


class SocketSource:
    """Ticks from a line-JSON socket peer speaking :mod:`repro.wire`.

    Protocol: the server sends ``{"tick": <encode_array(row)>}`` frames
    and finishes with ``{"end": true}``; EOF without the terminator is
    treated as a clean end too (a live feed going away is a stream
    ending, not an error).  Iterating consumes the channel once.
    """

    def __init__(self, channel: LineChannel, *, p: int | None = None) -> None:
        self.channel = channel
        self.p = p
        self.received = 0

    @classmethod
    def connect(cls, host: str, port: int, *, p: int | None = None) -> "SocketSource":
        return cls(LineChannel(socket.create_connection((host, port))), p=p)

    def __iter__(self) -> Iterator[np.ndarray]:
        try:
            while True:
                frame = self.channel.recv()
                if frame is None or frame.get("end"):
                    return
                if "tick" not in frame:
                    raise ValueError(f"unexpected stream frame: {sorted(frame)}")
                row = decode_array(frame["tick"]).astype(float, copy=False)
                if self.p is None:
                    self.p = int(row.shape[0])
                elif row.shape != (self.p,):
                    raise ValueError(
                        f"tick shape {row.shape} != ({self.p},)"
                    )
                self.received += 1
                yield row
        finally:
            self.channel.close()
