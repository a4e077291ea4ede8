"""Tick sources.

The contract under test: the socket/replay sources deliver ticks
bitwise equal to their batch counterparts.
"""

import socket
import threading

import numpy as np
import pytest

from repro.datasets import finance, var_synthetic
from repro.stream import FinanceReplaySource, SocketSource, SpikeRateSource
from repro.wire import LineChannel, encode_array


def serve_ticks(rows):
    """Serve ``rows`` to one :class:`SocketSource` client on a daemon
    thread; returns ``((host, port), thread)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    addr = listener.getsockname()[:2]

    def _serve():
        with listener:
            conn, _ = listener.accept()
            channel = LineChannel(conn)
            try:
                for row in rows:
                    channel.send({"tick": encode_array(np.asarray(row, dtype=float))})
                channel.send({"end": True})
            except BrokenPipeError:
                pass  # the client hung up on a rejected tick
            finally:
                channel.close()

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    return addr, thread


# ---------------------------------------------------------------------------
# tick sources
# ---------------------------------------------------------------------------
class TestSources:
    def test_var_iter_ticks_bitwise_equals_batch(self):
        """The seed contract: first n stream ticks == batch simulation."""
        from repro.var.model import VARProcess

        rng = np.random.default_rng(11)
        coefs = var_synthetic.random_sparse_coefs(
            4, 2, density=0.2, target_radius=0.6, rng=rng
        )
        batch = VARProcess(coefs, noise_cov=np.eye(4)).simulate(
            30, rng, burn_in=200
        )
        stream = var_synthetic.iter_ticks(
            4, order=2, density=0.2, target_radius=0.6, seed=11, burn_in=200
        )
        got = np.array([next(stream) for _ in range(30)])
        assert np.array_equal(got, batch)

    def test_var_iter_ticks_stable_across_instances(self):
        a = var_synthetic.iter_ticks(3, seed=5)
        b = var_synthetic.iter_ticks(3, seed=5)
        for _ in range(10):
            assert np.array_equal(next(a), next(b))

    def test_finance_iter_ticks_bitwise_equals_batch(self):
        panel = finance.make_stock_panel(6, 120, rng=np.random.default_rng(2))
        batch = finance.first_differences(finance.weekly_closes(panel.prices))
        got = np.array(list(finance.iter_ticks(6, n_days=120, seed=2)))
        assert np.array_equal(got, batch)
        assert got.shape[0] == 120 // 5 - 1

    def test_spike_rate_source_is_positive_and_seeded(self):
        rows = list(SpikeRateSource(5, seed=4, max_ticks=20))
        again = list(SpikeRateSource(5, seed=4, max_ticks=20))
        assert len(rows) == 20
        assert all(np.all(r > 0) for r in rows)
        assert all(np.array_equal(a, b) for a, b in zip(rows, again))
        # The log-link bounds rates away from zero and overflow.
        base = 2.0
        assert all(
            np.all(r >= base * np.exp(-3)) and np.all(r <= base * np.exp(3))
            for r in rows
        )

    def test_finance_replay_source_matches_generator(self):
        direct = list(finance.iter_ticks(4, n_days=60, seed=9))
        via_source = list(FinanceReplaySource(4, n_days=60, seed=9))
        assert len(direct) == len(via_source)
        assert all(np.array_equal(a, b) for a, b in zip(direct, via_source))


# ---------------------------------------------------------------------------
# socket transport
# ---------------------------------------------------------------------------
class TestSocketSource:
    def test_round_trip_bitwise(self):
        rows = list(finance.iter_ticks(3, n_days=60, seed=6))
        addr, server = serve_ticks(iter(rows))
        src = SocketSource.connect(*addr)
        got = list(src)
        server.join(5.0)
        assert src.p == 3 and src.received == len(rows)
        assert all(np.array_equal(a, b) for a, b in zip(got, rows))

    def test_shape_mismatch_rejected(self):
        rows = [np.zeros(2), np.zeros(3)]
        addr, server = serve_ticks(iter(rows))
        src = SocketSource.connect(*addr)
        with pytest.raises(ValueError, match="tick shape"):
            list(src)
        server.join(5.0)
