"""Tests for the line-JSON socket transport and the demo driver."""

import dataclasses
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    Service,
    ServiceServer,
    SocketServiceClient,
    UnknownJobError,
)
from repro.service import server as server_module
from repro.service.server import decode_array, encode_array, run_demo
from repro.wire import encode_arrays
from tests.test_service import LASSO_CFG


@pytest.fixture()
def lasso_problem():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 6))
    beta = np.zeros(6)
    beta[:2] = (1.2, -0.8)
    y = X @ beta + 0.1 * rng.normal(size=40)
    return {"X": X, "y": y}


@pytest.fixture()
def served():
    with Service(workers=2) as service, ServiceServer(service) as server:
        with SocketServiceClient(*server.address) as client:
            yield service, client


class TestWireEncoding:
    def test_array_roundtrip_is_bitwise(self):
        for arr in (
            np.random.default_rng(0).normal(size=(3, 5)),
            np.arange(7, dtype=np.int64),
            np.array([], dtype=np.float32),
            np.array(True),
        ):
            out = decode_array(json.loads(json.dumps(encode_array(arr))))
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_decoded_array_is_writable(self):
        out = decode_array(encode_array(np.arange(4.0)))
        out[0] = 9.0  # frombuffer alone would be read-only


class TestSocketRoundTrip:
    def test_submit_results_status_over_the_wire(self, served, lasso_problem):
        _, client = served
        assert client.ping()
        job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
        outputs = client.results(job_id, timeout=120.0)
        from repro.core.uoi_lasso import UoILasso

        ref = UoILasso(LASSO_CFG).fit(lasso_problem["X"], lasso_problem["y"])
        assert np.array_equal(outputs["coef"], ref.coef_)
        assert np.array_equal(outputs["lambdas"], ref.lambdas_)
        status = client.status(job_id)
        assert status["state"] == "done"
        assert [j["id"] for j in client.jobs()] == [job_id]

    def test_stream_progress_over_the_wire(self, served, lasso_problem):
        _, client = served
        job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
        events = list(client.stream_progress(job_id))
        assert events[-1]["final"] is True
        assert events[-1]["state"] == "done"
        assert len(events) == 9  # 4 + 4 subproblems, then the terminal event

    def test_errors_map_back_to_typed_exceptions(self, served, lasso_problem):
        _, client = served
        with pytest.raises(AdmissionError):
            client.submit("ridge", lasso_problem)
        with pytest.raises(UnknownJobError):
            client.status("j999")
        # Three ~0.3 s fits on two workers: the third cannot start
        # before one of them ends, so its tiny deadline expires however
        # slowly this thread gets to ask.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 40))
        heavy = {"X": X, "y": X[:, 0] + rng.normal(size=300)}
        config = dataclasses.replace(
            LASSO_CFG, n_lambdas=6, n_selection_bootstraps=6, max_iter=500
        )
        ids = [
            client.submit("lasso", heavy, config=config, tenant=f"t{i}")
            for i in range(3)
        ]
        with pytest.raises(TimeoutError):
            client.results(ids[-1], timeout=1e-9)

    def test_config_with_dropped_field_is_a_typed_rejection(
        self, served, lasso_problem
    ):
        """A lasso config still carrying ``adapt_rho`` (a field the
        config no longer has) gets an AdmissionError reply naming it,
        and the connection's handler thread serves the next request."""
        _, client = served
        config = {**dataclasses.asdict(LASSO_CFG), "adapt_rho": False}
        request = {
            "op": "submit",
            "kind": "lasso",
            "data": encode_arrays(lasso_problem),
            "config": config,
        }
        with socket.create_connection((client.host, client.port)) as conn:
            rfile = conn.makefile("r")
            conn.sendall(json.dumps(request).encode() + b"\n")
            response = json.loads(rfile.readline())
            conn.sendall(b'{"op": "ping"}\n')
            second = json.loads(rfile.readline())
        assert response["ok"] is False
        assert response["error"] == "AdmissionError"
        assert "adapt_rho" in response["message"]
        assert second == {"ok": True, "pong": True}
        with pytest.raises(AdmissionError, match="adapt_rho"):
            client.submit("lasso", lasso_problem, config=config)
        job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
        assert client.results(job_id, timeout=120.0)["coef"].shape == (6,)

    def test_unknown_op_rejected(self, served):
        service, client = served
        with pytest.raises(RuntimeError, match="unknown op"):
            client._call({"op": "explode"})

    def test_malformed_request_reports_error(self, served):
        _, client = served
        with socket.create_connection((client.host, client.port)) as conn:
            conn.sendall(b"this is not json\n")
            rfile = conn.makefile("r")
            line = rfile.readline()
            # The connection survives the bad line and serves the next one.
            conn.sendall(b'{"op": "ping"}\n')
            second = json.loads(rfile.readline())
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"] == "JSONDecodeError"
        assert second == {"ok": True, "pong": True}

    def test_cancel_over_the_wire(self, served, lasso_problem):
        _, client = served
        ids = [
            client.submit(
                "lasso", lasso_problem, config=LASSO_CFG, tenant=f"t{i}"
            )
            for i in range(6)
        ]
        cancelled = client.cancel(ids[-1])
        # Either it was still queued/running (True) or already finished
        # (False); both are valid snapshots of a live service.
        assert isinstance(cancelled, bool)
        state = client.status(ids[-1])["state"]
        assert state in ("cancelled", "done", "running", "queued")


class TestLifecycle:
    def test_stop_wakes_the_accept_thread_and_frees_the_port(self):
        with Service(workers=1) as service:
            server = ServiceServer(service)
            host, port = server.address
            with SocketServiceClient(host, port) as client:
                assert client.ping()
            start = time.perf_counter()
            server.stop()
            assert time.perf_counter() - start < 1.0
            assert not server._accept_thread.is_alive()
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, port))  # raises while the listener lives


def count_connects(client: SocketServiceClient) -> list[int]:
    """Count the TCP connections ``client`` opens from here on."""
    opened = [0]
    connect = client._connect

    def counting():
        opened[0] += 1
        return connect()

    client._connect = counting
    return opened


@pytest.fixture()
def server_on_port():
    """A service plus a factory for servers on one fixed port."""
    with Service(workers=2) as service:
        servers: list[ServiceServer] = []

        def start(port: int = 0) -> ServiceServer:
            servers.append(ServiceServer(service, port=port))
            return servers[-1]

        yield service, start
        for server in servers:
            server.stop()


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, served, lasso_problem):
        _, client = served
        opened = count_connects(client)
        assert client.ping()
        job_id = client.submit("lasso", lasso_problem, config=LASSO_CFG)
        client.results(job_id, timeout=120.0)
        for _ in range(5):
            assert client.status(job_id)["state"] == "done"
        assert client.jobs()
        assert opened == [1]

    def test_results_wait_does_not_block_status(self, served):
        _, client = served
        assert client.ping()  # one pooled connection, which the wait takes
        # Three ~0.3 s fits on two workers: the last cannot finish before
        # one of the others does, so its results call waits on the server.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 40))
        heavy = {"X": X, "y": X[:, 0] + rng.normal(size=300)}
        config = dataclasses.replace(
            LASSO_CFG, n_lambdas=6, n_selection_bootstraps=6, max_iter=500
        )
        ids = [
            client.submit("lasso", heavy, config=config, tenant=f"t{i}")
            for i in range(3)
        ]
        got: dict = {}
        waiter = threading.Thread(
            target=lambda: got.update(client.results(ids[-1], timeout=120.0))
        )
        waiter.start()
        while client._idle and waiter.is_alive():
            time.sleep(0.001)
        state = client.status(ids[-1])["state"]
        assert waiter.is_alive() and state in ("queued", "running")
        waiter.join(timeout=120.0)
        assert not waiter.is_alive() and "coef" in got
        assert client.status(ids[-1])["state"] == "done"

    def test_stop_ends_an_idle_clients_handler(self, server_on_port):
        _, start = server_on_port
        server = start()
        client = SocketServiceClient(*server.address)
        assert client.ping()  # its connection now sits idle in the pool
        handlers = list(server._conns.values())
        assert len(handlers) == 1 and handlers[0].is_alive()
        began = time.perf_counter()
        server.stop()
        handlers[0].join(timeout=1.0)
        assert time.perf_counter() - began < 1.0
        assert not handlers[0].is_alive()
        client.close()

    def test_dead_pooled_connection_is_replaced(self, server_on_port):
        _, start = server_on_port
        server = start()
        host, port = server.address
        with SocketServiceClient(host, port) as client:
            opened = count_connects(client)
            assert client.ping()
            server.stop()
            start(port)  # same port: the pooled connection is dead
            assert client.ping()
            assert client.ping()
        assert opened == [2]

    def test_client_close_and_context_manager(self, served):
        _, client = served
        with client:
            assert client.ping()
            assert len(client._idle) == 1
        assert client._idle == []
        assert client.ping()  # a closed client still calls, without pooling
        assert client._idle == []


class TestSocketBounds:
    def test_oversized_request_line_gets_an_error_frame_then_eof(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 64)
        _, client = served
        with socket.create_connection((client.host, client.port)) as conn:
            rfile = conn.makefile("rb")
            at_limit = b'{"op": "ping"}'.ljust(63) + b"\n"
            conn.sendall(at_limit)
            assert json.loads(rfile.readline()) == {"ok": True, "pong": True}
            conn.sendall(b'{"op": "ping", "pad": "' + b"x" * 200 + b'"}\n')
            response = json.loads(rfile.readline())
            assert rfile.readline() == b""  # the server closed the connection
        assert response["ok"] is False and response["error"] == "FrameTooLarge"
        assert "64 bytes" in response["message"]
        assert client.ping()  # other connections are unaffected

    def test_idle_connection_is_closed_and_replaced(self, server_on_port, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        _, start = server_on_port
        server = start()
        with SocketServiceClient(*server.address) as client:
            opened = count_connects(client)
            assert client.ping()
            deadline = time.monotonic() + 5.0
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not server._conns  # the idle handler timed out and left
            assert client.ping()
        assert opened == [2]


def slow_lasso():
    """A UoI_LASSO job of ~0.8 s in the service (600 x 80, 20 λ x 64
    selection bootstraps), four times a 0.2 s socket timeout."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 80))
    config = dataclasses.replace(
        LASSO_CFG, n_lambdas=20, n_selection_bootstraps=64, max_iter=500
    )
    return {"X": X, "y": X[:, 0] + rng.normal(size=600)}, config


class TestResultsWait:
    """A blocking ``results`` wait follows its own ``timeout``, not the
    client's socket timeout."""

    def test_wait_longer_than_the_socket_timeout(self):
        from repro.core.uoi_lasso import UoILasso

        data, config = slow_lasso()
        with Service(workers=2) as service, ServiceServer(service) as server:
            with SocketServiceClient(*server.address, timeout=0.2) as client:
                job_id = client.submit("lasso", data, config=config)
                began = time.perf_counter()
                outputs = client.results(job_id, timeout=5.0)
                assert time.perf_counter() - began > 0.2
                # the pooled connection is back on the socket timeout
                assert [c.gettimeout() for c, _, _ in client._idle] == [0.2]
        ref = UoILasso(config).fit(data["X"], data["y"])
        assert outputs["coef"].tobytes() == ref.coef_.tobytes()
        assert outputs["lambdas"].tobytes() == ref.lambdas_.tobytes()

    def test_service_timeout_reaches_the_caller_and_the_pool_recovers(self):
        data, config = slow_lasso()
        with Service(workers=2) as service, ServiceServer(service) as server:
            with SocketServiceClient(*server.address, timeout=0.2) as client:
                job_id = client.submit("lasso", data, config=config)
                with pytest.raises(TimeoutError, match="not finished within"):
                    client.results(job_id, timeout=0.05)
                assert client.status(job_id)["state"] in ("queued", "running")
                assert "coef" in client.results(job_id, timeout=None)
                assert client.ping()


class TestRunDemo:
    def test_eight_concurrent_mixed_jobs_bitwise_identical(
        self, tmp_path, monkeypatch
    ):
        closed = []
        close = SocketServiceClient.close
        monkeypatch.setattr(
            SocketServiceClient, "close", lambda self: closed.append(close(self))
        )
        summary = run_demo(
            8,
            workers=2,
            max_batch=4,
            store_root=str(tmp_path / "store"),
            telemetry_dir=str(tmp_path),
        )
        assert summary["errors"] == []
        assert summary["done"] == 8
        assert summary["identical"] is True
        assert len(closed) == 8  # every demo client closed its connections
        from repro.telemetry import read_manifest

        man = read_manifest(summary["manifest"])
        assert man["counters"]["service.jobs_done"] == 8.0
        assert man["summary"]["jobs"] == 8
