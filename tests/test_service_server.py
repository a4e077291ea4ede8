"""Tests for the line-JSON socket transport and the demo driver."""

import dataclasses
import json
import socket
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
from repro.service.server import decode_array, encode_array, run_demo
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
        yield service, SocketServiceClient(*server.address)


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

    def test_unknown_op_rejected(self, served):
        service, client = served
        with pytest.raises(RuntimeError, match="unknown op"):
            client._call({"op": "explode"})

    def test_malformed_request_reports_error(self, served):
        _, client = served
        with socket.create_connection((client.host, client.port)) as conn:
            conn.sendall(b"this is not json\n")
            line = conn.makefile("r").readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"] == "JSONDecodeError"

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
            assert SocketServiceClient(host, port).ping()
            start = time.perf_counter()
            server.stop()
            assert time.perf_counter() - start < 1.0
            assert not server._accept_thread.is_alive()
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, port))  # raises while the listener lives


class TestRunDemo:
    def test_eight_concurrent_mixed_jobs_bitwise_identical(self, tmp_path):
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
        from repro.telemetry import read_manifest

        man = read_manifest(summary["manifest"])
        assert man["counters"]["service.jobs_done"] == 8.0
        assert man["summary"]["jobs"] == 8
