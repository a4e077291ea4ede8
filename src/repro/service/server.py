"""Line-JSON socket transport for the service, plus the demo driver.

One request (or one stream subscription) per connection; every frame
is a single JSON line.  ndarrays cross the wire as
``{"__ndarray__": <base64 bytes>, "dtype": ..., "shape": ...}`` so
results decode bitwise — the transport never rounds through text
floats.  The verbs mirror :class:`~repro.service.service.Service`:

``submit`` / ``status`` / ``jobs`` / ``results`` / ``cancel`` →
one ``{"ok": ...}`` response line; ``stream`` → one
``{"ok": true, "event": ...}`` line per progress snapshot, ending
with the event carrying ``"final": true``; errors →
``{"ok": false, "error": <type>, "message": ...}``.

:func:`run_demo` is the acceptance driver used by ``repro serve
--demo`` and CI: it boots a server, pushes concurrent mixed
LASSO/VAR jobs through socket clients, and checks every result is
bitwise identical to a direct ``UoILasso.fit`` / ``UoIVar.fit``.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from types import TracebackType
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.service.jobs import (
    AdmissionError,
    JobCancelled,
    JobSpec,
    UnknownJobError,
    outputs_to_arrays,
)
from repro.service.service import Service

# The ndarray codec and typed error mapping are shared with the
# elastic worker transport (repro.engine.elastic) via repro.wire —
# one codec, so the two line-JSON protocols can never drift.
from repro.wire import (
    decode_array,
    decode_arrays as _decode_arrays,
    encode_array,
    encode_arrays as _encode_arrays,
    error_map,
    error_to_wire,
    raise_from_wire,
)

__all__ = [
    "ServiceServer",
    "SocketServiceClient",
    "encode_array",
    "decode_array",
    "config_from_wire",
    "run_demo",
]


def config_from_wire(kind: str, cfg: Mapping[str, Any] | None) -> Any:
    """Config kwargs dict -> the family's config dataclass.

    For ``"var"``, a nested ``"lasso"`` dict becomes the inner
    :class:`UoILassoConfig`; for ``"stream"``, a nested ``"var"`` dict
    (itself possibly nesting ``"lasso"``) becomes the inner
    :class:`UoIVarConfig` of a
    :class:`~repro.stream.refit.StreamConfig`.
    """
    if cfg is None:
        return None
    cfg = dict(cfg)

    def _var_config(var_cfg: dict) -> UoIVarConfig:
        lasso = var_cfg.pop("lasso", None)
        if isinstance(lasso, Mapping):
            var_cfg["lasso"] = UoILassoConfig(**lasso)
        return UoIVarConfig(**var_cfg)

    try:
        if kind == "var":
            return _var_config(cfg)
        if kind == "stream":
            from repro.stream.refit import StreamConfig

            var = cfg.pop("var", None)
            if isinstance(var, Mapping):
                cfg["var"] = _var_config(dict(var))
            return StreamConfig(**cfg)
        return UoILassoConfig(**cfg)
    except TypeError as exc:
        raise AdmissionError(f"invalid {kind} config: {exc}") from exc


def config_to_wire(config: Any) -> dict | None:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return dict(config)


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
class ServiceServer:
    """Threaded line-JSON TCP front end over a :class:`Service`.

    One handler thread per connection; a connection carries either a
    single request/response exchange or one progress stream.  Binding
    ``port=0`` picks an ephemeral port (see :attr:`address`).
    """

    def __init__(
        self, service: Service, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._stopped = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-svc-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------ accept
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
            line = rfile.readline()
            if not line.strip():
                return

            def send(obj: dict) -> None:
                wfile.write(json.dumps(obj) + "\n")
                wfile.flush()

            try:
                request = json.loads(line)
                self._dispatch(request, send)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-stream
            except Exception as exc:  # noqa: BLE001 - wire boundary
                try:
                    send(error_to_wire(exc))
                except OSError:
                    pass

    def _dispatch(self, request: dict, send: Any) -> None:
        op = request.get("op")
        svc = self.service
        if op == "ping":
            send({"ok": True, "pong": True})
        elif op == "submit":
            kind = request["kind"]
            spec = JobSpec(
                kind=kind,
                data=_decode_arrays(request.get("data", {})),
                config=config_from_wire(kind, request.get("config")),
                backend=request.get("backend", "serial"),
                tenant=request.get("tenant", "default"),
                idempotency_key=request.get("idempotency_key"),
                label=request.get("label"),
            )
            send({"ok": True, "job_id": svc.submit(spec)})
        elif op == "status":
            send({"ok": True, "status": svc.status(request["job_id"])})
        elif op == "jobs":
            send({"ok": True, "jobs": svc.jobs()})
        elif op == "results":
            outputs = svc.results(request["job_id"], request.get("timeout"))
            send(
                {
                    "ok": True,
                    "outputs": _encode_arrays(outputs_to_arrays(outputs)),
                }
            )
        elif op == "cancel":
            send({"ok": True, "cancelled": svc.cancel(request["job_id"])})
        elif op == "stream":
            for event in svc.stream_progress(request["job_id"]):
                send({"ok": True, "event": event})
        else:
            send(
                {
                    "ok": False,
                    "error": "UnknownOp",
                    "message": f"unknown op {op!r}",
                }
            )

    # --------------------------------------------------------- lifecycle
    def stop(self) -> None:
        self._stopped.set()
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() makes that accept() fail at once.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut down, or unsupported on a listener
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------
class SocketServiceClient:
    """Line-JSON client; same verbs as the in-process ServiceClient.

    Connection-per-request keeps the client trivially thread-safe and
    lets a long ``results`` wait or a progress stream never block
    other calls.
    """

    #: Exceptions re-raised by error type name from the wire
    #: (the shared defaults plus the service's own types).
    _ERRORS: dict[str, type[Exception]] = error_map(
        AdmissionError, UnknownJobError, JobCancelled
    )

    def __init__(self, host: str, port: int, *, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _raise(self, response: dict) -> None:
        raise_from_wire(response, self._ERRORS)

    def _call(self, request: dict) -> dict:
        with self._connect() as conn:
            wfile = conn.makefile("w", encoding="utf-8")
            rfile = conn.makefile("r", encoding="utf-8")
            wfile.write(json.dumps(request) + "\n")
            wfile.flush()
            line = rfile.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            self._raise(response)
        return response

    # --------------------------------------------------------------- API
    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def submit(
        self,
        kind: str,
        data: Mapping[str, np.ndarray],
        *,
        config: Any = None,
        backend: str = "serial",
        tenant: str = "default",
        idempotency_key: str | None = None,
        label: str | None = None,
    ) -> str:
        response = self._call(
            {
                "op": "submit",
                "kind": kind,
                "data": _encode_arrays(data),
                "config": config_to_wire(config),
                "backend": backend,
                "tenant": tenant,
                "idempotency_key": idempotency_key,
                "label": label,
            }
        )
        return response["job_id"]

    def status(self, job_id: str) -> dict:
        return self._call({"op": "status", "job_id": job_id})["status"]

    def jobs(self) -> list[dict]:
        return self._call({"op": "jobs"})["jobs"]

    def results(
        self, job_id: str, timeout: float | None = None
    ) -> dict[str, np.ndarray]:
        """Named result arrays (``coef``, ``supports``, ...), decoded
        bitwise from the wire."""
        response = self._call(
            {"op": "results", "job_id": job_id, "timeout": timeout}
        )
        return _decode_arrays(response["outputs"])

    def cancel(self, job_id: str) -> bool:
        return bool(self._call({"op": "cancel", "job_id": job_id})["cancelled"])

    def stream_progress(self, job_id: str) -> Iterator[dict]:
        with self._connect() as conn:
            wfile = conn.makefile("w", encoding="utf-8")
            rfile = conn.makefile("r", encoding="utf-8")
            wfile.write(json.dumps({"op": "stream", "job_id": job_id}) + "\n")
            wfile.flush()
            for line in rfile:
                if not line.strip():
                    continue
                response = json.loads(line)
                if not response.get("ok"):
                    self._raise(response)
                event = response["event"]
                yield event
                if event.get("final"):
                    return


# ---------------------------------------------------------------------------
# demo / acceptance driver
# ---------------------------------------------------------------------------
def demo_workload(seed: int = 7) -> dict[str, Any]:
    """Small deterministic mixed workload: one LASSO and one VAR
    problem plus deliberately modest configs (the demo exercises
    concurrency, not solver scale)."""
    rng = np.random.default_rng(seed)
    n, p = 48, 8
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[:3] = (1.5, -2.0, 1.0)
    y = X @ beta + 0.1 * rng.normal(size=n)
    series = np.zeros((60, 3))
    series[0] = rng.normal(size=3)
    A = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.0], [0.0, 0.3, 0.5]])
    for t in range(1, 60):
        series[t] = A @ series[t - 1] + 0.1 * rng.normal(size=3)
    lasso_cfg = UoILassoConfig(
        n_lambdas=6,
        n_selection_bootstraps=6,
        n_estimation_bootstraps=6,
        max_iter=120,
        random_state=seed,
    )
    var_cfg = UoIVarConfig(
        order=1,
        lasso=UoILassoConfig(
            n_lambdas=4,
            n_selection_bootstraps=4,
            n_estimation_bootstraps=4,
            max_iter=120,
            random_state=seed,
        ),
    )
    return {
        "lasso": {"data": {"X": X, "y": y}, "config": lasso_cfg},
        "var": {"data": {"series": series}, "config": var_cfg},
    }


def run_demo(
    n_jobs: int = 8,
    *,
    workers: int = 2,
    batching: bool = True,
    max_batch: int = 4,
    backend: str = "serial",
    store_root: str | None = None,
    telemetry_dir: str | None = None,
    seed: int = 7,
) -> dict[str, Any]:
    """Drive ``n_jobs`` concurrent mixed LASSO/VAR jobs through socket
    clients and verify bitwise identity against direct fits.

    Returns a summary dict (``jobs``, ``identical``, per-job states,
    ``manifest`` path when ``telemetry_dir`` is given).  CI runs this
    via ``repro serve --demo 8``.
    """
    from repro.core.uoi_lasso import UoILasso
    from repro.core.uoi_var import UoIVar

    workload = demo_workload(seed)

    # Reference results, computed once per family by direct estimator
    # fits — the service must reproduce these bitwise.
    ref_lasso = UoILasso(workload["lasso"]["config"]).fit(
        workload["lasso"]["data"]["X"], workload["lasso"]["data"]["y"]
    )
    ref_var = UoIVar(workload["var"]["config"]).fit(
        workload["var"]["data"]["series"]
    )
    reference = {
        "lasso": {
            "coef": np.asarray(ref_lasso.coef_),
            "supports": np.asarray(ref_lasso.supports_),
            "losses": np.asarray(ref_lasso.losses_),
            "winners": np.asarray(ref_lasso.winners_),
            "lambdas": np.asarray(ref_lasso.lambdas_),
        },
        "var": {
            "coef": np.asarray(ref_var.vec_coef_),
            "supports": np.asarray(ref_var.supports_),
            "losses": np.asarray(ref_var.losses_),
            "winners": np.asarray(ref_var.winners_),
            "lambdas": np.asarray(ref_var.lambdas_),
        },
    }

    service = Service(
        workers=workers,
        batching=batching,
        max_batch=max_batch,
        store_root=store_root,
    )
    results: list[dict] = [{} for _ in range(n_jobs)]

    def drive(i: int) -> None:
        kind = "lasso" if i % 2 == 0 else "var"
        client = SocketServiceClient(*server.address)
        entry = workload[kind]
        try:
            job_id = client.submit(
                kind,
                entry["data"],
                config=entry["config"],
                tenant=f"tenant{i % 3}",
                backend=backend,
                label=f"demo-{i}",
            )
            events = sum(1 for _ in client.stream_progress(job_id))
            outputs = client.results(job_id, timeout=300.0)
            identical = all(
                np.array_equal(outputs[name], reference[kind][name])
                for name in reference[kind]
            )
            results[i] = {
                "job_id": job_id,
                "kind": kind,
                "state": client.status(job_id)["state"],
                "events": events,
                "identical": identical,
            }
        except Exception as exc:  # noqa: BLE001 - demo must report, not die
            results[i] = {"kind": kind, "error": f"{type(exc).__name__}: {exc}"}

    with service, ServiceServer(service) as server:
        threads = [
            threading.Thread(target=drive, args=(i,), name=f"demo-client-{i}")
            for i in range(n_jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        manifest = None
        if telemetry_dir is not None:
            manifest = service.export_manifest(
                f"{telemetry_dir}/service_manifest.jsonl"
            )
    summary = {
        "jobs": n_jobs,
        "done": sum(1 for r in results if r.get("state") == "done"),
        "identical": all(r.get("identical") for r in results),
        "errors": [r["error"] for r in results if "error" in r],
        "per_job": results,
        "manifest": manifest,
    }
    return summary
