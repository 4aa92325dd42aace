"""The persistent sweep server: stdlib HTTP front end over the queue.

``SweepServer`` wires the pieces together: an indexed result store
(:func:`repro.dse.store.open_result_store`), the
:class:`~repro.serve.workers.WorkerPool`, the
:class:`~repro.serve.jobs.JobManager`, a housekeeping thread (TTL
eviction every ``housekeeping_s``), and a threaded stdlib HTTP server —
one handler thread per connection, so a ``wait=true`` query may block
its own thread without stalling the service. No third-party web
framework: the surface is nine JSON routes
(:data:`repro.serve.protocol.ENDPOINTS`), and the stdlib keeps the
simulator's no-new-dependencies rule intact.

Transport is TCP (loopback by default) or a unix-domain socket
(``socket_path``), the natural fit for a same-host sidecar service.
There is no authentication — binding beyond loopback is an explicit
operator decision (see docs/SERVICE.md, "Failure modes and limits").

Requests that name an unknown route get 404; malformed JSON or invalid
specs/points get 400 with ``{"error": ...}``; unexpected handler
exceptions get 500 and increment ``serve.http_errors`` — a request can
fail, the service must not.
"""

from __future__ import annotations

import io
import json
import os
import re
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..obs import OBS
from ..dse.spec import SweepPoint, SweepSpec, shipped_specs
from ..dse.store import open_result_store
from .config import ServeConfig
from .jobs import JobManager
from .protocol import API_VERSION
from .workers import WorkerPool

#: default wait bound for ``POST /v1/query`` with ``wait=true``
DEFAULT_QUERY_WAIT_S = 30.0


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: "SweepServer"


class _UnixHTTPServer(_HTTPServer):
    address_family = socket.AF_UNIX

    def server_bind(self):
        path = self.server_address
        if isinstance(path, str) and os.path.exists(path):
            os.unlink(path)
        # skip HTTPServer.server_bind: it unpacks (host, port), which a
        # unix path does not have
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{API_VERSION}"

    # -- plumbing ------------------------------------------------------
    def address_string(self) -> str:  # unix sockets have no peer tuple
        if isinstance(self.client_address, (str, bytes)):
            return "local"
        try:
            return super().address_string()
        except (TypeError, IndexError):
            return "local"

    def log_message(self, format: str, *args) -> None:
        if self.app.verbose:
            super().log_message(format, *args)

    @property
    def app(self) -> "SweepServer":
        return self.server.app  # type: ignore[attr-defined]

    def _send(self, status: int, payload: Dict[str, object]) -> None:
        """Write status line, headers and body in one write: a separate
        header write followed by a small body stalls keep-alive clients
        for a delayed-ACK round (~40 ms) under Nagle's algorithm."""
        body = json.dumps(payload).encode()
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        wfile.write(head + body)

    def _body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from None
        if not isinstance(parsed, dict):
            raise ConfigError("request body must be a JSON object")
        return parsed

    def _dispatch(self, method: str) -> None:
        OBS.inc("serve.http_requests")
        try:
            handled = self.app.route(self, method, self.path)
        except ConfigError as exc:
            OBS.inc("serve.http_errors")
            self._send(400, {"error": str(exc)})
            return
        except BrokenPipeError:
            raise
        except Exception as exc:  # noqa: BLE001 — 500, never a crash
            OBS.inc("serve.http_errors")
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if not handled:
            OBS.inc("serve.http_errors")
            self._send(404, {"error": f"no route {method} {self.path}"})

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


_JOB_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)$")
_JOB_ROWS_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/rows$")
_RESULT_RE = re.compile(r"^/v1/results/([0-9a-f]+)$")


class SweepServer:
    """One service instance: store + pool + jobs + HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 verbose: bool = False):
        self.config = config or ServeConfig.from_env()
        self.config.validate()
        self.verbose = verbose
        self.store = open_result_store(
            self.config.store_path, ttl_s=self.config.ttl_s,
            max_rows=self.config.max_rows)
        assert self.store is not None
        if getattr(self.store, "quarantined", None):
            OBS.inc("serve.store_quarantined")
        self.pool = WorkerPool(
            workers=self.config.workers,
            processes=not self.config.inline,
            timeout_s=self.config.timeout_s,
            retries=self.config.retries,
            backoff_s=self.config.backoff_s,
        )
        self.manager = JobManager(self.store, self.pool)
        self._stop_evt = threading.Event()
        self._housekeeper: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None
        if self.config.socket_path:
            self._httpd = _UnixHTTPServer(
                self.config.socket_path, _Handler)  # type: ignore[arg-type]
        else:
            self._httpd = _HTTPServer(
                (self.config.host, self.config.port), _Handler)
        self._httpd.app = self

    # -- addresses -----------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0``); 0 on unix sockets."""
        if self.config.socket_path:
            return 0
        return self._httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        if self.config.socket_path:
            return f"unix:{self.config.socket_path}"
        return f"http://{self.config.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    def _housekeeping(self) -> None:
        while not self._stop_evt.wait(self.config.housekeeping_s):
            evicted = self.store.evict_expired() if hasattr(
                self.store, "evict_expired") else 0
            if evicted:
                OBS.inc("serve.store_evicted_ttl", evicted)

    def start(self) -> None:
        """Serve on a background thread (tests / the storm bench)."""
        self._start_housekeeper()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="serve-http")
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI)."""
        self._start_housekeeper()
        try:
            self._httpd.serve_forever()
        finally:
            self._teardown()

    def _start_housekeeper(self) -> None:
        if self._housekeeper is None:
            self._housekeeper = threading.Thread(
                target=self._housekeeping, daemon=True,
                name="serve-housekeeping")
            self._housekeeper.start()

    def stop(self) -> None:
        """Clean shutdown: stop the listener, pool and store."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30.0)
            self._teardown()

    def _teardown(self) -> None:
        if self._stop_evt.is_set():
            return
        self._stop_evt.set()
        self.pool.close(wait=False)
        self.store.close()
        if self.config.socket_path and os.path.exists(
                self.config.socket_path):
            os.unlink(self.config.socket_path)

    # -- routing -------------------------------------------------------
    def route(self, h: _Handler, method: str, path: str) -> bool:
        """Dispatch one request; False means no such route."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/v1/healthz":
            h._send(200, {
                "ok": True,
                "api_version": API_VERSION,
                "store_rows": self.store.count(),
                "endpoint": self.endpoint,
            })
            return True
        if method == "GET" and path == "/v1/stats":
            h._send(200, {
                "stats": self.manager.stats(),
                "counters": {k: v for k, v in
                             OBS.snapshot()["counters"].items()
                             if k.startswith("serve.")},
            })
            return True
        if method == "POST" and path == "/v1/sweeps":
            return self._post_sweeps(h)
        if method == "GET" and path == "/v1/jobs":
            h._send(200, {
                "jobs": [j.as_dict() for j in self.manager.jobs()]})
            return True
        m = _JOB_RE.match(path)
        if method == "GET" and m:
            job = self.manager.job(m.group(1))
            if job is None:
                h._send(404, {"error": f"unknown job {m.group(1)!r}"})
            else:
                h._send(200, {"job": job.as_dict()})
            return True
        m = _JOB_ROWS_RE.match(path)
        if method == "GET" and m:
            try:
                rows = self.manager.job_rows(m.group(1))
            except ConfigError as exc:
                h._send(404, {"error": str(exc)})
                return True
            job = self.manager.job(m.group(1))
            assert job is not None
            h._send(200, {"job": job.as_dict(), "rows": rows})
            return True
        if method == "POST" and path == "/v1/query":
            return self._post_query(h)
        m = _RESULT_RE.match(path)
        if method == "GET" and m:
            row = self.manager.result(m.group(1))
            if row is None:
                h._send(404, {"error": f"no row for hash {m.group(1)}"})
            else:
                h._send(200, {"row": row})
            return True
        if method == "POST" and path == "/v1/shutdown":
            h._send(200, {"ok": True,
                          "pending_groups": self.pool.depth})
            # shut down from another thread: shutdown() deadlocks when
            # called from a handler running inside serve_forever
            threading.Thread(target=self.stop, daemon=True,
                             name="serve-shutdown").start()
            return True
        return False

    # -- handlers ------------------------------------------------------
    def _post_sweeps(self, h: _Handler) -> bool:
        body = h._body()
        if "spec" not in body:
            raise ConfigError('POST /v1/sweeps body needs a "spec" key '
                              "(shipped spec name or inline spec object)")
        raw = body["spec"]
        if isinstance(raw, str):
            shipped = shipped_specs()
            if raw not in shipped:
                raise ConfigError(
                    f"unknown shipped spec {raw!r} (shipped: "
                    f"{sorted(shipped)}); POST the spec object inline "
                    f"to run an ad-hoc sweep")
            spec = SweepSpec.from_file(shipped[raw])
        elif isinstance(raw, dict):
            spec = SweepSpec.from_dict(raw)
        else:
            raise ConfigError('"spec" must be a name or an object')
        job = self.manager.submit_spec(spec)
        h._send(202, {"job": job.as_dict()})
        return True

    def _post_query(self, h: _Handler) -> bool:
        body = h._body()
        if "point" not in body:
            raise ConfigError('POST /v1/query body needs a "point" key')
        if not isinstance(body["point"], dict):
            raise ConfigError('"point" must be an object')
        point = SweepPoint.from_dict(body["point"])
        base_name = str(body.get("base", "experiment"))
        wait = bool(body.get("wait", False))
        timeout_s = float(body.get("timeout_s", DEFAULT_QUERY_WAIT_S))
        job, row = self.manager.submit_point(point, base_name)
        if row is not None:
            h._send(200, {"cached": True, "row": row,
                          "job": job.as_dict()})
            return True
        if wait:
            done = self.manager.wait_for_job(job.id, timeout_s)
            row = self.manager.result(job.hashes[0])
            status = 200 if (done is not None and row is not None) else 202
            job = done or job
            h._send(status, {"cached": False, "row": row,
                             "job": job.as_dict()})
            return True
        h._send(202, {"cached": False, "row": None,
                      "job": job.as_dict()})
        return True


__all__ = ["DEFAULT_QUERY_WAIT_S", "SweepServer"]
