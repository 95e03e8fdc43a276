"""The ``repro serve`` HTTP server: stdlib threading server + routes.

Endpoints (all JSON unless noted):

========================== ======================================================
``GET  /v1/health``        liveness + version
``GET  /v1/store/stats``   server-wide artifact-store statistics
``POST /v1/jobs``          submit a pipeline spec or ``{"select": ...}`` request
``GET  /v1/jobs``          snapshots of every job
``GET  /v1/jobs/{id}``     one job's state + per-cell progress
``GET  /v1/jobs/{id}/report``  the finished report — ``?format=json`` returns the
                           exact ``summary.json`` bytes, ``?format=txt`` the
                           ``report.txt`` bytes (byte-identical to a CLI run)
========================== ======================================================

Error mapping: validation problems → 400 with a ``problems`` list (the
same messages ``repro validate-config`` prints), unknown ids/routes →
404, a report requested before the job is done → 409, a request body
larger than :data:`MAX_BODY_BYTES` → 413 (rejected before it is read),
a full queue → 429.  Submissions return 202 (or 200 when deduplicated
onto an active identical job).

Built on :class:`http.server.ThreadingHTTPServer` (daemon threads, so
in-flight handlers never block shutdown) — the service adds no
dependencies beyond the Python standard library.
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import repro
from repro.serve.jobs import JobManager, QueueFullError
from repro.serve.schemas import ServeSettings
from repro.utils.specs import SpecError

__all__ = ["MAX_BODY_BYTES", "ReproServer", "make_server"]

#: Largest accepted ``POST /v1/jobs`` body.  Job requests name their data
#: sets and configs instead of inlining them, so real bodies are a few KB.
MAX_BODY_BYTES = 1 << 20


class ReproServer(ThreadingHTTPServer):
    """Threading HTTP server owning one :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager

    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:  # noqa: D102 - inherited semantics + pool stop
        super().shutdown()
        self.manager.shutdown(wait=False)


def make_server(root: str | os.PathLike, settings: ServeSettings) -> ReproServer:
    """Bind a server for the artifacts root per the ``[serve]`` settings."""
    manager = JobManager(root, workers=settings.workers, max_pending=settings.max_pending)
    return ReproServer((settings.host, settings.port), manager)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ReproServer

    # Handler plumbing ---------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # request logging is the CLI's job, not stderr noise

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_error(self, status: int, message: str, problems: list[str] | None = None) -> None:
        payload: dict = {"error": message}
        if problems:
            payload["problems"] = problems
        self._send_json(status, payload)

    # Routes -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        manager = self.server.manager
        if parts == ["v1", "health"]:
            self._send_json(200, {"status": "ok", "version": repro.__version__})
        elif parts == ["v1", "store", "stats"]:
            self._send_json(200, manager.store_stats())
        elif parts == ["v1", "jobs"]:
            self._send_json(200, {"jobs": [view.as_dict() for view in manager.list_views()]})
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            view = manager.view(parts[2])
            if view is None:
                self._send_error(404, f"unknown job {parts[2]!r}")
            else:
                self._send_json(200, view.as_dict())
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "report":
            fmt = parse_qs(url.query).get("format", ["json"])[0]
            self._send_report(parts[2], fmt)
        else:
            self._send_error(404, f"unknown route {url.path!r}")

    def _send_report(self, job_id: str, fmt: str) -> None:
        manager = self.server.manager
        view = manager.view(job_id)
        if view is None:
            self._send_error(404, f"unknown job {job_id!r}")
            return
        if view.state != "done":
            self._send_error(409, f"job {job_id} is {view.state}; its report is not ready")
            return
        if fmt not in ("json", "txt"):
            self._send_error(400, f"unknown report format {fmt!r} (expected json or txt)")
            return
        # Pipeline jobs return the report *files* byte-for-byte — the
        # parity contract with CLI runs of the same spec.
        for path in manager.report_paths_of(job_id):
            if path.suffix == f".{fmt}":
                self._send_bytes(
                    200,
                    path.read_bytes(),
                    "application/json" if fmt == "json" else "text/plain; charset=utf-8",
                )
                return
        if fmt == "json":
            result = manager.result_of(job_id)
            if result is not None:
                self._send_json(200, result)
                return
        self._send_error(404, f"job {job_id} has no {fmt} report")

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_error(404, f"unknown route {url.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            # The unread body is still on the socket: drop the connection
            # after answering instead of parsing it as the next request.
            self.close_connection = True
            self._send_error(413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
            return
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            view = self.server.manager.submit(payload)
        except QueueFullError as exc:
            self._send_error(429, str(exc))
            return
        except SpecError as exc:
            self._send_error(400, "invalid job", exc.problems)
            return
        self._send_json(200 if view.deduplicated else 202, view.as_dict())
