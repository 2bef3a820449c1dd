"""Stdlib HTTP front-end for the query service.

A thin JSON layer over :class:`~repro.service.service.QueryService`,
built on :class:`http.server.ThreadingHTTPServer` only — the serving
layer adds no dependencies.  Routes:

===============================  ========================================
``POST   /v1/jobs``              submit a query (202 + job record)
``GET    /v1/jobs``              list registered jobs
``GET    /v1/jobs/<id>``         poll one job
``GET    /v1/jobs/<id>/trace``   the job's trace records (404 until done)
``GET    /v1/jobs/<id>/profile`` span tree + phase totals (404 until done)
``DELETE /v1/jobs/<id>``         cancel a queued/running job
``GET    /v1/metrics``           counters, gauges, latency histograms
``GET    /v1/metrics?format=prometheus``  text exposition format 0.0.4
``GET    /v1/healthz``           liveness
===============================  ========================================

Errors map to HTTP statuses via exception type: invalid request → 400,
unknown job → 404, full queue → 429 (the back-pressure contract: a
saturated server *rejects* rather than queueing without bound), server
shutting down → 503, any other :class:`~repro.errors.ReproError` →
400, everything else → 500.  429 and 503 responses carry a
``Retry-After`` header (from the error's ``retry_after`` detail) so
well-behaved clients pace their retries to the server's hint.  Every
error body is ``{"error": {"type", "message", "details"}}``.
A program the static analyzer rejects at admission
(:class:`~repro.errors.ProgramRejectedError`) answers 400 with the
full diagnostic list under ``details.diagnostics`` and the rejecting
codes under ``details.codes`` — see ``docs/analysis.md``.

Submits are idempotent when the client sends an ``X-Request-Id``
header: a retried ``POST /v1/jobs`` carrying the same id returns the
already admitted job instead of scheduling the work twice (the retry
contract of :mod:`repro.runtime.retry`).
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    InvalidRequestError,
    JobNotFoundError,
    QueueFullError,
    ReproError,
    ServiceUnavailableError,
)
from repro.runtime.retry import retry_after_hint
from repro.service.request import QueryRequest
from repro.service.service import QueryService

#: Largest accepted request body (a database is inlined per request).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: ``Retry-After`` seconds when the rejecting error offers no hint.
DEFAULT_RETRY_AFTER = 1.0

_STATUS_BY_ERROR = (
    (QueueFullError, 429),
    (ServiceUnavailableError, 503),
    (JobNotFoundError, 404),
    (InvalidRequestError, 400),
    (ReproError, 400),
)


def error_payload(error: BaseException) -> dict:
    """The JSON error body for any exception."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "details": dict(getattr(error, "details", {}) or {}),
        }
    }


def status_for(error: BaseException) -> int:
    """The HTTP status an exception maps to."""
    for kind, status in _STATUS_BY_ERROR:
        if isinstance(error, kind):
            return status
    return 500


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to a :class:`QueryService` via ``server``."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # the serving process keeps stdout/stderr for its own reporting.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # -- plumbing -------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_error_json(self, error: BaseException) -> None:
        status = status_for(error)
        headers = None
        if status in (429, 503):
            hint = retry_after_hint(error)
            if hint is None:
                hint = DEFAULT_RETRY_AFTER
            headers = {"Retry-After": str(max(1, math.ceil(hint)))}
        self._send_json(status, error_payload(error), headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise InvalidRequestError("request body is required")
        if length > MAX_BODY_BYTES:
            raise InvalidRequestError(
                f"request body too large ({length} bytes; "
                f"limit {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise InvalidRequestError(f"request body is not valid JSON: {error}")

    def _job_id(self, path: str) -> str:
        return path[len("/v1/jobs/"):]

    # -- routes ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path != "/v1/jobs":
                raise JobNotFoundError(f"no such endpoint: POST {self.path}")
            request = QueryRequest.from_json(self._read_body())
            request_id = self.headers.get("X-Request-Id") or None
            job = self.service.submit(request, request_id=request_id)
            self._send_json(202, job.as_dict())
        except Exception as error:  # noqa: BLE001 - server must survive
            self._send_error_json(error)

    def do_GET(self) -> None:  # noqa: N802
        try:
            url = urlsplit(self.path)
            path = url.path
            query = parse_qs(url.query)
            if path == "/v1/healthz":
                self._send_json(200, self.service.healthz())
            elif path == "/v1/metrics":
                if query.get("format", ["json"])[-1] == "prometheus":
                    self._send_text(
                        200,
                        self.service.metrics_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send_json(200, self.service.metrics_snapshot())
            elif path == "/v1/jobs":
                self._send_json(200, {
                    "jobs": [job.as_dict() for job in self.service.jobs()],
                })
            elif path.startswith("/v1/jobs/") and path.endswith("/trace"):
                job_id = self._job_id(path)[: -len("/trace")]
                self._send_json(200, {
                    "job_id": job_id,
                    "trace": self.service.job_trace(job_id),
                })
            elif path.startswith("/v1/jobs/") and path.endswith("/profile"):
                job_id = self._job_id(path)[: -len("/profile")]
                self._send_json(200, self.service.job_profile(job_id))
            elif path.startswith("/v1/jobs/"):
                job = self.service.job(self._job_id(path))
                self._send_json(200, job.as_dict())
            else:
                raise JobNotFoundError(f"no such endpoint: GET {path}")
        except Exception as error:  # noqa: BLE001
            self._send_error_json(error)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            if not self.path.startswith("/v1/jobs/"):
                raise JobNotFoundError(f"no such endpoint: DELETE {self.path}")
            job = self.service.cancel(self._job_id(self.path))
            self._send_json(200, job.as_dict())
        except Exception as error:  # noqa: BLE001
            self._send_error_json(error)


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`QueryService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, ServiceHandler)
        self.service = service


def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral port).

    The caller owns both lifecycles: ``service.start()`` before serving,
    ``server.shutdown()`` then ``service.shutdown()`` after.
    """
    return ServiceServer((host, port), service)
