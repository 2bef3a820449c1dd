"""A small urllib client for the query service's HTTP API.

Used by the ``repro submit`` / ``repro jobs`` CLI subcommands, the CI
smoke test, and anyone scripting against a running ``repro serve``.
Server-side errors are translated back into the exception types the
service raised — the ``error.type`` field round-trips, along with the
server's diagnostic ``details`` payload, the HTTP ``status``, and any
``Retry-After`` hint — so client code handles
:class:`~repro.errors.QueueFullError` the same way whether the service
is in-process or across the wire.

The client retries transparently with the stack's shared
:data:`~repro.runtime.retry.HTTP_RETRY` policy (full-jitter backoff
honouring the server's ``Retry-After``): rejected-at-capacity (429),
shutting-down (503), and connection failures are retried; everything
else raises immediately.  Submits are made safe to retry by stamping a
client-generated ``X-Request-Id`` on every ``POST /v1/jobs`` — the
server collapses a duplicate submit onto the already admitted job, so
a retry after a lost response never schedules the work twice.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable

from repro.errors import (
    InvalidRequestError,
    JobNotFoundError,
    ProgramRejectedError,
    QueueFullError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.runtime.retry import HTTP_RETRY, RetryPolicy, idempotency_key, is_retryable

_ERROR_TYPES = {
    "InvalidRequestError": InvalidRequestError,
    "ProgramRejectedError": ProgramRejectedError,
    "QueueFullError": QueueFullError,
    "JobNotFoundError": JobNotFoundError,
    "ServiceUnavailableError": ServiceUnavailableError,
}

#: Poll interval for :meth:`ServiceClient.wait`.
POLL_SECONDS = 0.1


def _raise_service_error(
    status: int, payload: Any, retry_after: float | None = None
) -> None:
    error = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(error, dict):
        exception: ServiceError = ServiceError(
            f"service returned HTTP {status}: {payload!r}"
        )
    else:
        kind = _ERROR_TYPES.get(error.get("type"), ServiceError)
        exception = kind(
            error.get("message") or f"service returned HTTP {status}",
            details=error.get("details") or {},
        )
    exception.status = status  # type: ignore[attr-defined]
    if retry_after is not None:
        exception.retry_after = retry_after  # type: ignore[attr-defined]
    raise exception


def _parse_retry_after(raw: str | None) -> float | None:
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


class ServiceClient:
    """Talk to one running query service.

    Examples
    --------
    ::

        client = ServiceClient("http://127.0.0.1:8352")
        job = client.submit({"semantics": "forever", ...})
        done = client.wait(job["id"], timeout=60.0)
        print(done["result"]["probability"])
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = HTTP_RETRY,
        rng: random.Random | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._rng = rng if rng is not None else random.Random()

    def _call(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
        idempotent: bool = True,
    ) -> Any:
        request_headers = {"Accept": "application/json"}
        if headers:
            request_headers.update(headers)
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"

        def attempt() -> Any:
            request = urllib.request.Request(
                f"{self.base_url}{path}",
                data=data, headers=request_headers, method=method,
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read())
            except urllib.error.HTTPError as http_error:
                try:
                    payload = json.loads(http_error.read())
                except (ValueError, OSError):
                    payload = None
                _raise_service_error(
                    http_error.code,
                    payload,
                    _parse_retry_after(http_error.headers.get("Retry-After")),
                )
            except urllib.error.URLError as url_error:
                # A connection failure is transient from the client's
                # side — but only safe to retry for idempotent calls.
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: "
                    f"{url_error.reason}",
                    retryable=idempotent,
                )

        if self.retry is None:
            return attempt()
        retryable: Callable[[BaseException], bool] = (
            lambda error: idempotent and is_retryable(error)
        )
        return self.retry.call(attempt, retryable=retryable, rng=self._rng)

    # -- API ------------------------------------------------------------

    def submit(self, request_body: dict, request_id: str | None = None) -> dict:
        """``POST /v1/jobs`` — returns the accepted job record.

        Stamps ``X-Request-Id`` with ``request_id`` (a fresh random key
        when not given), which makes the submit idempotent: every retry
        of this call reuses the *same* key, and the server collapses
        duplicates onto the first admitted job.
        """
        if request_id is None:
            request_id = idempotency_key()
        return self._call(
            "POST", "/v1/jobs",
            body=request_body,
            headers={"X-Request-Id": request_id},
        )

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>``."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        """``GET /v1/jobs`` — all registered jobs."""
        return self._call("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        """``DELETE /v1/jobs/<id>``."""
        return self._call("DELETE", f"/v1/jobs/{job_id}")

    def trace(self, job_id: str) -> list[dict]:
        """``GET /v1/jobs/<id>/trace`` — the job's trace records."""
        return self._call("GET", f"/v1/jobs/{job_id}/trace")["trace"]

    def profile(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>/profile`` — span tree + phase totals."""
        return self._call("GET", f"/v1/jobs/{job_id}/profile")

    def metrics(self) -> dict:
        """``GET /v1/metrics``."""
        return self._call("GET", "/v1/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — raw text exposition."""
        request = urllib.request.Request(
            f"{self.base_url}/v1/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as http_error:
            try:
                payload = json.loads(http_error.read())
            except (ValueError, OSError):
                payload = None
            _raise_service_error(http_error.code, payload)
        except urllib.error.URLError as url_error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {url_error.reason}"
            )

    def healthz(self) -> dict:
        """``GET /v1/healthz``."""
        return self._call("GET", "/v1/healthz")

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Poll until the job reaches a finished state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(state: {record['state']})"
                )
            time.sleep(POLL_SECONDS)
