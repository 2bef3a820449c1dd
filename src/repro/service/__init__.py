"""The serving layer: persistent sessions, scheduling, HTTP front-end.

The paper's evaluators are one-shot functions; this package turns them
into a long-running **query service**:

* :mod:`repro.service.request` — the validated wire format
  (:class:`QueryRequest`) with canonical session/result keys;
* :mod:`repro.service.session` — :class:`EngineSession` /
  :class:`SessionPool`: parse once, keep the transition cache warm;
* :mod:`repro.service.scheduler` — :class:`JobScheduler`: bounded
  two-lane queue, worker threads, per-job budgets, cancellation;
* :mod:`repro.service.result_cache` — :class:`ResultCache`: LRU of
  finished deterministic results;
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` counters and
  latency histograms;
* :mod:`repro.service.service` — :class:`QueryService`, the facade;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the stdlib
  HTTP server and its urllib client (``repro serve`` / ``repro submit``).
"""

from importlib import import_module
from typing import Any

#: Public name -> the submodule defining it.  Attributes load on first
#: use, so a caller that needs only sessions and requests (the CLI's
#: evaluation commands) never imports the HTTP server or client.
_EXPORTS = {
    "ServiceClient": "client",
    "ServiceServer": "http",
    "make_server": "http",
    "ServiceMetrics": "metrics",
    "PRIORITIES": "request",
    "SEMANTICS": "request",
    "QueryRequest": "request",
    "DEFAULT_RESULT_CACHE_SIZE": "result_cache",
    "ResultCache": "result_cache",
    "CANCELLED": "scheduler",
    "DEFAULT_QUEUE_SIZE": "scheduler",
    "DEFAULT_WORKERS": "scheduler",
    "DONE": "scheduler",
    "FAILED": "scheduler",
    "FINISHED_STATES": "scheduler",
    "QUEUED": "scheduler",
    "RUNNING": "scheduler",
    "Job": "scheduler",
    "JobScheduler": "scheduler",
    "DEFAULT_MAX_BUDGET": "service",
    "QueryService": "service",
    "ServiceConfig": "service",
    "DEFAULT_SESSION_POOL_SIZE": "session",
    "DEFAULT_TRANSITION_CACHE_SIZE": "session",
    "EngineSession": "session",
    "SessionPool": "session",
    "result_payload": "session",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CANCELLED",
    "DEFAULT_MAX_BUDGET",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_RESULT_CACHE_SIZE",
    "DEFAULT_SESSION_POOL_SIZE",
    "DEFAULT_TRANSITION_CACHE_SIZE",
    "DEFAULT_WORKERS",
    "DONE",
    "FAILED",
    "FINISHED_STATES",
    "QUEUED",
    "RUNNING",
    "EngineSession",
    "Job",
    "JobScheduler",
    "PRIORITIES",
    "QueryRequest",
    "QueryService",
    "ResultCache",
    "SEMANTICS",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "SessionPool",
    "make_server",
    "result_payload",
]
