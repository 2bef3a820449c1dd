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

from repro.service.client import ServiceClient
from repro.service.http import ServiceServer, make_server
from repro.service.metrics import ServiceMetrics
from repro.service.request import PRIORITIES, SEMANTICS, QueryRequest
from repro.service.result_cache import DEFAULT_RESULT_CACHE_SIZE, ResultCache
from repro.service.scheduler import (
    CANCELLED,
    DEFAULT_QUEUE_SIZE,
    DEFAULT_WORKERS,
    DONE,
    FAILED,
    FINISHED_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobScheduler,
)
from repro.service.service import (
    DEFAULT_MAX_BUDGET,
    QueryService,
    ServiceConfig,
)
from repro.service.session import (
    DEFAULT_SESSION_POOL_SIZE,
    DEFAULT_TRANSITION_CACHE_SIZE,
    EngineSession,
    SessionPool,
    result_payload,
)

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
