"""The query service facade: sessions + scheduler + caches + metrics.

:class:`QueryService` wires the serving pillars together behind two
methods — :meth:`~QueryService.submit` and :meth:`~QueryService.job` —
that the HTTP front-end (and tests) call directly:

* admission and execution go through the
  :class:`~repro.service.scheduler.JobScheduler` (bounded queue,
  priority lanes, per-job budgets, cancellation);
* each job executes on the
  :class:`~repro.service.session.SessionPool`'s prepared
  :class:`~repro.service.session.EngineSession` for its program, so the
  parse/compile work and the warm transition cache are shared across
  requests;
* deterministic requests (exact, or sampling with a pinned seed) are
  answered from the :class:`~repro.service.result_cache.ResultCache`
  when an identical computation already ran;
* everything observable lands in one
  :class:`~repro.service.metrics.ServiceMetrics` snapshot for
  ``GET /v1/metrics``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from repro import faults
from repro.errors import JobNotFoundError, ProgramRejectedError
from repro.kernel.lowering import fallback_reasons as kernel_fallback_reasons
from repro.kernel.lowering import fallback_total as kernel_fallback_total
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Budget
from repro.service.metrics import ServiceMetrics
from repro.service.request import QueryRequest
from repro.service.result_cache import DEFAULT_RESULT_CACHE_SIZE, ResultCache
from repro.service.scheduler import (
    DEFAULT_JOB_RETRIES,
    DEFAULT_QUEUE_SIZE,
    DEFAULT_REGISTRY_LIMIT,
    DEFAULT_TRACE_EVENTS,
    DEFAULT_WORKERS,
    Job,
    JobScheduler,
)
from repro.service.session import (
    DEFAULT_SESSION_POOL_SIZE,
    DEFAULT_TRANSITION_CACHE_SIZE,
    SessionPool,
)

#: Cap applied to every admitted job when the operator does not set one.
#: Unbounded serving jobs are an availability hazard (Proposition 5.4's
#: exponential state spaces), so the service always has *some* ceiling.
DEFAULT_MAX_BUDGET = Budget(wall_clock=300.0, max_steps=50_000_000)


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-facing knobs for one :class:`QueryService`.

    ``default_budget`` fills budget axes a request leaves open;
    ``max_budget`` clamps every admitted job (see
    :meth:`QueryRequest.make_budget`).  ``trace_events`` bounds the
    per-job in-memory trace served by ``GET /v1/jobs/<id>/trace``
    (``0`` disables job tracing entirely).
    """

    workers: int = DEFAULT_WORKERS
    queue_size: int = DEFAULT_QUEUE_SIZE
    default_budget: Budget | None = None
    max_budget: Budget = field(default_factory=lambda: DEFAULT_MAX_BUDGET)
    session_pool_size: int = DEFAULT_SESSION_POOL_SIZE
    transition_cache_size: int = DEFAULT_TRANSITION_CACHE_SIZE
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE
    registry_limit: int = DEFAULT_REGISTRY_LIMIT
    trace_events: int = DEFAULT_TRACE_EVENTS
    max_job_retries: int = DEFAULT_JOB_RETRIES
    load_shedding: bool = True


class QueryService:
    """One serving instance: submit queries, poll jobs, scrape metrics.

    Examples
    --------
    >>> service = QueryService(ServiceConfig(workers=1))
    >>> service.start()
    >>> request = QueryRequest.from_json({
    ...     "semantics": "forever",
    ...     "program": "C := rename[J->I](project[J](repair-key[I@P](C join E)))",
    ...     "database": {"relations": {
    ...         "C": {"columns": ["I"], "rows": [["a"]]},
    ...         "E": {"columns": ["I", "J", "P"],
    ...               "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]]}}},
    ...     "event": "C(b)",
    ... })
    >>> job = service.submit(request)
    >>> service.wait(job.id, timeout=30.0).result["probability"]
    '1/3'
    >>> service.shutdown()
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.started_at: float | None = None
        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        self.sessions = SessionPool(
            maxsize=self.config.session_pool_size,
            transition_cache_size=self.config.transition_cache_size,
        )
        self.results = ResultCache(maxsize=self.config.result_cache_size)
        self.scheduler = JobScheduler(
            self._execute,
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            default_budget=self.config.default_budget,
            max_budget=self.config.max_budget,
            metrics=self.metrics,
            registry_limit=self.config.registry_limit,
            trace_events=self.config.trace_events,
            max_job_retries=self.config.max_job_retries,
            load_shedding=self.config.load_shedding,
        )
        self._register_gauges()
        # Chaos visibility: every fault-plan firing in *this* process
        # lands in the scraped registry (worker processes count their
        # own firings; the supervisor's restart/retry counters cover
        # them).  Process-global, last service wins — fine for the one
        # service a serving process runs.
        faults_injected = self.registry.counter(
            "repro_faults_injected_total",
            "Fault-plan firings observed in the serving process",
        )
        faults.set_observer(
            lambda site, spec: faults_injected.inc(site=site, action=spec.action)
        )

    def _register_gauges(self) -> None:
        """Callback gauges: each reads its owner's ``stats()`` — one
        consistent critical section under the owner's lock — only at
        scrape time, never caching a possibly-stale sample."""
        self.registry.gauge(
            "repro_scheduler_queue_depth", "Jobs waiting in the bounded queue",
            fn=lambda: self.scheduler.stats()["queue_depth"],
        )
        self.registry.gauge(
            "repro_scheduler_in_flight", "Jobs currently executing",
            fn=lambda: self.scheduler.stats()["in_flight"],
        )
        self.registry.gauge(
            "repro_result_cache_entries", "Results retained in the LRU cache",
            fn=lambda: self.results.stats()["size"],
        )
        self.registry.gauge(
            "repro_session_pool_sessions", "Prepared engine sessions resident",
            fn=lambda: self.sessions.stats()["size"],
        )
        self.registry.gauge(
            "repro_uptime_seconds", "Seconds since the service started",
            fn=lambda: (time.time() - self.started_at) if self.started_at else 0.0,
        )
        self.registry.gauge(
            "repro_kernel_fallback_total",
            "Columnar-backend requests served on the frozenset path",
            fn=kernel_fallback_total,
        )
        from repro.perf.supervisor import warm_pool_heartbeat_ages

        self.registry.gauge(
            "repro_worker_heartbeat_age_seconds",
            "Seconds since each warm-pool worker's last heartbeat",
            fn=warm_pool_heartbeat_ages,
            fn_label="worker",
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self.started_at is None:
            self.started_at = time.time()
        self.scheduler.start()

    def shutdown(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop the workers; queued jobs finish as ``cancelled``."""
        self.scheduler.shutdown(wait=wait, cancel_running=cancel_running)

    # -- the serving API ------------------------------------------------

    def submit(self, request: QueryRequest, request_id: str | None = None) -> Job:
        """Admit one request (raises :class:`QueueFullError` at capacity).

        Admission runs the static analyzer first (via the session pool,
        so an accepted program's parse work is already done when a
        worker picks the job up): a program with error-level diagnostics
        — or an event that is provably constant-false against it — is
        rejected here with :class:`~repro.errors.ProgramRejectedError`
        (HTTP 400, diagnostics in the body) and never enters the queue.

        ``request_id`` is the client's idempotency key (``X-Request-Id``
        over HTTP): a retried submit carrying the same key returns the
        already admitted job instead of scheduling it twice.
        """
        try:
            session = self.sessions.get_or_create(request)
            session.check_event(request.event)
        except ProgramRejectedError as error:
            self.metrics.admission_rejected(error.details.get("codes", ()))
            raise
        return self.scheduler.submit(request, request_id=request_id)

    def job(self, job_id: str) -> Job:
        """The job record (raises :class:`JobNotFoundError`)."""
        return self.scheduler.get(job_id)

    def jobs(self) -> list[Job]:
        """All registered jobs, oldest first."""
        return self.scheduler.jobs()

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job."""
        return self.scheduler.cancel(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes."""
        return self.scheduler.wait(job_id, timeout=timeout)

    # -- observability --------------------------------------------------

    def healthz(self) -> dict:
        """Liveness document for ``GET /v1/healthz``."""
        stats = self.scheduler.stats()
        return {
            "status": "ok" if stats["running"] else "stopped",
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else None
            ),
            "workers": stats["workers"],
            "queue_depth": stats["queue_depth"],
            "in_flight": stats["in_flight"],
        }

    def metrics_snapshot(self) -> dict:
        """The full metrics document for ``GET /v1/metrics``."""
        return self.metrics.snapshot(gauges={
            "scheduler": self.scheduler.stats(),
            "result_cache": self.results.stats(),
            "session_pool": self.sessions.stats(),
            "kernel_fallbacks": {
                "total": kernel_fallback_total(),
                "reasons": kernel_fallback_reasons(),
            },
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else None
            ),
        })

    def metrics_prometheus(self) -> str:
        """Text exposition for ``GET /v1/metrics?format=prometheus``."""
        return self.registry.render_prometheus()

    def job_trace(self, job_id: str) -> list[dict]:
        """The job's trace records for ``GET /v1/jobs/<id>/trace``.

        Raises :class:`~repro.errors.JobNotFoundError` when the job
        does not exist *or* has no trace (still running, or the service
        runs with ``trace_events=0``) — the HTTP layer maps both to 404.
        """
        job = self.scheduler.get(job_id)
        if job.trace is None:
            raise JobNotFoundError(
                f"no trace for job {job_id!r} "
                f"(state: {job.state}; tracing "
                f"{'enabled' if self.config.trace_events else 'disabled'})",
                details={"state": job.state,
                         "trace_events": self.config.trace_events},
            )
        return list(job.trace)

    def job_profile(self, job_id: str) -> dict:
        """The job's profile document for ``GET /v1/jobs/<id>/profile``.

        Built on demand from the finished job's trace and run report:
        the span tree with exclusive timings, per-phase totals, the
        resource ledger, and folded stacks for flamegraph tooling.
        Raises :class:`~repro.errors.JobNotFoundError` when the job does
        not exist or has no trace yet (same contract as
        :meth:`job_trace` — the HTTP layer maps both to 404).
        """
        from repro.obs.profile import profile_payload

        job = self.scheduler.get(job_id)
        if job.trace is None:
            raise JobNotFoundError(
                f"no profile for job {job_id!r} "
                f"(state: {job.state}; tracing "
                f"{'enabled' if self.config.trace_events else 'disabled'})",
                details={"state": job.state,
                         "trace_events": self.config.trace_events},
            )
        return profile_payload(list(job.trace), job.report, job_id=job.id)

    # -- execution (called by scheduler workers) ------------------------

    def _execute(self, job: Job) -> dict:
        request = job.request
        cacheable = request.is_cacheable()
        if cacheable:
            cached = self.results.get(request.cache_key())
            if cached is not None:
                job.cache_hit = True
                # Copies keep cached entries immutable even if a caller
                # annotates the returned payload.
                return copy.deepcopy(cached)
        session = self.sessions.get_or_create(request)
        payload = session.evaluate(request, job.context)
        if cacheable:
            self.results.put(request.cache_key(), copy.deepcopy(payload))
        return payload
