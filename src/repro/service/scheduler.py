"""Bounded job scheduling: admission, lanes, workers, cancellation.

The serving layer's concurrency heart.  A :class:`JobScheduler` owns

* a **bounded queue** with two lanes — ``high`` before ``normal``,
  FIFO within a lane — whose total capacity is ``queue_size``; a
  submission beyond it is rejected at admission with
  :class:`~repro.errors.QueueFullError` (the HTTP front-end maps this
  to 429 with ``Retry-After``) instead of letting latency grow without
  bound;
* **load shedding before rejection**: as the queue fills past
  watermarks, admitted jobs are degraded to cheaper ladder rungs —
  first tighter budgets, then coarser sampling accuracy (larger ε/δ or
  halved explicit sample counts, *reported honestly* on the result) —
  so overload degrades answers gracefully instead of dropping them;
  every shed decision is recorded on the job, on its
  :class:`~repro.runtime.RunReport`, and in the metrics registry;
* a pool of **worker threads** that execute jobs through the callable
  the owner injects (the :class:`~repro.service.service.QueryService`
  method that consults the result cache and the session pool);
* **retry re-admission**: a job failing with a *retryable* error (a
  crashed worker pool, an injected transient fault) is re-queued with
  full-jitter backoff up to ``max_job_retries`` times instead of
  failing outright — chunks and jobs are idempotent computations, so
  the retried run reproduces the same answer;
* **per-job budgets**: every admitted job gets a
  :class:`~repro.runtime.RunContext` with the request's budget,
  resolved against the server's default and clamped to its admission
  cap, so one pathological query exhausts its own budget (recorded in
  its :class:`~repro.runtime.RunReport`), never the server;
* **idempotent submits**: a client-generated request id maps repeated
  submissions (an HTTP retry after a lost response) onto the already
  admitted job instead of double-scheduling the work;
* a **registry** of job records — queued/running/done/failed/cancelled
  — polled by ``GET /v1/jobs/<id>`` and pruned of the oldest finished
  entries beyond ``registry_limit``;
* **cancellation** at any point: a queued job is marked and skipped, a
  running one has its context's cooperative token cancelled and stops
  within one transition step.  Shutdown leaves no job behind in a
  non-terminal state: queued jobs are cancelled at shutdown, and with
  ``cancel_running=True`` any job whose worker fails to stop within
  the join grace is force-finished as cancelled.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import (
    JobNotFoundError,
    QueueFullError,
    ReproError,
    RunCancelledError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.faults import SITE_SCHEDULER_EXECUTE, maybe_fire
from repro.obs.logs import get_logger, job_logger
from repro.obs.trace import MemorySink, Tracer
from repro.runtime import Budget, RunContext
from repro.runtime.retry import RetryPolicy, is_retryable
from repro.service.metrics import ServiceMetrics
from repro.service.request import QueryRequest

logger = get_logger("scheduler")

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

FINISHED_STATES = (DONE, FAILED, CANCELLED)

#: Default bounded-queue capacity.
DEFAULT_QUEUE_SIZE = 64

#: Default worker-thread count.
DEFAULT_WORKERS = 2

#: Finished jobs retained for polling before pruning.
DEFAULT_REGISTRY_LIMIT = 1024

#: Default per-job trace event bound when job tracing is enabled.
DEFAULT_TRACE_EVENTS = 2048

#: Default retry allowance for jobs failing with retryable errors.
DEFAULT_JOB_RETRIES = 2

#: Queue-depth fractions at which the shedding ladder engages.
SHED_BUDGET_WATERMARK = 0.5    # tighten budgets
SHED_ACCURACY_WATERMARK = 0.8  # also coarsen sampling accuracy

#: Budget scale applied at the first shedding rung.
SHED_BUDGET_SCALE = 0.5

#: ε/δ inflation at the accuracy rung (capped), and the cap.
SHED_ACCURACY_SCALE = 2.0
SHED_ACCURACY_CAP = 0.5

#: Default sampler accuracy assumed when a shed request names none.
_DEFAULT_EPSILON = 0.1
_DEFAULT_DELTA = 0.05

#: ``Retry-After`` seconds suggested on 429 rejections.
REJECT_RETRY_AFTER = 1.0


def _round3(seconds: float | None) -> float | None:
    return round(seconds, 3) if seconds is not None else None


def _scale_budget(budget: Budget, scale: float) -> Budget:
    """A budget with every bounded axis scaled down (integers kept >= 1)."""
    def axis(value: float | int | None, integral: bool) -> Any:
        if value is None:
            return None
        return max(1, int(value * scale)) if integral else value * scale

    return Budget(
        wall_clock=axis(budget.wall_clock, integral=False),
        max_steps=axis(budget.max_steps, integral=True),
        max_states=axis(budget.max_states, integral=True),
    )


def _coarsen_accuracy(request: QueryRequest) -> tuple[QueryRequest, str] | None:
    """One accuracy rung down, or ``None`` when nothing can be shed.

    Explicit sample counts are halved (never below 1); otherwise the
    (ε, δ) guarantee is inflated by :data:`SHED_ACCURACY_SCALE` and
    capped at :data:`SHED_ACCURACY_CAP`.  The degraded parameters ride
    on the request itself, so the result's reported guarantee — and its
    cache key — are those of the computation actually run.
    """
    if not request._wants_sampling():
        return None
    params = dict(request.params)
    samples = params.get("samples")
    if samples is not None:
        halved = max(1, int(samples) // 2)
        if halved == samples:
            return None
        params["samples"] = halved
        note = f"samples halved {samples} -> {halved}"
    else:
        epsilon = params.get("epsilon")
        delta = params.get("delta")
        eps_before = _DEFAULT_EPSILON if epsilon is None else float(epsilon)
        dlt_before = _DEFAULT_DELTA if delta is None else float(delta)
        eps_after = min(SHED_ACCURACY_CAP, eps_before * SHED_ACCURACY_SCALE)
        dlt_after = min(SHED_ACCURACY_CAP, dlt_before * SHED_ACCURACY_SCALE)
        if eps_after == eps_before and dlt_after == dlt_before:
            return None
        params["epsilon"] = eps_after
        params["delta"] = dlt_after
        note = (
            f"accuracy coarsened epsilon {eps_before} -> {eps_after}, "
            f"delta {dlt_before} -> {dlt_after}"
        )
    return replace(request, params=params), note


@dataclass
class Job:
    """One scheduled query: request, lifecycle, result, accounting."""

    id: str
    request: QueryRequest
    budget: Budget
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    context: RunContext | None = None
    result: Any = None
    error: dict | None = None
    report: dict | None = None
    cache_hit: bool = False
    cancel_requested: bool = False
    trace: list[dict] | None = None
    #: Load-shedding actions applied at admission (empty = none).
    shed: list[str] = field(default_factory=list)
    #: Execution attempts so far (> 1 after a retry re-admission).
    attempts: int = 0
    #: Earliest wall-clock time the next attempt may start (backoff).
    not_before: float = 0.0
    #: Client-supplied idempotency key, if any.
    request_id: str | None = None

    @property
    def finished(self) -> bool:
        return self.state in FINISHED_STATES

    def queue_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def as_dict(self, include_request: bool = False) -> dict:
        """JSON-friendly job record for the HTTP API."""
        payload: dict = {
            "id": self.id,
            "state": self.state,
            "semantics": self.request.semantics,
            "priority": self.request.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds(),
            "run_seconds": self.run_seconds(),
            "cache_hit": self.cache_hit,
            "result": self.result,
            "error": self.error,
            "report": self.report,
            "trace_available": self.trace is not None,
            "shed": list(self.shed),
            "attempts": self.attempts,
        }
        if include_request:
            payload["request"] = self.request.as_dict()
        return payload


class JobScheduler:
    """Bounded two-lane work queue with a thread worker pool.

    Parameters
    ----------
    executor:
        ``executor(job) -> payload`` — runs the job's query and returns
        its JSON-friendly result payload; it may set ``job.cache_hit``.
        Everything it raises is classified here: a
        :class:`~repro.errors.RunCancelledError` finishes the job as
        ``cancelled``, any other :class:`~repro.errors.ReproError` as
        ``failed`` with the error's type/message/details recorded.
    workers / queue_size:
        Pool width and admission bound.
    default_budget / max_budget:
        Per-job budget resolution (see
        :meth:`QueryRequest.make_budget`): the default fills axes the
        request leaves open; the cap clamps every admitted job.
    metrics:
        A :class:`~repro.service.metrics.ServiceMetrics` to notify;
        one is created when omitted.  Its backing
        :class:`~repro.obs.metrics.MetricsRegistry` is handed to every
        job's :class:`~repro.runtime.RunContext`, so run-level counters
        (downgrades, steps, states) land in the same registry the
        ``/v1/metrics`` endpoints render.
    trace_events:
        When > 0, every job runs with an in-memory
        :class:`~repro.obs.trace.Tracer` bounded to this many step
        events; the finished trace is kept on ``job.trace`` and served
        by ``GET /v1/jobs/<id>/trace``.  ``0`` disables job tracing
        (the :data:`~repro.obs.trace.NULL_TRACER` fast path).

    Examples
    --------
    >>> scheduler = JobScheduler(lambda job: {"answer": 42}, workers=1)
    >>> request = QueryRequest.from_json({
    ...     "semantics": "forever", "program": "C := C", "event": "C(a)",
    ...     "database": {"relations": {"C": {"columns": ["I"], "rows": [["a"]]}}}})
    >>> scheduler.start()
    >>> job = scheduler.submit(request)
    >>> scheduler.wait(job.id, timeout=10.0).result
    {'answer': 42}
    >>> scheduler.shutdown()
    """

    def __init__(
        self,
        executor: Callable[[Job], Any],
        workers: int = DEFAULT_WORKERS,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_budget: Budget | None = None,
        max_budget: Budget | None = None,
        metrics: ServiceMetrics | None = None,
        registry_limit: int = DEFAULT_REGISTRY_LIMIT,
        trace_events: int = 0,
        max_job_retries: int = DEFAULT_JOB_RETRIES,
        retry_policy: RetryPolicy | None = None,
        load_shedding: bool = True,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers!r}")
        if queue_size < 1:
            raise ServiceError(f"queue_size must be >= 1, got {queue_size!r}")
        if registry_limit < 1:
            raise ServiceError(f"registry_limit must be >= 1, got {registry_limit!r}")
        if trace_events < 0:
            raise ServiceError(f"trace_events must be >= 0, got {trace_events!r}")
        if max_job_retries < 0:
            raise ServiceError(
                f"max_job_retries must be >= 0, got {max_job_retries!r}"
            )
        self._executor = executor
        self.workers = workers
        self.queue_size = queue_size
        self.default_budget = default_budget
        self.max_budget = max_budget
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.registry_limit = registry_limit
        self.trace_events = trace_events
        self.max_job_retries = max_job_retries
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(max_attempts=max_job_retries + 1,
                             base_delay=0.05, max_delay=1.0)
        )
        self.load_shedding = load_shedding
        self._retry_rng = random.Random(0x5EDA)
        self._run_steps = self.metrics.registry.counter(
            "repro_run_steps_total",
            "Transition steps consumed by finished jobs",
        )
        self._run_states = self.metrics.registry.counter(
            "repro_run_states_total",
            "Chain states materialised by finished jobs",
        )
        self._shed_total = self.metrics.registry.counter(
            "repro_load_shed_total",
            "Admission-time load-shedding actions, by rung",
        )
        self._job_retries = self.metrics.registry.counter(
            "repro_job_retries_total",
            "Retryable job failures re-admitted with backoff",
        )
        self._lanes = {"high": deque(), "normal": deque()}
        self._jobs: dict[str, Job] = {}
        self._order: deque[str] = deque()  # submission order, for pruning
        self._request_ids: dict[str, str] = {}  # idempotency key -> job id
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._job_finished = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._running = False
        self._shutdown = False
        self._in_flight = 0
        self._counter = itertools.count(1)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop the pool; queued jobs are cancelled, not silently lost.

        After the join grace, with ``cancel_running=True``, any job a
        wedged worker left in ``running`` is force-finished as
        ``cancelled`` — shutdown never strands a job in a non-terminal
        state.  :meth:`_finish_locked` is idempotent, so a worker thread
        completing late cannot double-finish the record.
        """
        with self._lock:
            self._running = False
            self._shutdown = True
            for lane in self._lanes.values():
                for job in lane:
                    if job.state == QUEUED:
                        self._finish_locked(job, CANCELLED, error={
                            "type": "RunCancelledError",
                            "message": "server shutting down",
                            "details": {},
                        })
                lane.clear()
            if cancel_running:
                for job in self._jobs.values():
                    if job.state == RUNNING and job.context is not None:
                        job.context.cancel()
            self._work_available.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
            if cancel_running:
                with self._lock:
                    for job in self._jobs.values():
                        if job.state == RUNNING:
                            self._finish_locked(job, CANCELLED, error={
                                "type": "RunCancelledError",
                                "message": "server shut down while job was running",
                                "details": {},
                            })
        self._threads.clear()

    # -- admission ------------------------------------------------------

    def submit(self, request: QueryRequest, request_id: str | None = None) -> Job:
        """Admit one request; raises :class:`QueueFullError` at capacity.

        ``request_id`` is a client-generated idempotency key: a repeat
        submission carrying a key already mapped to a registered job
        returns that job instead of scheduling the work twice.  As the
        queue fills past the shedding watermarks, the admitted job is
        degraded to a cheaper rung (see the module docstring) before the
        hard capacity rejection kicks in.
        """
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailableError(
                    "server is shutting down; not accepting new jobs",
                    details={"retry_after": REJECT_RETRY_AFTER},
                )
            if request_id is not None:
                known = self._request_ids.get(request_id)
                if known is not None and known in self._jobs:
                    job_logger(logger, known).info(
                        "duplicate submit collapsed (request_id=%s)", request_id,
                    )
                    return self._jobs[known]
            depth = sum(len(lane) for lane in self._lanes.values())
            if depth >= self.queue_size:
                self.metrics.job_rejected()
                logger.warning(
                    "queue full (%d/%d), rejecting %s submission",
                    depth, self.queue_size, request.semantics,
                )
                raise QueueFullError(
                    f"queue is full ({depth}/{self.queue_size} jobs queued); "
                    "retry later or raise --queue-size",
                    details={
                        "depth": depth,
                        "queue_size": self.queue_size,
                        "retry_after": REJECT_RETRY_AFTER,
                    },
                )
            shed: list[str] = []
            admitted = request
            fill = depth / self.queue_size
            if self.load_shedding and fill >= SHED_ACCURACY_WATERMARK:
                coarser = _coarsen_accuracy(admitted)
                if coarser is not None:
                    admitted, note = coarser
                    shed.append(f"{note} at queue depth {depth}/{self.queue_size}")
                    self._shed_total.inc(rung="accuracy")
            budget = admitted.make_budget(self.default_budget, self.max_budget)
            if (
                self.load_shedding
                and fill >= SHED_BUDGET_WATERMARK
                and not budget.is_unlimited
            ):
                budget = _scale_budget(budget, SHED_BUDGET_SCALE)
                shed.append(
                    f"budget scaled x{SHED_BUDGET_SCALE} "
                    f"at queue depth {depth}/{self.queue_size}"
                )
                self._shed_total.inc(rung="budget")
            job = Job(
                id=f"job-{next(self._counter)}-{uuid.uuid4().hex[:6]}",
                request=admitted,
                budget=budget,
                shed=shed,
                request_id=request_id,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._lanes[admitted.priority].append(job)
            if request_id is not None:
                self._request_ids[request_id] = job.id
            self._prune_locked()
            self.metrics.job_submitted()
            self._work_available.notify()
        job_logger(logger, job.id).info(
            "queued semantics=%s priority=%s depth=%d shed=%d",
            request.semantics, request.priority, depth + 1, len(job.shed),
        )
        return job

    # -- registry -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job record, or :class:`JobNotFoundError`."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """All registered jobs, oldest first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (finished jobs are a no-op)."""
        job = self.get(job_id)
        with self._lock:
            job.cancel_requested = True
            if job.state == QUEUED:
                self._finish_locked(job, CANCELLED, error={
                    "type": "RunCancelledError",
                    "message": "cancelled while queued",
                    "details": {},
                })
            elif job.state == RUNNING and job.context is not None:
                job.context.cancel()
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes (or ``timeout`` seconds pass)."""
        job = self.get(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not job.finished:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceError(
                            f"timed out waiting for job {job_id} "
                            f"(state: {job.state})"
                        )
                self._job_finished.wait(timeout=remaining)
        return job

    def stats(self) -> dict:
        """Queue/worker gauges for the metrics endpoint."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "workers": self.workers,
                "queue_size": self.queue_size,
                "queue_depth": sum(len(lane) for lane in self._lanes.values()),
                "in_flight": self._in_flight,
                "running": self._running,
                "states": states,
                "registered_jobs": len(self._jobs),
            }

    # -- internals ------------------------------------------------------

    def _prune_locked(self) -> None:
        """Drop the oldest finished jobs beyond ``registry_limit``."""
        while len(self._jobs) > self.registry_limit:
            for job_id in list(self._order):
                job = self._jobs[job_id]
                if job.finished:
                    self._order.remove(job_id)
                    del self._jobs[job_id]
                    if job.request_id is not None:
                        self._request_ids.pop(job.request_id, None)
                    break
            else:
                return  # nothing finished to prune; registry all live

    def _finish_locked(self, job: Job, state: str, error: dict | None = None) -> None:
        if job.finished:
            # Idempotence guard: shutdown's force-finish and a worker
            # thread completing late may race to finish the same job;
            # whoever gets here first wins, the second call is a no-op.
            return
        job.state = state
        job.error = error
        job.finished_at = time.time()
        outcome = {DONE: "done", FAILED: "failed"}.get(state, "cancelled")
        if job.context is not None:
            if state == DONE:
                # Raw executors (and cache hits) don't touch the context;
                # a job that returned is an "ok" run.
                job.context.finish()
            elif error is not None:
                job.context.record_event(f"{error['type']}: {error['message']}")
            job.report = job.context.report().as_dict()
            spent = job.report.get("spent", {})
            self._run_steps.inc(int(spent.get("steps") or 0))
            self._run_states.inc(int(spent.get("states") or 0))
            tracer = job.context.tracer
            if tracer.enabled:
                tracer.run_record(
                    job_id=job.id,
                    outcome=outcome,
                    semantics=job.request.semantics,
                    report=job.report,
                )
                if isinstance(tracer.sink, MemorySink):
                    job.trace = tracer.sink.records
        self.metrics.job_finished(
            job.request.semantics,
            outcome,
            job.queue_seconds(),
            job.run_seconds(),
            cache_hit=job.cache_hit,
        )
        job_logger(logger, job.id).info(
            "finished state=%s queue_s=%s run_s=%s cache_hit=%s%s",
            state,
            _round3(job.queue_seconds()),
            _round3(job.run_seconds()),
            job.cache_hit,
            f" error={error['type']}" if error else "",
        )
        self._job_finished.notify_all()

    def _next_job_locked(self) -> Job | None:
        now = time.time()
        for lane_name in ("high", "normal"):
            lane = self._lanes[lane_name]
            deferred: list[Job] = []
            picked: Job | None = None
            while lane:
                job = lane.popleft()
                if job.state != QUEUED:
                    continue
                if job.not_before > now:
                    # Still backing off after a retryable failure; leave
                    # it in the lane without losing its FIFO position.
                    deferred.append(job)
                    continue
                picked = job
                break
            for job in reversed(deferred):
                lane.appendleft(job)
            if picked is not None:
                return picked
        return None

    def _wake_timeout_locked(self) -> float | None:
        """Seconds until the earliest backing-off job becomes runnable."""
        now = time.time()
        pending = [
            job.not_before - now
            for lane in self._lanes.values()
            for job in lane
            if job.state == QUEUED and job.not_before > now
        ]
        if not pending:
            return None
        return max(0.01, min(pending))

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                job = self._next_job_locked()
                while job is None:
                    if not self._running:
                        return
                    self._work_available.wait(timeout=self._wake_timeout_locked())
                    job = self._next_job_locked()
                job.state = RUNNING
                job.started_at = time.time()
                job.attempts += 1
                # The budget clock starts when execution starts, not at
                # submission: queue wait is the server's problem, the
                # run budget is the job's.
                tracer = None
                if self.trace_events:
                    tracer = Tracer(MemorySink(), max_events=self.trace_events)
                job.context = RunContext(
                    job.budget,
                    tracer=tracer,
                    metrics=self.metrics.registry,
                    run_id=job.id,
                )
                for note in job.shed:
                    job.context.record_event(f"load shed at admission: {note}")
                if job.attempts > 1:
                    job.context.record_event(
                        f"retry attempt {job.attempts}/{self.max_job_retries + 1}"
                    )
                if job.cancel_requested:
                    job.context.cancel()
                self._in_flight += 1
            job_logger(logger, job.id).debug(
                "started worker=%s attempt=%d traced=%s",
                threading.current_thread().name, job.attempts, tracer is not None,
            )
            try:
                maybe_fire(SITE_SCHEDULER_EXECUTE, job=job.id, attempt=job.attempts)
                payload = self._executor(job)
            except RunCancelledError as cancelled:
                self._record_failure(job, CANCELLED, cancelled)
            except ReproError as error:
                if not self._maybe_requeue(job, error):
                    self._record_failure(job, FAILED, error)
            except Exception as unexpected:  # noqa: BLE001 - server must survive
                self._record_failure(job, FAILED, unexpected)
            else:
                with self._lock:
                    if not job.finished:
                        job.result = payload
                        self._finish_locked(job, DONE)
            finally:
                with self._lock:
                    self._in_flight -= 1

    def _maybe_requeue(self, job: Job, error: ReproError) -> bool:
        """Re-admit a retryably-failed job with backoff; ``False`` = give up.

        The executed computation is idempotent (seeded sampling, exact
        evaluation), so a retried job reproduces the same answer; only
        transient infrastructure failures (a crashed worker pool, an
        injected fault) are marked retryable in the first place.
        """
        if not is_retryable(error):
            return False
        with self._lock:
            if (
                not self._running
                or job.cancel_requested
                or job.finished
                or job.attempts > self.max_job_retries
            ):
                return False
            pause = self.retry_policy.delay(job.attempts - 1, rng=self._retry_rng)
            job.state = QUEUED
            job.started_at = None
            job.context = None
            job.result = None
            job.not_before = time.time() + pause
            self._lanes[job.request.priority].append(job)
            self._job_retries.inc(error=type(error).__name__)
            self._work_available.notify()
        job_logger(logger, job.id).warning(
            "retryable failure (%s: %s); re-admitted for attempt %d/%d "
            "after %.3fs backoff",
            type(error).__name__, error,
            job.attempts + 1, self.max_job_retries + 1, pause,
        )
        return True

    def _record_failure(self, job: Job, state: str, error: BaseException) -> None:
        details = dict(getattr(error, "details", {}) or {})
        with self._lock:
            self._finish_locked(job, state, error={
                "type": type(error).__name__,
                "message": str(error),
                "details": details,
            })
