"""Supervised persistent workers for the parallel samplers.

A pool spawned per call pays process startup, module import, and a
cold :class:`~repro.perf.cache.TransitionCache` before the first trial
of every run (``BENCH_2026-08-06`` measured such a pool losing to
sequential execution).  The :class:`WorkerSupervisor` keeps long-lived
warm workers instead, and adds fault tolerance:

* **Warm processes** — workers are spawned once and reused across runs;
  each keeps a private registry of transition caches keyed by the
  kernel's repr, so a repeated query starts with a hot cache.
* **Heartbeats** — every worker bumps a shared timestamp from its idle
  loop and from :class:`~repro.perf.parallel.WorkerContext.check`
  inside the sampling hot loop; a worker whose heartbeat goes stale
  past ``heartbeat_timeout`` is declared hung, killed, and restarted.
* **Crash detection** — a worker that exits while a chunk is in flight
  raises :class:`~repro.errors.WorkerCrashError` for that chunk; the
  supervisor restarts the process within a bounded per-run restart
  budget and re-dispatches the chunk.
* **Idempotent chunk retry** — a trial chunk is a pure function of its
  ``(seed, samples, burn_in, budget)`` task, so re-running it after a
  crash/stall/transient fault reproduces the exact tally the lost
  worker would have produced.  Retries follow the
  :data:`~repro.runtime.retry.CHUNK_RETRY` full-jitter policy, bounded
  by ``task_retries``.  Non-retryable failures (budget exhaustion,
  cancellation) propagate immediately.

Determinism is untouched: chunk seeds are still drawn by the caller in
worker order (:func:`~repro.perf.parallel.worker_seeds`), results are
merged in task order, and ``workers=1`` never enters this module.

One module-level supervisor is kept warm and reused whenever an idle
pool with a matching configuration exists (:func:`supervised_run`);
concurrent runs or configuration changes fall back to a one-shot pool
so correctness never waits on the warm pool being free.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import faults
from repro.errors import (
    WorkerCrashError,
    WorkerPoolError,
    WorkerStalledError,
)
from repro.perf.parallel import absorb_worker_payload
from repro.runtime.retry import CHUNK_RETRY, RetryPolicy, is_retryable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.perf.parallel import ParallelConfig
    from repro.runtime.context import RunContext

#: Seconds between parent-side polls of the results queue.
_POLL_INTERVAL = 0.05

#: Seconds a worker's idle loop blocks on its inbox between heartbeats.
_IDLE_WAIT = 0.2

#: Seconds to wait for a worker to honour a stop message before killing.
_STOP_GRACE = 2.0

#: Default heartbeat silence tolerated before a worker is declared hung.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Environment override for the heartbeat timeout (chaos scenarios use a
#: short one so hang detection fires in seconds, not the production 10).
HEARTBEAT_TIMEOUT_ENV = "REPRO_HEARTBEAT_TIMEOUT"


@dataclass(frozen=True)
class SupervisorConfig:
    """Sizing and health-check policy of a :class:`WorkerSupervisor`.

    Attributes
    ----------
    workers / start_method:
        Mirror :class:`~repro.perf.parallel.ParallelConfig`.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a busy worker is
        declared hung and killed.  The sampling hot loop beats every
        :data:`~repro.perf.parallel.WorkerContext.POLL_EVERY` context
        checks, so a healthy worker beats many times per second.
    restart_budget:
        Worker restarts tolerated within one :meth:`WorkerSupervisor.run`
        before the pool gives up with
        :class:`~repro.errors.WorkerPoolError`.
    task_retries:
        Total attempts per task chunk (including the first).
    retry:
        Backoff policy spacing chunk re-dispatches.
    """

    workers: int
    start_method: str | None = None
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT
    restart_budget: int = 3
    task_retries: int = 3
    retry: RetryPolicy = field(default_factory=lambda: CHUNK_RETRY)

    @classmethod
    def from_parallel(cls, config: "ParallelConfig") -> "SupervisorConfig":
        heartbeat = DEFAULT_HEARTBEAT_TIMEOUT
        raw = os.environ.get(HEARTBEAT_TIMEOUT_ENV)
        if raw:
            try:
                heartbeat = max(0.1, float(raw))
            except ValueError:
                pass
        return cls(
            workers=config.workers,
            start_method=config.start_method,
            heartbeat_timeout=heartbeat,
        )


# -- worker process side ----------------------------------------------------


def _worker_main(
    worker_id: int,
    generation: int,
    inbox: Any,
    results: Any,
    heartbeat: Any,
    cancel_event: Any,
) -> None:
    """Entry point of one persistent worker process.

    Serves ``(task_id, fn, task)`` messages from its inbox until it
    receives ``None``.  Errors are reported, never fatal: the worker
    stays up to serve the next chunk (a dead worker costs a restart).
    """
    from repro.perf import parallel

    parallel._CANCEL_EVENT = cancel_event
    parallel._HEARTBEAT = heartbeat
    parallel._PERSISTENT = True
    faults.set_generation(generation)
    faults.install_from_env()
    while True:
        heartbeat.value = time.time()
        try:
            message = inbox.get(timeout=_IDLE_WAIT)
        except queue.Empty:
            continue
        if message is None:
            break
        task_id, fn, task = message
        heartbeat.value = time.time()
        try:
            faults.maybe_fire(
                faults.SITE_SUPERVISOR_TASK, worker=worker_id, task=task_id
            )
            outcome = ("ok", worker_id, task_id, fn(task))
        except BaseException as error:  # noqa: BLE001 - reported to parent
            outcome = ("err", worker_id, task_id, error)
        try:
            results.put(outcome)
        except Exception:
            # The error itself failed to pickle; send a summary so the
            # parent can still account for the chunk.
            results.put((
                "err",
                worker_id,
                task_id,
                WorkerPoolError(f"worker {worker_id} result failed to "
                                f"serialise: {outcome[3]!r}"),
            ))
        heartbeat.value = time.time()


class _WorkerHandle:
    """Parent-side state of one supervised worker process."""

    __slots__ = (
        "worker_id", "generation", "process", "inbox", "heartbeat", "busy_task",
    )

    def __init__(self, worker_id: int, generation: int, mp_context: Any,
                 results: Any, cancel_event: Any):
        self.worker_id = worker_id
        self.generation = generation
        self.inbox = mp_context.Queue()
        self.heartbeat = mp_context.Value("d", time.time())
        self.busy_task: int | None = None
        self.process = mp_context.Process(
            target=_worker_main,
            args=(worker_id, generation, self.inbox, results, self.heartbeat,
                  cancel_event),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        self.process.start()

    def heartbeat_age(self) -> float:
        return time.time() - self.heartbeat.value

    def stop(self, grace: float = _STOP_GRACE) -> None:
        if self.process.is_alive():
            try:
                self.inbox.put_nowait(None)
            except Exception:
                pass
            self.process.join(timeout=grace)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=grace)
        self.inbox.close()


class WorkerSupervisor:
    """A pool of supervised persistent worker processes.

    Thread-safe: one run executes at a time (``run`` serialises on an
    internal lock); :func:`supervised_run` routes concurrent callers to
    one-shot pools instead of queueing them here.

    Lifecycle: workers are spawned eagerly in ``__init__`` so their
    import cost is paid once, before any run is timed.  :meth:`close`
    stops them; the module-level warm pool is closed at interpreter
    exit.
    """

    def __init__(self, config: SupervisorConfig):
        self.config = config
        method = config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._mp = multiprocessing.get_context(method)
        self._results: Any = self._mp.Queue()
        self._cancel: Any = self._mp.Event()
        self._run_lock = threading.Lock()
        self._task_ids = itertools.count()
        self.closed = False
        #: Lifetime restart count (exported as a metric by callers).
        self.restarts_total = 0
        self.retries_total = 0
        #: Spawn generation of replacement workers (fresh workers are 0;
        #: each restart/respawn increments — see FaultSpec.generation).
        self._spawn_generation = 0
        #: Fault-plan environment the workers were spawned under; a
        #: change (a chaos test installing/uninstalling a plan between
        #: runs) recycles the pool so workers see the current plan.
        self._fault_env = os.environ.get(faults.FAULT_PLAN_ENV)
        self._workers = [self._spawn(index) for index in range(config.workers)]

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, worker_id: int, generation: int = 0) -> _WorkerHandle:
        return _WorkerHandle(
            worker_id, generation, self._mp, self._results, self._cancel
        )

    def close(self) -> None:
        """Stop every worker process (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._cancel.set()
        for handle in self._workers:
            handle.stop()
        self._results.close()

    def alive_workers(self) -> int:
        return sum(handle.process.is_alive() for handle in self._workers)

    # -- one run --------------------------------------------------------

    def run(
        self,
        worker: Callable[[dict], dict],
        tasks: Sequence[dict],
        context: "RunContext | None" = None,
    ) -> list[dict]:
        """Run every task to completion; results in task order.

        The parent polls its ``context`` while waiting
        (cancellation/deadline propagate via the shared event), the
        first non-retryable failure is re-raised after the surviving
        workers are told to stop, and retryable failures (crash, stall,
        injected transient faults) re-dispatch the chunk within the
        retry and restart budgets.
        """
        with self._run_lock:
            return self._run_locked(worker, tasks, context)

    def _run_locked(
        self,
        worker: Callable[[dict], dict],
        tasks: Sequence[dict],
        context: "RunContext | None",
    ) -> list[dict]:
        if self.closed:
            raise WorkerPoolError("worker supervisor is closed")
        self._settle_stale_chunks()
        self._cancel.clear()
        self._drain_stale_results()
        self._ensure_workers()

        # Globally unique task ids: results from a cancelled previous
        # run can still arrive and must not be mistaken for this run's.
        ids = [next(self._task_ids) for _ in tasks]
        index_of = {task_id: index for index, task_id in enumerate(ids)}
        results: dict[int, dict] = {}
        attempts: dict[int, int] = {task_id: 0 for task_id in ids}
        #: Earliest dispatch time per task (retry backoff).
        not_before: dict[int, float] = {task_id: 0.0 for task_id in ids}
        pending: list[int] = list(ids)
        run_restarts = 0
        policy = self.config.retry
        jitter = random.Random(0xFA017)

        def record(message: str) -> None:
            if context is not None:
                context.record_event(message)

        def bump(metric: str, **labels: Any) -> None:
            if context is not None and context.metrics is not None:
                context.metrics.counter(metric).inc(**labels)

        def dispatch_ready(now: float) -> None:
            idle = [h for h in self._workers
                    if h.busy_task is None and h.process.is_alive()]
            remaining: list[int] = []
            for task_id in pending:
                if not idle:
                    remaining.append(task_id)
                    continue
                if now < not_before[task_id]:
                    remaining.append(task_id)
                    continue
                handle = idle.pop()
                attempts[task_id] += 1
                handle.busy_task = task_id
                handle.heartbeat.value = time.time()
                handle.inbox.put(
                    (task_id, worker, tasks[index_of[task_id]])
                )
            pending[:] = remaining

        def requeue(task_id: int, error: BaseException) -> None:
            """Re-admit a failed chunk or give up on the whole run."""
            if task_id in results or task_id in pending:
                # A late duplicate report (the chunk was already retried
                # or even completed); chunks are idempotent, ignore it.
                return
            if attempts[task_id] >= self.config.task_retries:
                raise WorkerPoolError(
                    f"task chunk failed {attempts[task_id]} times; "
                    f"last error: {error}",
                    details={"attempts": attempts[task_id]},
                ) from error
            pause = policy.delay(attempts[task_id] - 1, jitter)
            not_before[task_id] = time.time() + pause
            pending.append(task_id)
            self.retries_total += 1
            bump("repro_task_retries_total", error=type(error).__name__)
            record(
                f"worker chunk retry #{attempts[task_id]}: "
                f"{type(error).__name__}: {error}"
            )

        def restart(handle: _WorkerHandle, error: BaseException) -> None:
            nonlocal run_restarts
            run_restarts += 1
            self.restarts_total += 1
            # Stable low-cardinality reasons: dashboards alert on
            # crash-vs-stall, not on a python exception class name.
            if isinstance(error, WorkerCrashError):
                reason = "crash"
            elif isinstance(error, WorkerStalledError):
                reason = "stall"
            else:
                reason = type(error).__name__
            bump("repro_worker_restarts_total", reason=reason)
            record(
                f"worker {handle.worker_id} restarted "
                f"({type(error).__name__}: {error})"
            )
            if run_restarts > self.config.restart_budget:
                raise WorkerPoolError(
                    f"worker restart budget exhausted "
                    f"({self.config.restart_budget} restarts)",
                    details={"restart_budget": self.config.restart_budget},
                ) from error
            index = self._workers.index(handle)
            handle.stop(grace=0.1)
            self._spawn_generation += 1
            self._workers[index] = self._spawn(
                handle.worker_id, self._spawn_generation
            )

        try:
            while len(results) < len(tasks):
                dispatch_ready(time.time())
                try:
                    message = self._results.get(timeout=_POLL_INTERVAL)
                except queue.Empty:
                    message = None
                if message is not None:
                    kind, worker_id, task_id, payload = message
                    handle = self._handle_of(worker_id, task_id)
                    if handle is not None:
                        handle.busy_task = None
                    if task_id in index_of and task_id not in results:
                        if kind == "ok":
                            # Stitch worker-recorded spans while the
                            # dispatching span is still open; a late
                            # duplicate (handle is None) lost its
                            # generation, attribute by worker id only.
                            absorb_worker_payload(
                                context,
                                payload,
                                worker_id=worker_id,
                                spawn_generation=(
                                    handle.generation
                                    if handle is not None else None
                                ),
                            )
                            results[task_id] = payload
                        elif is_retryable(payload):
                            requeue(task_id, payload)
                        else:
                            raise payload
                if context is not None:
                    context.check()
                self._health_check(requeue, restart)
        except BaseException:
            # Stop in-flight chunks; workers stay alive for the next run.
            self._cancel.set()
            raise
        return [results[task_id] for task_id in ids]

    # -- plumbing -------------------------------------------------------

    def _handle_of(self, worker_id: int, task_id: int) -> _WorkerHandle | None:
        for handle in self._workers:
            if handle.worker_id == worker_id and handle.busy_task == task_id:
                return handle
        return None

    def _settle_stale_chunks(self) -> None:
        """Wait until no worker is still busy with a stopped run's chunk.

        A run that raised set the cancel event and left its chunks in
        flight.  Clearing the event before a busy worker polled it would
        leave that worker computing the stale chunk (possibly minutes of
        work) while the next run's chunk waits in its inbox.  So the event
        stays set until every busy live worker has answered; a worker
        still silent after ``heartbeat_timeout`` is restarted.
        """
        deadline = time.time() + self.config.heartbeat_timeout
        while any(
            handle.busy_task is not None and handle.process.is_alive()
            for handle in self._workers
        ):
            if time.time() > deadline:
                for index, handle in enumerate(self._workers):
                    if handle.busy_task is not None:
                        handle.stop(grace=0.1)
                        self.restarts_total += 1
                        self._spawn_generation += 1
                        self._workers[index] = self._spawn(
                            handle.worker_id, self._spawn_generation
                        )
                return
            try:
                _kind, worker_id, task_id, _payload = self._results.get(
                    timeout=_POLL_INTERVAL
                )
            except queue.Empty:
                continue
            handle = self._handle_of(worker_id, task_id)
            if handle is not None:
                handle.busy_task = None

    def _drain_stale_results(self) -> None:
        while True:
            try:
                self._results.get_nowait()
            except queue.Empty:
                return

    def _ensure_workers(self) -> None:
        """Respawn workers that died between runs (no budget charged —
        the run that lost them already accounted for the failure)."""
        current_env = os.environ.get(faults.FAULT_PLAN_ENV)
        if current_env != self._fault_env:
            # The active fault plan changed since the workers were
            # spawned; recycle the whole pool at generation 0 so every
            # worker runs under the current plan with fresh counters.
            self._fault_env = current_env
            self._spawn_generation = 0
            for index, handle in enumerate(self._workers):
                handle.stop(grace=0.1)
                self._workers[index] = self._spawn(handle.worker_id)
            return
        for index, handle in enumerate(self._workers):
            if not handle.process.is_alive():
                handle.stop(grace=0.0)
                self._spawn_generation += 1
                self._workers[index] = self._spawn(
                    handle.worker_id, self._spawn_generation
                )
            else:
                self._workers[index].busy_task = None

    def _health_check(
        self,
        requeue: Callable[[int, BaseException], None],
        restart: Callable[[_WorkerHandle, BaseException], None],
    ) -> None:
        """Detect crashed and hung busy workers; restart and requeue."""
        for handle in list(self._workers):
            task_id = handle.busy_task
            if task_id is None:
                continue
            if not handle.process.is_alive():
                error: BaseException = WorkerCrashError(
                    f"worker {handle.worker_id} died "
                    f"(exit code {handle.process.exitcode}) with a chunk "
                    "in flight",
                    details={"exitcode": handle.process.exitcode},
                )
            elif handle.heartbeat_age() > self.config.heartbeat_timeout:
                handle.process.kill()
                handle.process.join(timeout=_STOP_GRACE)
                error = WorkerStalledError(
                    f"worker {handle.worker_id} heartbeat stale for "
                    f"{handle.heartbeat_age():.1f}s "
                    f"(timeout {self.config.heartbeat_timeout}s); killed",
                    details={"timeout": self.config.heartbeat_timeout},
                )
            else:
                continue
            handle.busy_task = None
            restart(handle, error)
            requeue(task_id, error)


# -- the module-level warm pool ---------------------------------------------

_GLOBAL: WorkerSupervisor | None = None
_GLOBAL_LOCK = threading.Lock()


def _close_global() -> None:
    global _GLOBAL
    with _GLOBAL_LOCK:
        supervisor, _GLOBAL = _GLOBAL, None
    if supervisor is not None:
        supervisor.close()


atexit.register(_close_global)


def _lease_warm_pool(config: SupervisorConfig) -> WorkerSupervisor | None:
    """The warm pool with its run lock held, or ``None`` if unavailable.

    Unavailable means a run is already executing (the caller uses a
    one-shot pool rather than queueing) — configuration changes retire
    the idle pool and build a fresh one.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        supervisor = _GLOBAL
        if supervisor is None or supervisor.closed:
            supervisor = _GLOBAL = WorkerSupervisor(config)
        if not supervisor._run_lock.acquire(blocking=False):
            return None
        if supervisor.config != config:
            supervisor._run_lock.release()
            supervisor.close()
            supervisor = _GLOBAL = WorkerSupervisor(config)
            if not supervisor._run_lock.acquire(blocking=False):
                return None  # pragma: no cover - fresh lock is free
        return supervisor


def supervised_run(
    worker: Callable[[dict], dict],
    tasks: Sequence[dict],
    config: "ParallelConfig",
    context: "RunContext | None" = None,
) -> list[dict]:
    """Run tasks on the warm supervised pool (or a one-shot fallback).

    The pool behind :func:`~repro.perf.parallel.run_worker_pool`: results
    in task order, pro-rated budgets, cancellation through the parent
    context, restart/retry fault tolerance and warm worker caches.  A
    run that finds the warm pool busy (another run holds it) gets a
    one-shot :class:`WorkerSupervisor` with identical seeds and chunking.
    """
    sup_config = SupervisorConfig.from_parallel(config)
    supervisor = _lease_warm_pool(sup_config)
    if supervisor is not None:
        try:
            return supervisor._run_locked(worker, tasks, context)
        finally:
            supervisor._run_lock.release()
    one_shot = WorkerSupervisor(sup_config)
    try:
        return one_shot.run(worker, tasks, context)
    finally:
        one_shot.close()


def prewarm(workers: int, start_method: str | None = None) -> dict:
    """Spawn the module-level warm pool ahead of the first parallel run.

    ``repro serve --supervise`` calls this at startup so the first
    sampling job with ``workers > 1`` finds hot worker processes instead
    of paying spawn + import latency.  Idempotent: an existing matching
    pool is left alone.
    """
    supervisor = _lease_warm_pool(SupervisorConfig(
        workers=workers, start_method=start_method,
    ))
    if supervisor is not None:
        supervisor._run_lock.release()
    return warm_pool_stats()


def warm_pool_stats() -> dict:
    """Counters of the module-level warm pool (for metrics callbacks)."""
    with _GLOBAL_LOCK:
        supervisor = _GLOBAL
        if supervisor is None or supervisor.closed:
            return {
                "alive": 0, "workers": 0, "restarts": 0, "retries": 0,
                "heartbeat_ages": {},
            }
        return {
            "alive": supervisor.alive_workers(),
            "workers": supervisor.config.workers,
            "restarts": supervisor.restarts_total,
            "retries": supervisor.retries_total,
            "heartbeat_ages": {
                str(handle.worker_id): round(handle.heartbeat_age(), 3)
                for handle in supervisor._workers
                if handle.process.is_alive()
            },
        }


def warm_pool_heartbeat_ages() -> dict[str, float]:
    """Per-worker heartbeat age in seconds (the ``/v1/metrics`` gauge)."""
    return dict(warm_pool_stats()["heartbeat_ages"])
