"""Multi-core trial execution for the Monte-Carlo samplers.

The Theorem 4.3 and Theorem 5.6 samplers are embarrassingly parallel:
every trial is an independent walk whose tally merges into one
Chernoff-valid estimate.  This module fans the planned trials out over
the supervised worker pool (:mod:`repro.perf.supervisor`) while
preserving the three contracts the rest of the library depends on:

* **Determinism** — each worker runs an independent RNG stream seeded
  by ``master.getrandbits(64)`` draws taken in worker order, so a fixed
  ``(seed, workers)`` pair always produces the same estimate
  (*seed-stable*), and ``workers=1`` never enters this module at all —
  the samplers keep their historical single-stream path, so results
  there are bit-identical to previous releases.
* **Budgets** — the caller's remaining step budget is pro-rated across
  workers (shares sum exactly to the remainder) and the wall-clock
  deadline is forwarded, so a parallel run can never outspend the
  :class:`~repro.runtime.budget.Budget` a sequential run honours.
* **Cancellation** — the parent polls its own
  :class:`~repro.runtime.context.RunContext` while the pool runs; any
  cancellation or deadline trip flips a shared event that every
  worker's :class:`WorkerContext` polls, so workers stop within a few
  transitions instead of running to completion.

Workers return plain tally dicts (positives, samples, steps, cache
counters); the samplers merge them and build the usual
:class:`~repro.core.evaluation.results.SamplingResult`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import EvaluationError
from repro.obs.profile import drain_worker_spans, stitch_spans, worker_tracer
from repro.obs.trace import NullTracer, Tracer
from repro.runtime.budget import Budget
from repro.runtime.context import RunContext

@dataclass(frozen=True)
class ParallelConfig:
    """How to parallelise a sampler's trials.

    Attributes
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) disables the
        pool entirely and keeps the sampler on its historical,
        bit-identical sequential path.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``"fork"``
        where available (Linux) and the platform default elsewhere.

    Trials run on the supervised warm worker pool
    (:mod:`repro.perf.supervisor`): processes persist across runs, keep
    warm transition caches, heartbeat, and are restarted on crash/hang
    with chunks re-dispatched idempotently.  A run that finds the warm
    pool busy gets a one-shot pool with the same seeds, chunking and
    merge order, so results are bit-identical either way for a fixed
    ``(seed, workers)``.

    Examples
    --------
    >>> ParallelConfig(workers=4).workers
    4
    """

    workers: int = 1
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise EvaluationError(f"workers must be >= 1, got {self.workers!r}")
        methods = multiprocessing.get_all_start_methods()
        if self.start_method is not None and self.start_method not in methods:
            raise EvaluationError(
                f"unknown start method {self.start_method!r}; "
                f"this platform supports {methods}"
            )

    @property
    def enabled(self) -> bool:
        """Whether a pool will actually be used."""
        return self.workers > 1


# -- deterministic seeding and budget pro-rating ---------------------------


def worker_seeds(master: random.Random, workers: int) -> list[int]:
    """Derive one 64-bit seed per worker from the master stream.

    Seeds are drawn in worker order, so a fixed master seed and worker
    count always yields the same seed vector regardless of scheduling.
    """
    return [master.getrandbits(64) for _ in range(workers)]


def split_trials(total: int, workers: int) -> list[int]:
    """Split ``total`` trials into ``workers`` near-equal shares.

    The shares sum exactly to ``total``; earlier workers absorb the
    remainder.  Shares can be zero when ``total < workers``.
    """
    if total < 0:
        raise EvaluationError(f"cannot split {total} trials")
    base, remainder = divmod(total, workers)
    return [base + (1 if index < remainder else 0) for index in range(workers)]


def prorated_budgets(context: RunContext | None, workers: int) -> list[Budget]:
    """Per-worker budgets whose step shares sum to the parent's remainder.

    The wall-clock deadline is forwarded as the parent's *remaining*
    time (each worker restarts the clock when it builds its context),
    and ``max_states`` is not forwarded — the samplers never
    materialise chains inside workers.
    """
    if context is None:
        return [Budget.unlimited() for _ in range(workers)]
    remaining_time = context.remaining_time()
    limit = context.budget.max_steps
    if limit is None:
        shares: list[int | None] = [None] * workers
    else:
        shares = list(split_trials(max(limit - context.steps_used, 0), workers))
    return [
        Budget(wall_clock=remaining_time, max_steps=share) for share in shares
    ]


# -- worker-side context ---------------------------------------------------

#: Cross-process cancellation flag, installed by the supervisor's
#: worker main loop.
_CANCEL_EVENT: Any = None

#: Shared heartbeat timestamp (``multiprocessing.Value("d")``) bumped
#: from the sampling hot loop so the supervisor can tell a slow worker
#: from a hung one.  ``None`` outside supervised workers.
_HEARTBEAT: Any = None

#: True inside a supervised persistent worker; enables the warm
#: transition-cache registry below.
_PERSISTENT = False

#: Warm caches surviving across tasks in a persistent worker, keyed by
#: ``(pickle of the kernel, maxsize)``.  Kernels arrive freshly
#: unpickled with every task, so on reuse the cache is re-bound to the
#: new — equal — kernel object.  The pickle is the kernel's whole
#: program (its ``repr`` names only the relations it rewrites, which
#: two programs can share).  Compiled kernels get none: their states
#: are ids into one task's copy of the symbol table.
_WARM_CACHES: dict[tuple[bytes, int], Any] = {}


def _warm_cache(kernel: Any, cache_size: int | None) -> Any:
    """The persistent worker's warm cache for ``kernel``, or ``None``
    (the sampler then builds a private one from ``cache_size``).

    The ``worker.cache`` fault site models cache corruption: a fired
    ``corrupt`` action discards the warm entries (the detected-and-
    dropped response), which costs recomputation but cannot change any
    estimate — the cached sampler draws exactly one uniform per step
    whether it hits or misses, so the RNG stream is hit/miss-invariant.
    """
    from repro import faults
    from repro.kernel import CompiledKernel
    from repro.perf.cache import TransitionCache

    if not _PERSISTENT or cache_size is None or isinstance(kernel, CompiledKernel):
        return None

    key = (pickle.dumps(kernel), cache_size)
    cache = _WARM_CACHES.get(key)
    if cache is None:
        cache = _WARM_CACHES[key] = TransitionCache(kernel, maxsize=cache_size)
    else:
        cache.kernel = kernel
    spec = faults.maybe_fire(faults.SITE_WORKER_CACHE)
    if spec is not None and spec.action == "corrupt":
        cache.clear()
    return cache


class WorkerContext(RunContext):
    """A :class:`RunContext` that also honours the pool's cancel event.

    The shared event is polled every :data:`POLL_EVERY` checks (an
    ``Event.is_set`` crosses a lock, so per-step polling would tax the
    hot loop); a set event behaves exactly like a local
    :meth:`~RunContext.cancel` call.  Under the supervisor the same
    polling cadence also bumps the worker's heartbeat, so "alive and
    sampling" and "hung" are distinguishable from the parent.
    """

    POLL_EVERY = 64

    def __init__(
        self,
        budget: Budget | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        super().__init__(budget, tracer=tracer)
        # Charges must reach check() even without limits: it is what
        # polls the cancel event and bumps the heartbeat.
        self._unbounded = False
        self._poll_countdown = self.POLL_EVERY

    def check(self) -> None:
        self._poll_countdown -= 1
        if self._poll_countdown <= 0:
            self._poll_countdown = self.POLL_EVERY
            if _CANCEL_EVENT is not None and _CANCEL_EVENT.is_set():
                self.cancel()
            if _HEARTBEAT is not None:
                _HEARTBEAT.value = time.time()
        super().check()


# -- worker entry points ---------------------------------------------------
#
# These run inside the pool processes; the sampler imports happen lazily
# so that this module never forms an import cycle with the evaluators.


def _run_mcmc_trials(task: dict) -> dict:
    from repro.core.evaluation.sampling_noninflationary import evaluate_forever_mcmc

    context = WorkerContext(task["budget"], tracer=worker_tracer(task))
    cache = _warm_cache(task["query"].kernel, task["cache_size"])
    before = cache.stats() if cache is not None else None
    result = evaluate_forever_mcmc(
        task["query"],
        task["initial"],
        samples=task["samples"],
        burn_in=task["burn_in"],
        rng=task["seed"],
        cache_size=task["cache_size"],
        context=context,
        cache=cache,
    )
    payload = {
        "positive": result.positive,
        "samples": result.samples,
        "steps": context.steps_used,
        "cache": _task_lookups(result.details.get("cache"), before),
    }
    return _attach_worker_observability(payload, context)


def _run_inflationary_trials(task: dict) -> dict:
    from repro.core.evaluation.sampling_inflationary import (
        evaluate_inflationary_sampling,
    )

    context = WorkerContext(task["budget"], tracer=worker_tracer(task))
    # The fixpoint check enumerates the pc-free kernel: memoize that one.
    kernel = task["query"].kernel.without_pc_tables()
    cache = _warm_cache(kernel, task["cache_size"])
    before = cache.stats() if cache is not None else None
    result = evaluate_inflationary_sampling(
        task["query"],
        task["initial"],
        samples=task["samples"],
        rng=task["seed"],
        max_steps=task["max_steps"],
        stall_threshold=task["stall_threshold"],
        cache_size=task["cache_size"],
        context=context,
        cache=cache,
    )
    payload = {
        "positive": result.positive,
        "samples": result.samples,
        "steps": context.steps_used,
        "total_steps": result.details["mean_steps_per_sample"] * result.samples,
        "cache": _task_lookups(result.details.get("cache"), before),
    }
    return _attach_worker_observability(payload, context)


def _task_lookups(stats: dict | None, before: dict | None) -> dict | None:
    """A warm cache's counters as one task's own: ``hits``, ``misses``
    and ``evictions`` since ``before`` (the persistent cache's counters
    when the task began); ``size`` and ``maxsize`` as they stand."""
    if stats is None or before is None:
        return stats
    own = dict(stats)
    for key in ("hits", "misses", "evictions"):
        own[key] = stats[key] - before[key]
    lookups = own["hits"] + own["misses"]
    own["hit_rate"] = own["hits"] / lookups if lookups else None
    return own


def _attach_worker_observability(payload: dict, context: RunContext) -> dict:
    """Ship the worker's recorded spans/ledger back inside its payload.

    Both keys are plain picklable data; the parent pops them back out
    via :func:`absorb_worker_payload` before tallies merge, so result
    aggregation never sees them.
    """
    spans = drain_worker_spans(context.tracer)
    if spans:
        payload["spans"] = spans
    if not context.ledger.empty:
        payload["ledger"] = context.ledger.as_dict()
    return payload


def absorb_worker_payload(
    context: RunContext | None,
    payload: Any,
    *,
    worker_id: int | None = None,
    spawn_generation: int | None = None,
) -> None:
    """Stitch a returned task payload's spans/ledger into the parent.

    Called at result-receipt time (the supervisor's results loop),
    when the dispatching span is still
    open on the parent tracer — that is what parents stitched roots
    under.  Mutates ``payload`` by popping the observability keys.
    """
    if context is None or not isinstance(payload, dict):
        return
    spans = payload.pop("spans", None)
    if spans:
        stitch_spans(
            context.tracer,
            spans,
            worker_id=worker_id,
            spawn_generation=spawn_generation,
        )
    ledger = payload.pop("ledger", None)
    if ledger:
        context.ledger.merge_dict(ledger)


# -- parent-side pool driver ----------------------------------------------


def run_worker_pool(
    worker: Callable[[dict], dict],
    tasks: Sequence[dict],
    config: ParallelConfig,
    context: RunContext | None = None,
) -> list[dict]:
    """Run one task per worker on the supervised pool; results in task order.

    Blocks until every worker finishes; polls the parent ``context``
    while waiting so a cancellation or wall-clock trip in the parent
    propagates to the workers.  The first non-retryable worker failure
    (e.g. a pro-rated budget trip) is re-raised in the parent after the
    remaining workers have been told to stop; crashes, stalls and
    transient faults are retried (see :func:`~repro.perf.supervisor.supervised_run`).
    """
    from repro.perf.supervisor import supervised_run

    return supervised_run(worker, tasks, config, context)


def merge_tallies(tallies: Sequence[dict]) -> dict:
    """Sum per-worker tallies into one Chernoff-valid aggregate.

    Trials in different workers are independent (independent seeds, no
    shared state), so the summed positives over the summed samples obey
    the same Hoeffding/Chernoff bound the sequential plan was sized
    for.  Cache counters are summed across the workers' private caches.
    """
    merged = {
        "positive": sum(t["positive"] for t in tallies),
        "samples": sum(t["samples"] for t in tallies),
        "steps": sum(t["steps"] for t in tallies),
    }
    caches = [t.get("cache") for t in tallies if t.get("cache")]
    if caches:
        merged["cache"] = {
            "size": sum(c["size"] for c in caches),
            "maxsize": sum(c["maxsize"] for c in caches),
            "hits": sum(c["hits"] for c in caches),
            "misses": sum(c["misses"] for c in caches),
            "evictions": sum(c["evictions"] for c in caches),
            "hit_rate": (
                sum(c["hits"] for c in caches)
                / max(sum(c["hits"] + c["misses"] for c in caches), 1)
            ),
        }
    if any("total_steps" in t for t in tallies):
        merged["total_steps"] = sum(t.get("total_steps", 0) for t in tallies)
    return merged
