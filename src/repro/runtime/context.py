"""Cooperative run control: cancellation, budget checks, run reports.

A :class:`RunContext` travels through an evaluation call tree (every
evaluator accepts an optional ``context``) and provides three services:

* **budget enforcement** — :meth:`RunContext.tick_steps` /
  :meth:`RunContext.tick_states` charge work against the
  :class:`~repro.runtime.budget.Budget` and raise
  :class:`~repro.errors.BudgetExceededError` the moment an axis is
  exhausted;
* **cooperative cancellation** — :meth:`RunContext.cancel` (safe to
  call from another thread or a signal handler) makes the next check
  raise :class:`~repro.errors.RunCancelledError`;
* **reporting** — downgrades and noteworthy events are recorded as they
  happen and :meth:`RunContext.report` assembles a structured
  :class:`RunReport` of what was spent and why; its phase times are the
  exclusive totals of the spans :meth:`RunContext.phase` opens, the one
  clock of a run.

Checks happen at step/state granularity inside the evaluators' hot
loops, so interruption latency is one transition, never one full run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import BudgetExceededError, RunCancelledError
from repro.obs.profile import phase_totals, span_tree
from repro.obs.trace import NullSpan, NullTracer, SpanRecorder, TraceSpan
from repro.runtime.budget import Budget


@dataclass
class PhaseTiming:
    """Exclusive wall/CPU totals of one named run phase.

    *Exclusive* means time spent in a nested phase is charged to the
    child, not the parent — so the per-phase wall totals partition the
    instrumented portion of the run and sum (plus glue) to the run's
    wall clock.
    """

    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    count: int = 0

    def as_dict(self) -> dict:
        return {
            "wall_seconds": round(self.wall_seconds, 9),
            "cpu_seconds": round(self.cpu_seconds, 9),
            "count": self.count,
        }


@dataclass(frozen=True)
class Downgrade:
    """One recorded evaluator downgrade (e.g. exact → lumped)."""

    from_method: str
    to_method: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "from": self.from_method,
            "to": self.to_method,
            "reason": self.reason,
        }


@dataclass
class RunReport:
    """Structured account of one evaluation run.

    Attributes
    ----------
    outcome:
        ``"ok"`` on success, ``"budget_exceeded"`` / ``"cancelled"``
        when the run was stopped, ``"running"`` while in flight.
    method:
        The algorithm that produced the final answer (``None`` until a
        result exists).
    downgrades:
        The degradation path taken, in order.
    events:
        Free-form progress notes recorded by evaluators.
    budget / spent:
        The configured limits and what was actually consumed.
    cache:
        Hit/miss/eviction counters of the run's
        :class:`~repro.perf.cache.TransitionCache` (``None`` when no
        cache was attached).  Parallel runs report the summed counters
        of the workers' private caches.
    phases:
        Exclusive per-phase wall/CPU timings (``parse``, ``chain-build``,
        ``solve``, ``sample``, …): the
        :func:`~repro.obs.profile.phase_totals` of the spans opened via
        :meth:`RunContext.phase`.
    """

    outcome: str = "running"
    method: str | None = None
    downgrades: list[Downgrade] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    budget: Mapping[str, Any] = field(default_factory=dict)
    spent: Mapping[str, Any] = field(default_factory=dict)
    cache: Mapping[str, Any] | None = None
    phases: Mapping[str, PhaseTiming] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "method": self.method,
            "downgrades": [d.as_dict() for d in self.downgrades],
            "events": list(self.events),
            "budget": dict(self.budget),
            "spent": dict(self.spent),
            "cache": dict(self.cache) if self.cache is not None else None,
            "phases": {
                name: timing.as_dict() for name, timing in self.phases.items()
            },
        }


class RunContext:
    """Shared state of one evaluation run: budget, token, counters.

    Parameters
    ----------
    budget:
        Resource limits; ``None`` means unlimited.
    clock:
        Monotonic-seconds callable, injectable for deterministic tests.
    tracer:
        Span/event sink for this run; defaults to a
        :class:`~repro.obs.trace.SpanRecorder`, which keeps the run's
        span records but emits nothing and has ``enabled`` false (hot
        loops guard step events with ``if tracer.enabled:``).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` that
        run-level counters (downgrades) publish into; ``None`` outside
        the service.
    run_id:
        Correlation id carried into logs and the trace's ``run``
        record (the service uses the job id).

    Examples
    --------
    >>> context = RunContext(Budget(max_steps=2))
    >>> context.tick_steps()
    >>> context.tick_steps()
    >>> context.tick_steps()
    Traceback (most recent call last):
        ...
    repro.errors.BudgetExceededError: step budget exhausted: 3 > max_steps=2
    """

    def __init__(
        self,
        budget: Budget | None = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: SpanRecorder | NullTracer | None = None,
        metrics: Any = None,
        run_id: str | None = None,
    ) -> None:
        self.budget = budget if budget is not None else Budget.unlimited()
        self._clock = clock
        self._started = clock()
        self.steps_used = 0
        self.states_used = 0
        self.tracer = tracer if tracer is not None else SpanRecorder()
        self.metrics = metrics
        self.run_id = run_id
        if self.tracer.enabled:
            # Route fault-injection hits on this thread into the trace
            # (satellite of the profiler: chaos runs must be visible).
            from repro.faults.plan import bind_trace_tracer

            bind_trace_tracer(self.tracer)
        self._cancel_event = threading.Event()
        # Hot-loop fast path: tick_* charge millions of steps per run, so
        # an unlimited budget skips the deadline/limit checks entirely.
        # ``budget`` must not be swapped mid-run (nothing does).
        self._unbounded = self.budget.is_unlimited
        self._cancelled = False
        self._downgrades: list[Downgrade] = []
        self._events: list[str] = []
        self._outcome = "running"
        self._method: str | None = None
        self._cache: Any = None
        self._cache_stats: Mapping[str, Any] | None = None

    # -- cancellation -------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (thread/signal safe)."""
        # The plain bool is what the tick fast path reads: a GIL-safe
        # attribute load instead of an Event.is_set() call per step.
        self._cancelled = True
        self._cancel_event.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    # -- time ---------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the context was created."""
        return self._clock() - self._started

    def remaining_time(self) -> float | None:
        """Seconds left on the wall-clock budget (``None`` = unlimited)."""
        if self.budget.wall_clock is None:
            return None
        return self.budget.wall_clock - self.elapsed()

    # -- checks -------------------------------------------------------

    def check(self) -> None:
        """Raise if cancelled or past the wall-clock deadline.

        Called by evaluators at every loop iteration; charging methods
        call it implicitly, so hot loops need only one ``tick_*`` call.
        """
        if self._cancel_event.is_set():
            self._outcome = "cancelled"
            raise RunCancelledError(
                "run cancelled", details={"elapsed": self.elapsed()}
            )
        remaining = self.remaining_time()
        if remaining is not None and remaining < 0:
            self._outcome = "budget_exceeded"
            raise BudgetExceededError(
                f"wall-clock budget exhausted: {self.elapsed():.3f}s > "
                f"{self.budget.wall_clock}s",
                details={
                    "resource": "wall_clock",
                    "limit": self.budget.wall_clock,
                    "spent": self.elapsed(),
                },
            )

    def tick_steps(self, n: int = 1) -> None:
        """Charge ``n`` transition steps against the budget."""
        self.steps_used += n
        if self._unbounded and not self._cancelled:
            return
        limit = self.budget.max_steps
        if limit is not None and self.steps_used > limit:
            self._outcome = "budget_exceeded"
            raise BudgetExceededError(
                f"step budget exhausted: {self.steps_used} > max_steps={limit}",
                details={
                    "resource": "steps",
                    "limit": limit,
                    "spent": self.steps_used,
                },
            )
        self.check()

    def tick_states(self, n: int = 1) -> None:
        """Charge ``n`` materialised states against the budget."""
        self.states_used += n
        if self._unbounded and not self._cancelled:
            return
        limit = self.budget.max_states
        if limit is not None and self.states_used > limit:
            self._outcome = "budget_exceeded"
            raise BudgetExceededError(
                f"state budget exhausted: {self.states_used} > "
                f"max_states={limit}",
                details={
                    "resource": "states",
                    "limit": limit,
                    "spent": self.states_used,
                },
            )
        self.check()

    # -- phases -------------------------------------------------------

    def phase(self, name: str, **attrs: Any) -> TraceSpan | NullSpan:
        """A named run phase: one span on this run's recorder.

        The report's phases are the spans' exclusive totals — entering
        ``solve`` inside ``chain-build`` charges the inner time to
        ``solve`` only — so per-phase totals on the :class:`RunReport`
        partition the run.

        >>> context = RunContext()
        >>> with context.phase("solve"):
        ...     pass
        >>> context.report().phases["solve"].count
        1
        """
        return self.tracer.span(name, **attrs)

    # -- usage merging ------------------------------------------------

    def absorb_usage(self, steps: int = 0, states: int = 0) -> None:
        """Fold a child run's consumption into this context's counters.

        Used after a parallel sampler joins its workers: each worker
        enforced its own pro-rated :class:`Budget`, so the sum can never
        exceed this context's limits and no check is re-run here — the
        counters exist so :meth:`report` accounts for all work done.
        """
        self.steps_used += steps
        self.states_used += states

    # -- reporting ----------------------------------------------------

    def attach_cache(self, cache: Any) -> None:
        """Surface a :class:`~repro.perf.cache.TransitionCache`'s
        counters on this run's :class:`RunReport` (``stats()`` is read
        when the report is built, so final numbers are reported)."""
        self._cache = cache

    def record_cache_stats(self, stats: Mapping[str, Any]) -> None:
        """Record already-aggregated cache counters (parallel runs sum
        their workers' private caches and report the total here)."""
        self._cache_stats = dict(stats)

    def record_event(self, message: str) -> None:
        """Append a free-form progress note to the report."""
        self._events.append(message)

    def record_downgrade(self, from_method: str, to_method: str, reason: str) -> None:
        """Record one degradation step (exact → lumped → MCMC)."""
        self._downgrades.append(Downgrade(from_method, to_method, reason))
        self._events.append(f"downgrade {from_method} -> {to_method}: {reason}")
        if self.tracer.enabled:
            self.tracer.event(
                "downgrade", from_method=from_method, to_method=to_method,
                reason=reason,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_engine_downgrades_total",
                "Degradation-ladder downgrades taken by runs",
            ).inc(from_method=from_method, to_method=to_method)

    @property
    def downgrades(self) -> tuple[Downgrade, ...]:
        return tuple(self._downgrades)

    def finish(self, method: str | None = None) -> None:
        """Mark the run successful (optionally noting the final method)."""
        self._outcome = "ok"
        if method is not None:
            self._method = method

    def report(self) -> RunReport:
        """A structured snapshot of what was spent and why."""
        cache_stats = self._cache_stats
        if cache_stats is None and self._cache is not None:
            cache_stats = self._cache.stats()
        return RunReport(
            outcome=self._outcome,
            method=self._method,
            downgrades=list(self._downgrades),
            events=list(self._events),
            budget=self.budget.as_dict(),
            spent={
                "wall_clock": self.elapsed(),
                "steps": self.steps_used,
                "states": self.states_used,
            },
            cache=cache_stats,
            phases={
                name: PhaseTiming(**totals)
                for name, totals in phase_totals(
                    span_tree(self.tracer.spans)
                ).items()
            },
        )


def ensure_context(context: RunContext | None) -> RunContext:
    """Normalise an optional context to a concrete one.

    ``None`` becomes a fresh unlimited context, so legacy call sites pay
    only a cheap counter per loop iteration and can never trip a limit.
    """
    return context if context is not None else RunContext()
