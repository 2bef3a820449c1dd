"""Randomized absolute approximation for inflationary queries (Thm 4.3).

Each sample (i) fixes the pc-table valuation once (Section 3.2
semantics), then (ii) repeatedly applies the transition kernel, making
one probabilistic choice per repair-key application, until a fixpoint is
reached, and (iii) reports whether the query event holds there.  The
estimate is the fraction of satisfying samples; the Chernoff bound gives
the sample count ``m ≥ ln(1/δ) / (4ε²)`` for an (ε, δ) guarantee.

Fixpoint detection: a state is a fixpoint iff the support of Q(state) is
{state}.  A sampled step that returns the same state is *not* proof of a
fixpoint (Example 3.6), so when that happens the evaluator verifies the
state by exact enumeration of its one transition (cached per state).
For datalog-style kernels built from ``R ∪ f(C − C_old)`` patterns the
verification is cheap — at the fixpoint all repair-key inputs are empty,
so the enumeration has a single world.  An optional ``stall_threshold``
mode replaces verification with "k consecutive unchanged steps", the
cheap heuristic; it can terminate early on adversarial kernels and is
off by default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

from repro.core.evaluation.results import SamplingResult
from repro.core.queries import InflationaryQuery
from repro.errors import EvaluationError
from repro.obs.trace import phase_scope, tracer_of
from repro.probability.chernoff import hoeffding_sample_count, paper_sample_count
from repro.probability.distribution import Distribution
from repro.probability.rng import RngLike, make_rng
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.cache import TransitionCache
    from repro.perf.parallel import ParallelConfig
    from repro.runtime.context import RunContext

S = TypeVar("S", bound=Hashable)

#: Default hard limit on kernel applications within a single sample.
DEFAULT_MAX_STEPS = 100_000


def sample_fixpoint(
    step: Callable[[S], S],
    is_fixpoint: Callable[[S], bool],
    initial: S,
    max_steps: int = DEFAULT_MAX_STEPS,
    stall_threshold: int | None = None,
    context: "RunContext | None" = None,
) -> tuple[S, int]:
    """Run one probabilistic computation to its fixpoint.

    ``step`` draws one successor; ``is_fixpoint`` is the (possibly
    expensive) exact check, consulted only when a step leaves the state
    unchanged.  With ``stall_threshold=k`` the exact check is replaced
    by "k consecutive unchanged steps".  Returns ``(fixpoint, steps)``.
    """
    state = initial
    stalled = 0
    for steps in range(max_steps):
        if context is not None:
            context.tick_steps()
        successor = step(state)
        if successor == state:
            if stall_threshold is None:
                if is_fixpoint(state):
                    return state, steps
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_threshold:
                    return state, steps
        else:
            stalled = 0
        state = successor
    raise EvaluationError(
        f"no fixpoint reached within {max_steps} kernel applications; "
        "is the query really inflationary and terminating?"
    )


def evaluate_inflationary_sampling(
    query: InflationaryQuery,
    initial: Database,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int | None = None,
    rng: RngLike = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    stall_threshold: int | None = None,
    use_paper_bound: bool = True,
    context: "RunContext | None" = None,
    cache_size: int | None = None,
    parallel: "ParallelConfig | None" = None,
    cache: "TransitionCache | None" = None,
) -> SamplingResult:
    """The Theorem 4.3 sampler: a randomized absolute (ε, δ)-approximation
    running in time polynomial in the database size.

    Parameters
    ----------
    samples:
        Override the planned sample count (``epsilon``/``delta`` are
        then recorded as ``None`` — the guarantee is whatever the
        Hoeffding bound gives for that count).
    use_paper_bound:
        Plan samples with the paper's ``ln(1/δ)/(4ε²)`` constant
        (default) or the tight two-sided Hoeffding constant.
    stall_threshold:
        See :func:`sample_fixpoint`.
    cache_size:
        Bound the fixpoint-verification memo with an LRU
        :class:`~repro.perf.cache.TransitionCache` of this size (and
        surface hit/miss counters on the run report).  Sampling steps
        stay on the polynomial ``sample_transition`` path, so the RNG
        stream — and hence the estimate for a given seed — is
        unchanged; only the exact one-state verification rows are
        memoized.
    parallel:
        A :class:`~repro.perf.parallel.ParallelConfig`; ``workers=N``
        splits the planned trials over a process pool with
        deterministic per-worker seeds (``workers=1`` keeps this
        sequential path bit-identically), pro-rated budgets, and
        cancellation propagation.
    cache:
        A pre-built fixpoint-verification memo shared across runs (the
        :class:`~repro.service.EngineSession` pattern); overrides
        ``cache_size``.  It must have been built on the **pc-free**
        kernel (``kernel.without_pc_tables().cached()``), because the
        fixpoint check enumerates the fixed kernel.  The estimate for a
        given seed is unchanged either way (sampling stays on
        ``sample_transition``).  Ignored with ``parallel`` workers
        (caches cannot cross process boundaries; workers get private
        caches of the same capacity).

    A lowered query (:func:`repro.kernel.lower`) samples on the
    columnar kernel, on workers too, with bit-identical estimates for a
    fixed seed.
    """
    from repro.kernel.lowering import lowered

    query.kernel.check_schema(initial)
    generator = make_rng(rng)
    kernel = query.kernel
    fixed_kernel = kernel.without_pc_tables()

    if samples is None:
        planner = paper_sample_count if use_paper_bound else hoeffding_sample_count
        planned = planner(epsilon, delta)
        recorded_epsilon, recorded_delta = epsilon, delta
    else:
        planned = samples
        recorded_epsilon = recorded_delta = None

    if parallel is not None and parallel.enabled and planned > 1:
        if cache is not None:
            cache_size = cache.maxsize
            cache = None
            if context is not None:
                context.record_event(
                    "shared transition cache cannot cross process "
                    "boundaries: workers use private caches"
                )
        return _inflationary_sampling_parallel(
            query,
            initial,
            planned=planned,
            epsilon=recorded_epsilon,
            delta=recorded_delta,
            generator=generator,
            max_steps=max_steps,
            stall_threshold=stall_threshold,
            cache_size=cache_size,
            parallel=parallel,
            context=context,
        )

    row_cache = cache
    if row_cache is None and cache_size is not None:
        from repro.perf.cache import TransitionCache

        # The memo must enumerate the *fixed* kernel (pc-table choices
        # are made once per sample, outside the fixpoint iteration).
        row_cache = TransitionCache(fixed_kernel, maxsize=cache_size)
    if row_cache is not None and context is not None:
        context.attach_cache(row_cache)

    fixpoint_cache: dict[Database, bool] = {}

    def is_fixpoint(state: Database) -> bool:
        cached = fixpoint_cache.get(state)
        if cached is None:
            row = (
                row_cache.transition(state)
                if row_cache is not None
                else fixed_kernel.transition(state)
            )
            cached = row == Distribution.point(state)
            fixpoint_cache[state] = cached
        return cached

    def one_sample() -> tuple[bool, int]:
        world = initial
        if kernel.pc_tables is not None:
            valuation = kernel.pc_tables.sample_valuation(generator)
            world = initial.with_relations(
                {
                    name: table.instantiate(valuation)
                    for name, table in kernel.pc_tables.tables.items()
                }
            )
        fixpoint, steps = sample_fixpoint(
            lambda state: fixed_kernel.sample_transition(state, generator),
            is_fixpoint,
            world,
            max_steps=max_steps,
            stall_threshold=stall_threshold,
            context=context,
        )
        return query.event.holds(fixpoint), steps

    tracer = tracer_of(context)
    positive = 0
    total_steps = 0
    with phase_scope(context, "sample", planned=planned):
        for index in range(1, planned + 1):
            satisfied, steps = one_sample()
            positive += satisfied
            total_steps += steps
            if tracer.enabled:
                tracer.event(
                    "sample", index=index, hit=bool(satisfied),
                    positive=positive, steps=steps,
                )

    details: dict = {
        "mean_steps_per_sample": total_steps / planned,
        "fixpoint_cache_size": len(fixpoint_cache),
    }
    if lowered(query):
        details["backend"] = "columnar"
    if row_cache is not None:
        details["cache"] = row_cache.stats()
    return SamplingResult(
        estimate=positive / planned,
        samples=planned,
        positive=positive,
        epsilon=recorded_epsilon,
        delta=recorded_delta,
        method="thm-4.3",
        details=details,
    )


def _inflationary_sampling_parallel(
    query: InflationaryQuery,
    initial: Database,
    planned: int,
    epsilon: float | None,
    delta: float | None,
    generator,
    max_steps: int,
    stall_threshold: int | None,
    cache_size: int | None,
    parallel: "ParallelConfig",
    context: "RunContext | None",
) -> SamplingResult:
    """Theorem 4.3 trials over a worker pool (seed-stable, budgeted)."""
    from repro.kernel.lowering import lowered
    from repro.perf.parallel import (
        _run_inflationary_trials,
        merge_tallies,
        prorated_budgets,
        run_worker_pool,
        split_trials,
        worker_seeds,
    )

    workers = min(parallel.workers, planned)
    seeds = worker_seeds(generator, workers)
    counts = split_trials(planned, workers)
    budgets = prorated_budgets(context, workers)
    profiled = bool(tracer_of(context).enabled)
    tasks = [
        {
            "query": query,
            "initial": initial,
            "samples": count,
            "seed": seed,
            "max_steps": max_steps,
            "stall_threshold": stall_threshold,
            "cache_size": cache_size,
            "budget": budget,
            "profile": profiled,
        }
        for count, seed, budget in zip(counts, seeds, budgets)
        if count > 0
    ]
    with phase_scope(context, "sample", planned=planned, workers=workers):
        tallies = run_worker_pool(
            _run_inflationary_trials, tasks, parallel, context
        )
        merged = merge_tallies(tallies)
    details: dict = {
        "mean_steps_per_sample": merged.get("total_steps", 0) / planned,
        "workers": workers,
    }
    if lowered(query):
        details["backend"] = "columnar"
    if context is not None:
        context.absorb_usage(steps=merged["steps"])
        if merged.get("cache"):
            context.record_cache_stats(merged["cache"])
    if merged.get("cache"):
        details["cache"] = merged["cache"]
    return SamplingResult(
        estimate=merged["positive"] / planned,
        samples=planned,
        positive=merged["positive"],
        epsilon=epsilon,
        delta=delta,
        method="thm-4.3",
        details=details,
    )
