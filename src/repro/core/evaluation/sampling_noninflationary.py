"""Mixing-time-based sampling for forever-queries (Theorem 5.6).

On an ergodic chain the state after t(ε_mix) steps is ε_mix-close (in
total variation) to stationary regardless of the start state.  The
Theorem 5.6 sampler therefore runs the kernel for a burn-in of t(ε_mix)
steps, records whether the event holds, restarts, and averages: the
estimate is within ε_mix + ε_sample of the true stationary event
probability with confidence 1 − δ, in time polynomial in the database
size and the mixing time.

The burn-in can be supplied by the caller (the honest setting when the
chain is too large to materialise), computed exactly from the explicit
chain (small chains; used to validate the method), or estimated by the
convergence heuristic the paper sketches in Section 5.1
(:func:`adaptive_burn_in` — "computing intermediate probabilities up
until convergence" over an ensemble of parallel walks).

With a transition cache every step is one uniform, so the sampler
walks a chunk of samples in lockstep (:meth:`TransitionCache.walk
<repro.perf.cache.TransitionCache.walk>`) on the uniforms the
walk-at-a-time loop would draw, with the same tallies; uncached steps
draw a varying number of uniforms and walk one sample at a time.

Resilience: the sampler is interruptible through an optional
:class:`~repro.runtime.RunContext` (budget + cancellation checked once
per kernel application, or per lockstep step and row computed) and can
persist its exact position — partial tallies, mid-burn-in walker state,
and the full RNG state — to a :class:`~repro.runtime.Checkpoint`, from
which a later run resumes bit-identically (step budgets stop on the
exact step; a cancelled lockstep chunk saves the chunk's start; a
``KeyboardInterrupt`` checkpoint is best-effort, since the signal can
land between the draws of a single transition).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chain_builder import build_state_chain
from repro.core.evaluation.results import SamplingResult
from repro.core.queries import ForeverQuery
from repro.errors import CheckpointError, EvaluationError
from repro.faults import SITE_SAMPLER_SAMPLE, maybe_fire
from repro.markov.mixing import mixing_time
from repro.obs.trace import phase_scope, tracer_of
from repro.probability.chernoff import hoeffding_sample_count, paper_sample_count
from repro.probability.rng import RngLike, make_rng
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.cache import TransitionCache
    from repro.perf.parallel import ParallelConfig
    from repro.runtime.checkpoint import Checkpoint
    from repro.runtime.context import RunContext

#: Default cap for the adaptive-burn-in heuristic.
DEFAULT_ADAPTIVE_MAX_STEPS = 10_000


def _make_cache(
    kernel,
    cache_size: int | None,
    context: "RunContext | None",
    cache: "TransitionCache | None" = None,
):
    """Build (and attach to the context) an optional TransitionCache.

    An explicit ``cache`` wins over ``cache_size``: it is a pre-built —
    possibly already warm — :class:`~repro.perf.cache.TransitionCache`
    shared across runs (the :class:`~repro.service.EngineSession`
    pattern).  It must have been built on the *same* kernel object;
    mixing kernels would silently mix distributions, so that is checked.

    Imported lazily: :mod:`repro.perf` sits above the evaluators in the
    import graph, exactly like :mod:`repro.runtime`.
    """
    if cache is not None:
        if cache.kernel is not kernel:
            raise EvaluationError(
                "the supplied TransitionCache was built for a different "
                "kernel object; a cache serves exactly one kernel"
            )
        if context is not None:
            context.attach_cache(cache)
        return cache
    if cache_size is None:
        return None
    from repro.perf.cache import TransitionCache

    cache = TransitionCache(kernel, maxsize=cache_size)
    if context is not None:
        context.attach_cache(cache)
    return cache


def computed_burn_in(
    query: ForeverQuery,
    initial: Database,
    mixing_epsilon: float,
    max_states: int,
    context: "RunContext | None" = None,
) -> int:
    """The exact ε-mixing time of the induced chain (requires the chain
    to fit in ``max_states`` and to be ergodic)."""
    chain = build_state_chain(
        query.kernel, initial, max_states=max_states, context=context
    )
    return mixing_time(chain, epsilon=mixing_epsilon, context=context)


def adaptive_burn_in(
    query: ForeverQuery,
    initial: Database,
    rng: RngLike = None,
    walkers: int = 64,
    window: int = 20,
    tolerance: float = 0.02,
    max_steps: int = DEFAULT_ADAPTIVE_MAX_STEPS,
    context: "RunContext | None" = None,
    cache_size: int | None = None,
    cache: "TransitionCache | None" = None,
) -> int:
    """Convergence-detection heuristic for implicit (too large) chains.

    Runs ``walkers`` independent walks in lock-step; at each step the
    fraction of walkers satisfying the event is an estimate of
    Pr(event at step t).  When the last ``window`` estimates all lie
    within ``tolerance`` of their mean, the ensemble is declared mixed
    and the current step count returned.

    This is a heuristic (no TV guarantee): slow modes invisible to the
    event can be missed.  Benchmarks compare it against the exact
    mixing time.  On non-stabilisation the raised
    :class:`~repro.errors.EvaluationError` carries the tail of the
    frequency ``history`` and the walker count in its ``details`` so
    callers (notably the degradation policy) can diagnose slow modes.
    """
    generator = make_rng(rng)
    query.kernel.check_schema(initial)
    cache = _make_cache(query.kernel, cache_size, context, cache)
    draw = query.kernel.sample_transition if cache is None else cache.sample
    tracer = tracer_of(context)
    states = [initial] * walkers
    history: list[float] = []
    with phase_scope(context, "plan", walkers=walkers):
        for step in range(1, max_steps + 1):
            if context is not None:
                context.tick_steps(walkers)
            states = [draw(state, generator) for state in states]
            fraction = sum(query.event.holds(state) for state in states) / walkers
            history.append(fraction)
            if tracer.enabled:
                tracer.event("ensemble-step", step=step, fraction=fraction)
            if len(history) >= window:
                recent = history[-window:]
                centre = sum(recent) / window
                if all(abs(value - centre) <= tolerance for value in recent):
                    return step
    tail = history[-2 * window :]
    raise EvaluationError(
        f"event frequency did not stabilise within {max_steps} steps "
        f"({walkers} walkers; last {len(tail)} frequencies: {tail}); "
        "increase max_steps or tolerance",
        details={
            "walkers": walkers,
            "max_steps": max_steps,
            "window": window,
            "tolerance": tolerance,
            "history_tail": tail,
        },
    )


#: Uniforms one lockstep chunk draws ahead (8 bytes each): a chunk
#: walks at most this many samples times the burn-in.
LOCKSTEP_UNIFORMS = 1 << 16

#: Smaller chunks walk one sample at a time: below this many walkers a
#: lockstep step's fixed array overhead outweighs the steps it batches.
LOCKSTEP_MIN_WALKERS = 8


def _lockstep_chunk(
    remaining: int, burn_in: int, context: "RunContext | None"
) -> int:
    """Samples the next lockstep chunk walks (0: walk the next one alone)."""
    chunk = min(remaining, max(1, LOCKSTEP_UNIFORMS // max(burn_in, 1)))
    if context is not None and burn_in:
        limit = context.budget.max_steps
        if limit is not None:
            # A chunk never outruns the step budget: the walk that trips
            # it runs on its own and stops on the step the budget ends.
            chunk = min(chunk, max(limit - context.steps_used, 0) // burn_in)
    return chunk if chunk >= LOCKSTEP_MIN_WALKERS else 0


def _lockstep(
    cache: "TransitionCache",
    initial: Database,
    generator,
    samples: int,
    burn_in: int,
    context: "RunContext | None",
):
    """Walk ``samples`` walks of ``burn_in`` cached steps in lockstep.

    A cached step consumes exactly one uniform, so drawing the chunk's
    uniforms sample after sample replays the walk-at-a-time stream.
    """
    random = generator.random
    uniforms = np.array([random() for _ in range(samples * burn_in)])
    tick = None if context is None else context.tick_steps
    return cache.walk(initial, uniforms.reshape(samples, burn_in), tick)


def _load_resume(resume: "Checkpoint | str | Path | None") -> "Checkpoint | None":
    if resume is None:
        return None
    from repro.runtime.checkpoint import KIND_FOREVER_MCMC, Checkpoint, load_checkpoint

    checkpoint = resume if isinstance(resume, Checkpoint) else load_checkpoint(resume)
    if checkpoint.kind != KIND_FOREVER_MCMC:
        raise CheckpointError(
            f"checkpoint kind {checkpoint.kind!r} is not a "
            f"{KIND_FOREVER_MCMC!r} checkpoint"
        )
    return checkpoint


def evaluate_forever_mcmc(
    query: ForeverQuery,
    initial: Database,
    epsilon: float = 0.1,
    delta: float = 0.05,
    burn_in: int | None = None,
    samples: int | None = None,
    rng: RngLike = None,
    max_states_for_mixing: int = 5_000,
    use_paper_bound: bool = True,
    context: "RunContext | None" = None,
    checkpoint_path: str | Path | None = None,
    resume: "Checkpoint | str | Path | None" = None,
    cache_size: int | None = None,
    parallel: "ParallelConfig | None" = None,
    cache: "TransitionCache | None" = None,
) -> SamplingResult:
    """The Theorem 5.6 sampler.

    The additive error budget ε is split evenly: the burn-in targets a
    total-variation distance of ε/2 from stationary and the sample count
    targets a Chernoff accuracy of ε/2, so the combined estimate is an
    absolute ε-approximation with confidence 1 − δ.

    Parameters
    ----------
    burn_in:
        Steps per sample before the state is recorded.  When ``None``,
        the exact mixing time t(ε/2) is computed from the explicit chain
        (which must fit in ``max_states_for_mixing`` states and be
        ergodic) — the faithful Theorem 5.6 setting.
    samples:
        Override the planned sample count (ε/δ then recorded as None).
    context:
        Optional :class:`~repro.runtime.RunContext`; each kernel
        application is charged one step, so budgets and cancellation
        interrupt the run with one-transition latency (one lockstep
        step on a cache; a lockstep chunk never outruns a step budget).
    checkpoint_path:
        When set, an interruption (budget, cancellation, or Ctrl-C)
        writes a :class:`~repro.runtime.Checkpoint` here before the
        error propagates; a completed run removes any stale file.
    resume:
        A checkpoint (object or path) from a previous interrupted run.
        The plan (burn-in, sample count, tallies) and the RNG state are
        restored from it, so the resumed run is bit-identical to the
        uninterrupted one; ``epsilon``/``delta``/``samples`` arguments
        are ignored in favour of the checkpointed plan.
    cache_size:
        When set, burn-in steps draw successors from a bounded
        :class:`~repro.perf.cache.TransitionCache` of that size — each
        distinct state's exact row is computed once, then sampling is
        one uniform draw plus a bisection, and all samples of a chunk
        walk in lockstep.  Only for kernels with small per-state
        support (the exact row enumerates all worlds), and
        note the RNG stream differs from the uncached sampler (results
        stay deterministic per ``(seed, cache_size)``; the setting is
        recorded in checkpoints so resumes stay bit-identical).
    parallel:
        A :class:`~repro.perf.parallel.ParallelConfig`.  With
        ``workers=N > 1`` the planned samples are fanned out over a
        process pool with deterministic per-worker seeds derived from
        ``rng`` (seed-stable for fixed N); ``workers=1`` keeps this
        historical sequential path bit-identically.  Budgets are
        pro-rated across workers and cancellation propagates.
        Checkpointing needs the single sequential stream, so a
        configured ``checkpoint_path``/``resume`` disables the pool
        (recorded as a context event).
    cache:
        A pre-built :class:`~repro.perf.cache.TransitionCache` on the
        same kernel, shared — and kept warm — across runs (the
        :class:`~repro.service.EngineSession` pattern); overrides
        ``cache_size``.  The RNG-stream caveat of ``cache_size``
        applies.  A shared cache cannot cross process boundaries: with
        ``parallel`` workers, each worker falls back to a private cache
        of the same capacity.  Do not combine with ``resume`` unless
        the interrupted run was itself cached.

    A lowered query (:func:`repro.kernel.lower`) walks the columnar
    kernel with the same seeded tallies, on workers and through
    checkpoints too: a checkpoint holds the source program's
    fingerprint and externed walker states, so it resumes on either
    kernel.
    """
    from repro.kernel.lowering import lowered, source_database, source_query, state_of
    from repro.runtime.checkpoint import (
        KIND_FOREVER_MCMC,
        Checkpoint,
        legacy_run_fingerprint,
        run_fingerprint,
    )

    generator = make_rng(rng)
    query.kernel.check_schema(initial)
    # Only checkpoint writes and resume checks read the fingerprint, and
    # it serialises the whole database: skip it for every other run.
    fingerprint = None
    if checkpoint_path is not None or resume is not None:
        source = source_query(query)
        run = (source.kernel, source_database(initial), source.event)
        fingerprint = run_fingerprint(*run)

    checkpoint = _load_resume(resume)
    if checkpoint is not None:
        checkpoint.verify_fingerprint(fingerprint, legacy_run_fingerprint(*run))
        burn_in = checkpoint.burn_in
        planned = checkpoint.planned
        recorded_epsilon = checkpoint.epsilon
        recorded_delta = checkpoint.delta
        positive = checkpoint.positive
        start_sample = checkpoint.samples_done
        checkpoint.restore_rng(generator)
        resumed_walker = checkpoint.walker_state()
        if resumed_walker is not None:
            walker_db, walker_steps = resumed_walker
            resumed_walker = state_of(query.kernel, walker_db), walker_steps
        # The cache setting shapes the RNG stream (one draw per cached
        # step); honour whatever the interrupted run used.
        cache_size = checkpoint.meta.get("cache_size", cache_size)
    else:
        if burn_in is None:
            with phase_scope(context, "plan") as scope:
                burn_in = computed_burn_in(
                    query,
                    initial,
                    mixing_epsilon=epsilon / 2.0,
                    max_states=max_states_for_mixing,
                    context=context,
                )
                scope.annotate(burn_in=burn_in)
            sample_epsilon = epsilon / 2.0
        else:
            sample_epsilon = epsilon

        if samples is None:
            planner = paper_sample_count if use_paper_bound else hoeffding_sample_count
            planned = planner(sample_epsilon, delta)
            recorded_epsilon, recorded_delta = epsilon, delta
        else:
            planned = samples
            recorded_epsilon = recorded_delta = None
        positive = 0
        start_sample = 0
        resumed_walker = None

    if parallel is not None and parallel.enabled:
        if checkpoint_path is not None or resume is not None:
            if context is not None:
                context.record_event(
                    "checkpointing requires the single sequential RNG "
                    "stream: ignoring parallel workers"
                )
        elif planned > 1:
            if cache is not None:
                # A shared cache cannot cross the process boundary;
                # workers build private caches of the same capacity.
                cache_size = cache.maxsize
                cache = None
                if context is not None:
                    context.record_event(
                        "shared transition cache cannot cross process "
                        "boundaries: workers use private caches"
                    )
            return _forever_mcmc_parallel(
                query,
                initial,
                planned=planned,
                burn_in=burn_in,
                epsilon=recorded_epsilon,
                delta=recorded_delta,
                generator=generator,
                cache_size=cache_size,
                parallel=parallel,
                context=context,
            )

    cache = _make_cache(query.kernel, cache_size, context, cache)
    draw = query.kernel.sample_transition if cache is None else cache.sample
    if cache is not None:
        # The cached/uncached choice shapes the RNG stream; record the
        # effective capacity so a resumed run replays the same stream.
        cache_size = cache.maxsize

    def snapshot(samples_done: int, walker: dict | None) -> Checkpoint:
        return Checkpoint(
            kind=KIND_FOREVER_MCMC,
            samples_done=samples_done,
            positive=positive,
            planned=planned,
            burn_in=burn_in,
            epsilon=recorded_epsilon,
            delta=recorded_delta,
            rng_state=generator.getstate(),
            walker=walker,
            fingerprint=fingerprint,
            meta={"cache_size": cache_size},
        )

    tracer = tracer_of(context)
    sample_index = start_sample
    state, steps_done = initial, 0
    # (generator state, first sample) of the lockstep chunk in flight,
    # kept only for a checkpoint.
    rewind: tuple | None = None

    def tally(hit: bool) -> None:
        nonlocal positive, sample_index
        positive += hit
        sample_index += 1
        # Chaos hook: lets the fault harness interrupt mid-run on an
        # exact sample boundary (a global read when inactive).
        maybe_fire(SITE_SAMPLER_SAMPLE, sample=sample_index)
        if tracer.enabled:
            tracer.event(
                "sample", index=sample_index, hit=bool(hit), positive=positive,
            )

    try:
        with phase_scope(
            context, "sample", planned=planned, burn_in=burn_in
        ):
            while sample_index < planned:
                chunk = 0
                if cache is not None and resumed_walker is None:
                    chunk = _lockstep_chunk(planned - sample_index, burn_in, context)
                if chunk:
                    if checkpoint_path is not None:
                        rewind = (generator.getstate(), sample_index)
                    states, which = _lockstep(
                        cache, initial, generator, chunk, burn_in, context
                    )
                    hits = [query.event.holds(final) for final in states]
                    for index in which.tolist():
                        tally(hits[index])
                    rewind = None
                    continue
                # One walk at a time: uncached steps draw a varying number
                # of uniforms, a resumed walk is part-way through, a walk
                # the step budget cannot finish must stop on the step where
                # the budget runs out, and a few walks are not worth a chunk.
                state, steps_done = resumed_walker or (initial, 0)
                resumed_walker = None
                while steps_done < burn_in:
                    if context is not None:
                        context.tick_steps()
                    state = draw(state, generator)
                    steps_done += 1
                tally(query.event.holds(state))
    except BaseException:
        if checkpoint_path is not None:
            from repro.io import database_to_json

            walker = None
            if rewind is not None:
                # Replay the chunk's draws up to the first sample not
                # tallied, which is where a walk-at-a-time run would be.
                rng_state, first = rewind
                generator.setstate(rng_state)
                for _ in range((sample_index - first) * burn_in):
                    generator.random()
            elif 0 < steps_done < burn_in:
                walker = {
                    "state": database_to_json(source_database(state)),
                    "steps_done": steps_done,
                }
            snapshot(sample_index, walker).save(checkpoint_path)
        raise

    if checkpoint_path is not None:
        # The run completed; a stale checkpoint must not be resumed.
        Path(checkpoint_path).unlink(missing_ok=True)

    details: dict = {"burn_in": burn_in, "resumed_at": start_sample or None}
    if lowered(query):
        details["backend"] = "columnar"
    if cache is not None:
        details["cache"] = cache.stats()
    return SamplingResult(
        estimate=positive / planned,
        samples=planned,
        positive=positive,
        epsilon=recorded_epsilon,
        delta=recorded_delta,
        method="thm-5.6",
        details=details,
    )


def _forever_mcmc_parallel(
    query: ForeverQuery,
    initial: Database,
    planned: int,
    burn_in: int,
    epsilon: float | None,
    delta: float | None,
    generator,
    cache_size: int | None,
    parallel: "ParallelConfig",
    context: "RunContext | None",
) -> SamplingResult:
    """Fan the planned trials out over a worker pool and merge tallies.

    Per-worker seeds are drawn from ``generator`` in worker order, so a
    fixed (seed, workers) pair is reproducible; shares of the step
    budget are pro-rated so the pool can never outspend the budget a
    sequential run honours.
    """
    from repro.kernel.lowering import lowered
    from repro.perf.parallel import (
        _run_mcmc_trials,
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
            "burn_in": burn_in,
            "seed": seed,
            "cache_size": cache_size,
            "budget": budget,
            # Traced parents ask workers to record spans into a
            # picklable buffer, shipped back and stitched in-trace.
            "profile": profiled,
        }
        for count, seed, budget in zip(counts, seeds, budgets)
        if count > 0
    ]
    with phase_scope(
        context, "sample", planned=planned, burn_in=burn_in, workers=workers
    ):
        tallies = run_worker_pool(_run_mcmc_trials, tasks, parallel, context)
        merged = merge_tallies(tallies)
    details: dict = {"burn_in": burn_in, "resumed_at": None, "workers": workers}
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
        method="thm-5.6",
        details=details,
    )
