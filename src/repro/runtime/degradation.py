"""Graceful exact → sparse → lumped → MCMC degradation for forever-queries.

Proposition 5.4's chain over database instances can be exponential in
the database size, so exact evaluation over an explicit chain is a bet,
not a guarantee.  Instead of aborting when the bet is lost
(:class:`~repro.errors.StateSpaceLimitExceeded`), a
:class:`DegradationPolicy` steps down a ladder of evaluators:

1. **exact** (:func:`~repro.core.evaluation.evaluate_forever_exact`) —
   the Prop 5.4 / Thm 5.5 answer on the explicit chain;
2. **sparse** (:func:`~repro.sparse.evaluate_forever_sparse`) — the
   chain streamed into CSR form and solved iteratively; every answer
   carries a residual-derived :class:`~repro.sparse.SolveCertificate`
   proving ``|answer - exact| <= sparse_epsilon``, and a solve that
   cannot be certified *refuses*
   (:class:`~repro.errors.SolveRefusedError`) and falls through like a
   state-space overflow.  Granted :data:`SPARSE_STATE_FACTOR` times the
   exact rung's state allowance;
3. **lumped** (:func:`~repro.core.evaluation.evaluate_forever_lumped`)
   — still exact, but granted a larger state allowance because its
   expensive linear-algebra phase runs on the quotient chain
   (:data:`LUMPED_STATE_FACTOR`);
4. **MCMC** (:func:`~repro.core.evaluation.evaluate_forever_mcmc` with
   :func:`~repro.core.evaluation.adaptive_burn_in`) — never
   materialises the chain at all; an (ε, δ) estimate is returned where
   an error used to be raised.

Every downgrade is recorded in the run's
:class:`~repro.runtime.context.RunReport` with the triggering reason,
so the answer's provenance (exact, certified-numeric, or estimated,
and why) is always auditable.  Wall-clock/step budget exhaustion and
cancellation are *not* degraded — a run out of time is out of time for
the fallback too — only state-space overflow and certified-solve
refusal are.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.core.chain_builder import DEFAULT_MAX_STATES
from repro.core.evaluation.exact_noninflationary import evaluate_forever_exact
from repro.core.evaluation.lumped import evaluate_forever_lumped
from repro.core.evaluation.results import ExactResult, SamplingResult
from repro.core.evaluation.sampling_noninflationary import (
    adaptive_burn_in,
    evaluate_forever_mcmc,
)
from repro.core.queries import ForeverQuery
from repro.errors import (
    EvaluationError,
    SolveRefusedError,
    StateSpaceLimitExceeded,
)
from repro.probability.rng import RngLike, make_rng
from repro.relational.database import Database
from repro.runtime.context import RunContext, ensure_context

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.hints import PlanHints
    from repro.perf.cache import TransitionCache
    from repro.perf.parallel import ParallelConfig
    from repro.runtime.checkpoint import Checkpoint
    from repro.sparse import CertifiedResult

#: Multiplier on ``max_states`` granted to the sparse retry; CSR rows
#: cost O(out-degree) floats instead of a dict of Fractions, so a much
#: larger exploration is affordable.
SPARSE_STATE_FACTOR = 25
#: Iteration budget per component solve on the sparse rung.
SPARSE_MAX_ITERATIONS = 50_000
#: Multiplier on ``max_states`` granted to the lumped retry; the full
#: chain is still built there, but its linear algebra runs on the
#: quotient, so a larger exploration is affordable.
LUMPED_STATE_FACTOR = 4
#: Tolerance of the MCMC rung's adaptive burn-in, looser than
#: :func:`adaptive_burn_in`'s own default because its ensemble of 64
#: walkers quantises the event frequency in steps of 1/64: a tolerance
#: below the sampling noise would spin to the step cap and abort the
#: last rung of the ladder.
ADAPTIVE_TOLERANCE = 0.1

#: The degradation ladder per mode.
_LADDERS = {
    "none": ("exact",),
    "sparse": ("exact", "sparse"),
    "lumped": ("exact", "lumped"),
    "mcmc": ("exact", "mcmc"),
    "auto": ("exact", "sparse", "lumped", "mcmc"),
}


@dataclass(frozen=True)
class DegradationPolicy:
    """What to do when exact evaluation trips the state budget.

    Attributes
    ----------
    mode:
        ``"none"`` (raise, the legacy behaviour), ``"sparse"``,
        ``"lumped"``, ``"mcmc"``, or ``"auto"`` (sparse, then lumped,
        then MCMC).
    sparse_epsilon:
        Certified accuracy contract for the sparse rung.  An answer
        the solver cannot *prove* is within ``sparse_epsilon`` of the
        exact rational is refused and the ladder continues.
    mcmc_epsilon / mcmc_delta / mcmc_samples:
        Accuracy plan for the MCMC rung (``mcmc_samples`` overrides the
        (ε, δ) plan when set).
    mcmc_burn_in:
        Fixed burn-in for the MCMC rung; ``None`` estimates it with
        :func:`~repro.core.evaluation.adaptive_burn_in` (the explicit
        chain is unavailable by construction when this rung is
        reached).
    mcmc_workers:
        Worker processes for the MCMC rung's trials (``1`` keeps the
        historical sequential sampler bit-identically; ``N > 1`` is
        seed-stable for fixed N — see
        :class:`~repro.perf.parallel.ParallelConfig`).
    mcmc_cache_size:
        When set, the MCMC rung (both the adaptive burn-in ensemble
        and the sampler walks) draws successors from a bounded
        :class:`~repro.perf.cache.TransitionCache` of this size.
    """

    mode: str = "auto"
    sparse_epsilon: float = 1e-6
    mcmc_epsilon: float = 0.1
    mcmc_delta: float = 0.05
    mcmc_samples: int | None = None
    mcmc_burn_in: int | None = None
    mcmc_workers: int = 1
    mcmc_cache_size: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in _LADDERS:
            raise EvaluationError(
                f"unknown degradation mode {self.mode!r}; "
                f"expected one of {sorted(_LADDERS)}"
            )
        if self.sparse_epsilon <= 0:
            raise EvaluationError("sparse_epsilon must be > 0")
        if self.mcmc_workers < 1:
            raise EvaluationError("mcmc_workers must be >= 1")
        if self.mcmc_cache_size is not None and self.mcmc_cache_size < 1:
            raise EvaluationError("mcmc_cache_size must be >= 1")

    @property
    def ladder(self) -> tuple[str, ...]:
        return _LADDERS[self.mode]

    def parallel_config(self) -> "ParallelConfig | None":
        """The MCMC rung's pool configuration (``None`` when serial)."""
        if self.mcmc_workers <= 1:
            return None
        from repro.perf.parallel import ParallelConfig

        return ParallelConfig(workers=self.mcmc_workers)


def evaluate_forever_resilient(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    policy: DegradationPolicy | None = None,
    context: RunContext | None = None,
    rng: RngLike = None,
    checkpoint_path: "str | Path | None" = None,
    resume: "Checkpoint | str | Path | None" = None,
    cache: "TransitionCache | None" = None,
    hints: "PlanHints | None" = None,
    backend: str | None = None,
    prefer_sparse: bool = False,
) -> Union[ExactResult, "CertifiedResult", SamplingResult]:
    """Evaluate a forever-query, degrading instead of aborting.

    Runs the policy's ladder top-down; a
    :class:`~repro.errors.StateSpaceLimitExceeded` or
    :class:`~repro.errors.SolveRefusedError` from one rung moves to
    the next and is recorded via
    :meth:`RunContext.record_downgrade`.  Budget exhaustion and
    cancellation propagate unchanged from any rung.  Returns whichever
    result type the successful rung produces (:class:`ExactResult` for
    exact/lumped, :class:`~repro.sparse.CertifiedResult` for sparse,
    :class:`SamplingResult` for MCMC).

    ``prefer_sparse`` moves the sparse certified rung to the front of
    the ladder (inserting it if the mode's ladder lacks it) — the
    ``backend="sparse"`` request surface: answer numerically with a
    certificate first, keep the remaining rungs as fallbacks.

    ``checkpoint_path`` / ``resume`` apply to the MCMC rung (the only
    long-running sampler on the ladder).  Resuming from a checkpoint
    jumps straight to that rung.

    ``cache`` is an optional pre-built — possibly warm —
    :class:`~repro.perf.cache.TransitionCache` on the query's kernel,
    shared by every rung: the exact and lumped chain builds draw
    memoized rows from it, and (when no checkpointing is configured)
    the MCMC rung walks on it too.  This is how a long-lived
    :class:`~repro.service.EngineSession` makes repeated queries on the
    same program cheap; it overrides the policy's ``mcmc_cache_size``.

    ``hints`` are the static analyzer's
    :class:`~repro.analysis.hints.PlanHints` for the query's kernel.  A
    kernel the analyzer proved deterministic (``PH001``) induces a
    one-state-per-step chain, so every rung below exact could only
    re-estimate a number the exact rung computes outright; the ladder
    collapses to ``("exact",)`` and the shortcut is recorded in the run
    report.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> context = RunContext()
    >>> result = evaluate_forever_resilient(
    ...     query, db, max_states=3,
    ...     policy=DegradationPolicy(mode="lumped"), context=context)
    >>> result.probability
    Fraction(1, 4)
    >>> [d.from_method for d in context.report().downgrades]
    ['exact']
    """
    policy = policy if policy is not None else DegradationPolicy()
    context = ensure_context(context)
    generator = make_rng(rng)

    ladder = list(policy.ladder)
    if prefer_sparse:
        ladder = ["sparse"] + [rung for rung in ladder if rung != "sparse"]
    if hints is not None and hints.deterministic and len(ladder) > 1:
        # PH001: no repair-key choice anywhere in the kernel — the chain
        # is a deterministic trajectory; sampling rungs cannot help.
        context.record_event(
            "plan hint PH001 (deterministic kernel): using the exact rung only"
        )
        ladder = ["exact"]
    if (
        "sparse" in ladder
        and len(ladder) > 1
        and hints is not None
        and getattr(hints, "sparse_eligible", None) is False
    ):
        # PH006: the analyzer ruled the program out for the certified
        # numeric rung; skip it instead of failing into it at runtime.
        context.record_event(
            "plan hint PH006 (not sparse-eligible): dropping the sparse rung"
        )
        ladder = [rung for rung in ladder if rung != "sparse"]
    if resume is not None and "mcmc" in ladder:
        # The checkpoint proves the exact rungs already overflowed (or
        # the caller decided for MCMC); do not rebuild the chain.
        context.record_event("resuming from checkpoint: skipping to MCMC rung")
        ladder = ["mcmc"]

    last_error: Union[StateSpaceLimitExceeded, SolveRefusedError, None] = None
    for position, rung in enumerate(ladder):
        on_last_rung = position == len(ladder) - 1
        try:
            if rung == "exact":
                result: Union[
                    ExactResult, "CertifiedResult", SamplingResult
                ] = evaluate_forever_exact(
                    query, initial, max_states=max_states, context=context,
                    cache=cache, backend=backend,
                )
            elif rung == "sparse":
                from repro.sparse import evaluate_forever_sparse

                result = evaluate_forever_sparse(
                    query,
                    initial,
                    epsilon=policy.sparse_epsilon,
                    max_states=max_states * SPARSE_STATE_FACTOR,
                    max_iterations=SPARSE_MAX_ITERATIONS,
                    context=context,
                    backend=backend,
                )
            elif rung == "lumped":
                result = evaluate_forever_lumped(
                    query,
                    initial,
                    max_states=max_states * LUMPED_STATE_FACTOR,
                    context=context,
                    cache=cache,
                    backend=backend,
                )
            else:
                burn_in = policy.mcmc_burn_in
                if burn_in is None and resume is None:
                    burn_in = adaptive_burn_in(
                        query,
                        initial,
                        rng=generator,
                        tolerance=ADAPTIVE_TOLERANCE,
                        context=context,
                        cache_size=policy.mcmc_cache_size,
                        cache=cache,
                        backend=backend,
                    )
                    context.record_event(f"adaptive burn-in estimated: {burn_in}")
                result = evaluate_forever_mcmc(
                    query,
                    initial,
                    epsilon=policy.mcmc_epsilon,
                    delta=policy.mcmc_delta,
                    burn_in=burn_in,
                    samples=policy.mcmc_samples,
                    rng=generator,
                    context=context,
                    checkpoint_path=checkpoint_path,
                    resume=resume,
                    cache_size=policy.mcmc_cache_size,
                    parallel=policy.parallel_config(),
                    cache=cache if checkpoint_path is None and resume is None else None,
                    backend=backend,
                )
        except (StateSpaceLimitExceeded, SolveRefusedError) as error:
            if on_last_rung:
                raise
            last_error = error
            context.record_downgrade(rung, ladder[position + 1], str(error))
            continue
        context.finish(method=result.method)
        return result

    raise last_error if last_error is not None else EvaluationError(
        "degradation ladder is empty"
    )  # pragma: no cover - ladder always has >= 1 rung
