"""Forever-query evaluation through state-space lumping (optimization).

Builds the database-state chain, computes the coarsest strong lumping
that respects the query event (and the start state), and evaluates the
long-run probability on the quotient — exactly the same answer as
:func:`~repro.core.evaluation.exact_noninflationary.evaluate_forever_exact`
(ablation A7 asserts this) on a chain that can be much smaller when the
database has symmetries (indistinguishable walkers, automorphic graph
parts).

This addresses the paper's closing future-work item ("generic
optimization techniques for query evaluation") with the classical
chain-level technique.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.chain_builder import DEFAULT_MAX_STATES, build_state_chain
from repro.core.evaluation.results import ExactResult
from repro.core.queries import ForeverQuery
from repro.markov.lumping import lumped_event_probability
from repro.obs.trace import phase_scope
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.cache import TransitionCache
    from repro.runtime.context import RunContext


def evaluate_forever_lumped(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
    cache: "TransitionCache | None" = None,
) -> ExactResult:
    """Exact forever-query result via the event-respecting quotient.

    ``states_explored`` reports the *quotient* size; the full chain is
    still constructed (the saving is in the linear-algebra phase, which
    dominates for large chains — see benchmark A7).  ``cache`` (a
    :class:`~repro.perf.cache.TransitionCache` on the same kernel)
    memoizes transition rows across builds, e.g. across the requests of
    one :class:`~repro.service.EngineSession`.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> evaluate_forever_lumped(query, db).probability
    Fraction(1, 4)
    """
    from repro.kernel.lowering import lowered

    with phase_scope(context, "chain-build") as scope:
        chain = build_state_chain(
            query.kernel, initial, max_states=max_states, context=context,
            cache=cache,
        )
        scope.annotate(states=chain.size)
    if context is not None:
        context.check()
    with phase_scope(context, "solve", states=chain.size) as scope:
        probability, quotient_size = lumped_event_probability(
            chain, initial, query.event.holds
        )
        scope.annotate(quotient_states=quotient_size)
    details = {"full_states": chain.size, "quotient_states": quotient_size}
    if lowered(query):
        details["backend"] = "columnar"
    return ExactResult(
        probability=probability,
        states_explored=quotient_size,
        method="lumped",
        details=details,
    )
