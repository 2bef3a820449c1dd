"""Exact evaluation of non-inflationary queries (Prop 5.4 / Thm 5.5).

The kernel and the initial database induce a finite Markov chain over
database states (Section 3.1).  This evaluator materialises the
reachable chain exactly, then:

* if the chain is irreducible (hence, being finite, positively
  recurrent), computes the unique stationary distribution by exact
  Gaussian elimination — Proposition 5.4;
* otherwise computes the SCC condensation, the exact absorption
  probability of each leaf component, and the per-leaf stationary
  distribution — Theorem 5.5 (see :mod:`repro.markov.absorption` for
  the path-enumeration → linear-system substitution note).

Both are :func:`~repro.markov.absorption.long_run_state_distribution`,
which no event enters; the returned probability, the occupancy mass of
the event states, is the paper's Definition 3.2 Cesàro limit exactly,
periodic chains included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.chain_builder import DEFAULT_MAX_STATES, build_state_chain
from repro.core.evaluation.results import ExactResult, ExactSolution, SolutionStore
from repro.core.queries import ForeverQuery
from repro.markov.absorption import long_run_state_distribution
from repro.markov.analysis import classify
from repro.obs.trace import phase_scope, tracer_of
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.cache import TransitionCache
    from repro.runtime.context import RunContext


def evaluate_forever_exact(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
    cache: "TransitionCache | None" = None,
    backend: str | None = None,
    solutions: SolutionStore | None = None,
) -> ExactResult:
    """Exact result of a forever-query.

    ``backend="columnar"`` builds the chain over interned columnar
    states (see :mod:`repro.core.evaluation.backend`); the probability
    is an exact :class:`~fractions.Fraction` either way and identical
    between backends.

    Raises :class:`~repro.errors.StateSpaceLimitExceeded` when the
    reachable chain outgrows ``max_states`` (it can be exponential in
    the database size); fall back to
    :func:`repro.core.evaluation.sampling_noninflationary.evaluate_forever_mcmc`
    in that case.

    ``cache`` (a :class:`~repro.perf.cache.TransitionCache` built on
    the same kernel) memoizes transition rows across chain builds, so a
    warm cache — e.g. the one a long-lived
    :class:`~repro.service.EngineSession` keeps — skips the algebra
    evaluation for every remembered state.  ``solutions`` (a session's
    :class:`~repro.core.evaluation.results.SolutionStore`) goes further:
    the long-run distribution is solved once per kernel, and later
    events are answered from it without building the chain.

    Examples
    --------
    >>> from repro.relational import Relation, rel, repair_key, project, rename, join
    >>> from repro.core.interpretation import Interpretation
    >>> from repro.core.events import TupleIn
    >>> db = Database({
    ...     "C": Relation(("I",), [("a",)]),
    ...     "E": Relation(("I", "J", "P"), [("a", "b", 1), ("b", "a", 1)]),
    ... })
    >>> walk = rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I")
    >>> q = ForeverQuery(Interpretation({"C": walk}), TupleIn("C", ("b",)))
    >>> evaluate_forever_exact(q, db).probability
    Fraction(1, 2)
    """
    from repro.core.evaluation.backend import resolve_backend

    query, initial, effective_backend = resolve_backend(
        query, initial, backend, context=context, cache=cache
    )
    tracer = tracer_of(context)

    def solve() -> tuple[ExactSolution, ExactResult]:
        with phase_scope(context, "chain-build") as scope:
            chain = build_state_chain(
                query.kernel, initial, max_states=max_states, context=context,
                cache=cache,
            )
            scope.annotate(states=chain.size)
        if context is not None:
            context.check()
        with phase_scope(context, "solve", states=chain.size):
            occupancy = long_run_state_distribution(chain, initial, tracer=tracer)
            structure = classify(chain)
            if effective_backend != "frozenset":
                structure = {**structure, "backend": effective_backend}
            solution = ExactSolution(
                masses={state: mass for state, mass in occupancy.items() if mass},
                states_explored=chain.size,
                method="prop-5.4" if structure["irreducible"] else "thm-5.5",
                details=structure,
            )
            return solution, solution.answer(query.event.holds)

    if solutions is None:
        return solve()[1]
    return solutions.answer(
        query.kernel, query.event.holds, max_states, context, solve
    )
