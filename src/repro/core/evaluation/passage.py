"""First-passage queries on forever-loops (library extension).

Definition 3.2 asks for the *long-run* probability of the event; two
natural companion questions fall out of the same chain machinery:

* :func:`event_hitting_probability` — will the forever-loop *ever*
  satisfy the event?  (For inflationary queries this coincides with the
  Definition 3.4 fixpoint semantics when the event is monotone, e.g. a
  ``t ∈ R`` test on a growing relation; for non-inflationary queries it
  can differ arbitrarily from the long-run value: a transient event may
  be hit almost surely yet have long-run probability 0.)
* :func:`event_expected_hitting_time` / :func:`event_hitting_time_distribution`
  — how many kernel applications until the event first holds.

Also here: the full exact distributions the scalar evaluators summarise
— :func:`forever_state_distribution` (long-run occupancy over database
states) and :func:`inflationary_fixpoint_distribution` (distribution
over final databases).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.chain_builder import DEFAULT_MAX_STATES, build_state_chain
from repro.core.evaluation.exact_inflationary import inflationary_solution
from repro.core.queries import ForeverQuery, InflationaryQuery
from repro.markov.absorption import long_run_state_distribution
from repro.markov.passage import (
    expected_hitting_time,
    hitting_probability,
    hitting_time_distribution,
)
from repro.probability.distribution import Distribution
from repro.relational.database import Database


def event_hitting_probability(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """Pr[the forever-loop ever reaches a state satisfying the event].

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> event_hitting_probability(query, db)
    Fraction(1, 1)
    """
    chain = build_state_chain(query.kernel, initial, max_states=max_states)
    return hitting_probability(chain, initial, query.event.holds)


def event_expected_hitting_time(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """E[kernel applications until the event first holds]."""
    chain = build_state_chain(query.kernel, initial, max_states=max_states)
    return expected_hitting_time(chain, initial, query.event.holds)


def event_hitting_time_distribution(
    query: ForeverQuery,
    initial: Database,
    horizon: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> Distribution[int]:
    """Exact first-hitting-time distribution, truncated at ``horizon``
    (outcome ``horizon + 1`` = "not hit within the horizon")."""
    chain = build_state_chain(query.kernel, initial, max_states=max_states)
    return hitting_time_distribution(chain, initial, query.event.holds, horizon)


def forever_state_distribution(
    query: ForeverQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
) -> Distribution[Database]:
    """The exact long-run occupancy distribution over database states
    (Definition 3.2's Pr(s) for every s at once; transient states are
    dropped from the support)."""
    chain = build_state_chain(query.kernel, initial, max_states=max_states)
    occupancy = long_run_state_distribution(chain, initial)
    return Distribution(
        {state: mass for state, mass in occupancy.items() if mass > 0},
        normalise=False,
    )


def inflationary_fixpoint_distribution(
    query: InflationaryQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
) -> Distribution[Database]:
    """The exact distribution over fixpoint databases of an inflationary
    query (self-loops renormalised away, as in Proposition 4.4): the
    solution :func:`~repro.core.evaluation.exact_inflationary.evaluate_inflationary_exact`
    reads its answers off.

    pc-tables attached to the kernel are fixed once up front
    (Section 3.2): the returned distribution is the mixture over their
    valuations.

    Examples
    --------
    >>> from repro.workloads import example_36_graph, reachability_query
    >>> query, db = reachability_query(example_36_graph(), "a", "b")
    >>> finals = inflationary_fixpoint_distribution(query, db)
    >>> sorted(float(p) for p in finals.as_floats().values())
    [0.5, 0.5]
    """
    query.kernel.check_schema(initial)
    solution = inflationary_solution(query, initial, max_states=max_states)
    return Distribution(solution.masses, normalise=False)
