"""Absorption analysis: the general case of Theorem 5.5.

A random walk on a finite chain is absorbed, with probability one, into
one of the *leaf* (closed) strongly connected components of the SCC
condensation.  Theorem 5.5 evaluates a non-inflationary query by
(1) computing the probability of reaching each leaf component and
(2) the stationary distribution within each leaf, then combining.

The paper sketches step (1) as a (potentially doubly-exponential)
enumeration of DAG paths; we compute the same quantity exactly with the
standard absorbing-chain linear system, solved over rationals for the
start row of the fundamental matrix,

    Σ_i x_i (I − Q)_ij = [j = start]   for transient j,
    Pr[absorbed into L] = Σ_i x_i · P(i → L),

one right-hand side whatever the number of leaves.  This is a faithful
substitution: it computes exactly the probability mass the path
enumeration sums, in polynomial time in the (already exponential)
chain size.  See DESIGN.md §2 "Substitutions".

:func:`long_run_state_distribution` combines (1) and (2) into the
long-run occupancy of every state; it is the one long-run solve, and an
event's answer is the occupancy mass of the states where it holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Hashable, TypeVar

from repro.errors import MarkovChainError
from repro.markov.analysis import leaf_components
from repro.markov.chain import MarkovChain
from repro.markov.linalg import solve_exact
from repro.markov.stationary import stationary_distribution
from repro.probability.distribution import as_fraction

S = TypeVar("S", bound=Hashable)


def absorption_probabilities(
    chain: MarkovChain[S], start: S, tracer: Any = None
) -> dict[frozenset[S], Fraction]:
    """Exact probability of eventual absorption into each leaf SCC,
    starting from ``start``.

    One transposed system gives every leaf at once: the start row ``x``
    of the fundamental matrix ``N = (I − Q)⁻¹`` solves
    ``(I − Q)ᵀ x = e_start`` (``x_i`` is the expected number of visits
    to transient state ``i``), and the walk enters leaf ``L`` with
    probability ``Σ_i x_i · P(i → L)``.  The probabilities sum to one
    (absorption is almost sure on finite chains).  ``tracer`` forwards
    to :func:`~repro.markov.linalg.solve_exact`.
    """
    leaves = leaf_components(chain)
    leaf_of: dict[S, int] = {}
    for leaf_index, leaf in enumerate(leaves):
        for state in leaf:
            leaf_of[state] = leaf_index

    if start in leaf_of:
        return {
            leaf: Fraction(1) if index == leaf_of[start] else Fraction(0)
            for index, leaf in enumerate(leaves)
        }

    transient = [state for state in chain.states if state not in leaf_of]
    t_index = {state: i for i, state in enumerate(transient)}
    n = len(transient)

    # (I − Q)ᵀ x = e_start, where Q is the transient-to-transient block;
    # the one-step exits from transient i into leaf l are kept aside.
    system = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        system[i][i] = Fraction(1)
    exits: list[tuple[int, int, Fraction]] = []
    for state in transient:
        i = t_index[state]
        for successor, weight in chain.successors(state).items():
            p = as_fraction(weight)
            j = t_index.get(successor)
            if j is not None:
                system[j][i] -= p
            else:
                exits.append((i, leaf_of[successor], p))
    rhs = [[Fraction(0)] for _ in range(n)]
    rhs[t_index[start]][0] = Fraction(1)
    visits = solve_exact(system, rhs, tracer=tracer)
    reach = [Fraction(0)] * len(leaves)
    for i, leaf_index, p in exits:
        reach[leaf_index] += visits[i][0] * p
    total = sum(reach)
    if total != 1:
        raise MarkovChainError(
            f"absorption probabilities sum to {total}, expected 1 — "
            "the chain is not closed"
        )
    return dict(zip(leaves, reach))


def long_run_state_distribution(
    chain: MarkovChain[S], start: S, tracer: Any = None
) -> dict[S, Fraction]:
    """Long-run occupancy Pr(s) per state (Definition 3.2), exactly.

    The one long-run solve of Proposition 5.4 and Theorem 5.5.
    Transient states get probability zero; a state of leaf ``L`` gets
    ``Pr[absorbed into L] · π_L(s)``, where π_L is the stationary (=
    Cesàro) distribution of the sub-chain restricted to the leaf.  The
    values sum to one, and no event enters the solve: an event's
    long-run probability is the mass of the states where it holds.
    ``tracer`` forwards to the exact solves (per-pivot events).
    """
    occupancy: dict[S, Fraction] = {state: Fraction(0) for state in chain.states}
    for leaf, reach in absorption_probabilities(chain, start, tracer).items():
        if reach == 0:
            continue
        pi = stationary_distribution(chain.restricted_to(leaf), tracer=tracer)
        for state, weight in pi.items():
            occupancy[state] = reach * as_fraction(weight)
    return occupancy


def long_run_event_probability(
    chain: MarkovChain[S],
    start: S,
    event: Callable[[S], bool],
    tracer: Any = None,
) -> Fraction:
    """The paper's Definition 3.2 query result, exactly (Theorem 5.5).

    ``Pr(event) = Σ_leaf Pr[absorbed into leaf] · Σ_{s ∈ leaf, event(s)} π_leaf(s)``:
    the mass :func:`long_run_state_distribution` puts on the states
    where the event holds.  Transient states contribute nothing: they
    are visited only finitely often, so their share of the time-average
    in Definition 3.2 vanishes in the limit.
    """
    occupancy = long_run_state_distribution(chain, start, tracer=tracer)
    return sum(
        (mass for state, mass in occupancy.items() if mass and event(state)),
        Fraction(0),
    )


def expected_absorption_time(chain: MarkovChain[S], start: S) -> Fraction:
    """Expected number of steps before entering a leaf SCC from ``start``
    (zero when ``start`` is already recurrent).  Useful for calibrating
    burn-in in the Theorem 5.6 sampler on reducible chains."""
    leaves = leaf_components(chain)
    recurrent = frozenset().union(*leaves) if leaves else frozenset()
    if start in recurrent:
        return Fraction(0)
    transient = [state for state in chain.states if state not in recurrent]
    t_index = {state: i for i, state in enumerate(transient)}
    n = len(transient)
    system = [[Fraction(0)] * n for _ in range(n)]
    rhs = [[Fraction(1)] for _ in range(n)]
    for state in transient:
        i = t_index[state]
        system[i][i] = Fraction(1)
        for successor, weight in chain.successors(state).items():
            if successor in t_index:
                system[i][t_index[successor]] -= as_fraction(weight)
    solution = solve_exact(system, rhs)
    return solution[t_index[start]][0]
