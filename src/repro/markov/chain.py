"""Finite Markov chains over arbitrary hashable states.

Section 2.3 of the paper.  A :class:`MarkovChain` is a finite state set
with one outgoing :class:`~repro.probability.distribution.Distribution`
per state.  States may be anything hashable — in this library they are
usually whole :class:`~repro.relational.database.Database` snapshots
(the chain over database instances induced by a non-inflationary query,
Section 3.1).

Transition probabilities are kept exact (Fractions) when constructed
from exact distributions; :meth:`MarkovChain.transition_matrix` exports
a float numpy matrix for the numeric algorithms (mixing time, spectral
analysis).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from repro.errors import MarkovChainError
from repro.probability.distribution import Distribution

S = TypeVar("S", bound=Hashable)


class MarkovChain(Generic[S]):
    """A finite Markov chain given by per-state transition distributions.

    Parameters
    ----------
    transitions:
        Mapping from each state to the distribution of its successor.
        Every successor must itself be a key of the mapping (the chain
        must be closed).

    Examples
    --------
    >>> from fractions import Fraction
    >>> chain = MarkovChain({
    ...     "a": Distribution({"a": Fraction(1, 2), "b": Fraction(1, 2)}),
    ...     "b": Distribution({"a": Fraction(1)}),
    ... })
    >>> chain.size
    2
    """

    def __init__(self, transitions: Mapping[S, Distribution[S]]):
        if not transitions:
            raise MarkovChainError("a Markov chain needs at least one state")
        self._states: tuple[S, ...] = tuple(transitions.keys())
        self._index: dict[S, int] = {s: i for i, s in enumerate(self._states)}
        if len(self._index) != len(self._states):
            raise MarkovChainError("duplicate states in transition mapping")
        self._rows: tuple[Distribution[S], ...] = tuple(
            transitions[s] for s in self._states
        )
        for state, row in zip(self._states, self._rows):
            for successor in row:
                if successor not in self._index:
                    raise MarkovChainError(
                        f"state {state!r} transitions to unknown state {successor!r}"
                    )
        # The chain is immutable, so its SCC pass is computed once
        # (repro.markov.analysis) and kept here.
        self._components: "list[tuple[frozenset[S], bool]] | None" = None

    # -- basic accessors -----------------------------------------------------

    @property
    def states(self) -> tuple[S, ...]:
        """All states, in construction order."""
        return self._states

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self._states)

    def index_of(self, state: S) -> int:
        """Integer index of a state (raises for unknown states)."""
        try:
            return self._index[state]
        except KeyError:
            raise MarkovChainError(f"unknown state {state!r}") from None

    def __contains__(self, state: S) -> bool:
        return state in self._index

    def successors(self, state: S) -> Distribution[S]:
        """The transition distribution out of ``state``."""
        return self._rows[self.index_of(state)]

    def probability(self, source: S, target: S) -> Fraction | float:
        """One-step transition probability P(source → target)."""
        return self.successors(source).probability(target)

    def edges(self) -> Iterator[tuple[S, S, Fraction | float]]:
        """All positive-probability transitions as (source, target, p)."""
        for state, row in zip(self._states, self._rows):
            for successor, weight in row.items():
                yield state, successor, weight

    def __repr__(self) -> str:
        return f"MarkovChain({self.size} states)"

    # -- numeric export --------------------------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """The row-stochastic transition matrix as float64, with
        ``matrix[i, j] = P(states[i] → states[j])``."""
        matrix = np.zeros((self.size, self.size))
        for state, successor, weight in self.edges():
            matrix[self._index[state], self._index[successor]] = float(weight)
        return matrix

    def exact_matrix(self) -> list[list[Fraction]]:
        """The transition matrix with exact Fraction entries."""
        from repro.probability.distribution import as_fraction

        matrix = [[Fraction(0)] * self.size for _ in range(self.size)]
        for state, successor, weight in self.edges():
            matrix[self._index[state]][self._index[successor]] = as_fraction(weight)
        return matrix

    # -- evolution ----------------------------------------------------------------

    def step_distribution(self, current: Distribution[S]) -> Distribution[S]:
        """One exact step: the distribution after one transition from
        ``current``."""
        return current.bind(self.successors)

    def distribution_after(self, start: S, steps: int) -> Distribution[S]:
        """Exact state distribution after ``steps`` transitions from
        ``start``.  Exponential-size intermediate distributions are
        possible; use the float matrix powers of
        :mod:`repro.markov.mixing` for larger chains."""
        current = Distribution.point(start)
        for _ in range(steps):
            current = self.step_distribution(current)
        return current

    def walk(self, start: S, steps: int, rng: random.Random) -> Iterator[S]:
        """A random walk: yields ``steps`` successive states after
        ``start`` (the start state itself is not yielded)."""
        state = start
        if state not in self._index:
            raise MarkovChainError(f"unknown start state {state!r}")
        for _ in range(steps):
            state = self.successors(state).sample(rng)
            yield state

    # -- transforms ------------------------------------------------------------

    def restricted_to(self, states: Iterable[S]) -> "MarkovChain[S]":
        """The sub-chain on a closed subset of states.

        Raises :class:`MarkovChainError` if any kept state can leave the
        subset (the subset must be closed under transitions) — used to
        extract leaf strongly-connected components in Theorem 5.5.
        """
        keep = set(states)
        transitions: dict[S, Distribution[S]] = {}
        for state in self._states:
            if state not in keep:
                continue
            row = self.successors(state)
            if not row.support() <= keep:
                raise MarkovChainError(
                    f"state {state!r} has transitions leaving the subset"
                )
            transitions[state] = row
        if keep - set(transitions):
            raise MarkovChainError(f"unknown states {keep - set(transitions)!r}")
        sub = MarkovChain(transitions)
        if self._components is not None:
            # A closed subset is a union of whole SCCs, each as closed
            # as before: the sub-chain inherits its share of the pass.
            sub._components = [
                (component, closed)
                for component, closed in self._components
                if next(iter(component)) in keep
            ]
        return sub

    def relabelled(self, label: Callable[[S], Hashable]) -> "MarkovChain":
        """A chain with states renamed by an *injective* labelling."""
        mapping = {s: label(s) for s in self._states}
        if len(set(mapping.values())) != len(mapping):
            raise MarkovChainError("relabelling is not injective")
        return MarkovChain(
            {
                mapping[s]: self.successors(s).map(lambda t: mapping[t])
                for s in self._states
            }
        )


def chain_from_edges(
    edges: Iterable[tuple[S, S, Fraction | float | int]],
) -> MarkovChain[S]:
    """Build a chain from weighted edges; per-state weights are
    normalised to one (so plain counts work as weights).

    Examples
    --------
    >>> chain = chain_from_edges([("a", "b", 1), ("a", "c", 1), ("b", "a", 1), ("c", "a", 1)])
    >>> chain.probability("a", "b")
    Fraction(1, 2)
    """
    outgoing: dict[S, dict[S, Fraction | float | int]] = {}
    seen: set[S] = set()
    for source, target, weight in edges:
        outgoing.setdefault(source, {})
        bucket = outgoing[source]
        bucket[target] = bucket.get(target, 0) + weight
        seen.add(source)
        seen.add(target)
    missing = seen - set(outgoing)
    if missing:
        raise MarkovChainError(
            f"states {sorted(map(repr, missing))} have no outgoing transitions; "
            "add self-loops to make them absorbing"
        )
    return MarkovChain({s: Distribution(w) for s, w in outgoing.items()})
