"""Structural analysis of finite Markov chains.

Implements the chain properties of Section 2.3: irreducibility, state
periods and aperiodicity, positive recurrence, ergodicity, and the DAG
of strongly connected components used by Theorem 5.5.  For a *finite*
chain, irreducibility implies positive recurrence, and the recurrent
states are exactly those in the *leaf* (closed) SCCs of the condensation
— facts this module relies on and its docstrings record.
"""

from __future__ import annotations

from math import gcd
from typing import Hashable, Sequence, TypeVar

from repro.errors import MarkovChainError
from repro.markov.chain import MarkovChain

S = TypeVar("S", bound=Hashable)


def tarjan(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """The strongly connected components of the graph on ``0 .. n-1``
    whose node ``i`` has edges to ``successors[i]``.

    Tarjan's algorithm, iterative so deep chains cannot overflow the
    recursion limit.  Roots are tried in id order and each node's
    successors from the last.  A component is emitted only after every
    component it reaches, so the list reversed is a topological order
    of the condensation.
    """
    count = len(successors)
    index = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, list(successors[root]))]
        while work:
            node, pending = work[-1]
            advanced = False
            while pending:
                successor = pending.pop()
                if index[successor] < 0:
                    index[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, list(successors[successor])))
                    advanced = True
                    break
                if on_stack[successor]:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _components(chain: MarkovChain[S]) -> list[tuple[frozenset[S], bool]]:
    """Every SCC with whether it is closed (a leaf of the condensation),
    in a topological order of the condensation, from the chain's one
    SCC pass (kept on the chain, and inherited by its closed
    restrictions)."""
    if chain._components is None:
        states = chain.states
        successors = [
            [chain.index_of(successor) for successor in chain.successors(state)]
            for state in states
        ]
        components = tarjan(successors)[::-1]
        component_of = [0] * len(states)
        for number, component in enumerate(components):
            for node in component:
                component_of[node] = number
        chain._components = [
            (
                frozenset(states[node] for node in component),
                # Closed: no edge leaves the component.
                all(
                    component_of[successor] == number
                    for node in component
                    for successor in successors[node]
                ),
            )
            for number, component in enumerate(components)
        ]
    return chain._components


def strongly_connected_components(chain: MarkovChain[S]) -> list[frozenset[S]]:
    """All SCCs, in a topological order of the condensation (sources
    first, leaves last)."""
    return [component for component, _ in _components(chain)]


def leaf_components(chain: MarkovChain[S]) -> list[frozenset[S]]:
    """The *closed* (leaf) SCCs: components with no transition leaving
    them.  A random walk is absorbed into one of these with probability
    one (Theorem 5.5)."""
    return [component for component, closed in _components(chain) if closed]


def is_irreducible(chain: MarkovChain[S]) -> bool:
    """True when every state reaches every other state (one SCC)."""
    return len(strongly_connected_components(chain)) == 1


def period_of_component(chain: MarkovChain[S], component: frozenset[S]) -> int:
    """The common period of the states of one SCC.

    Uses the standard BFS-level argument: fix a root, compute BFS levels
    within the component; the period is the gcd of
    ``level(u) + 1 − level(v)`` over all intra-component edges u→v.
    Singleton components without a self-loop have no cycles; the period
    is undefined and this function raises.
    """
    component_list = sorted(component, key=repr)
    root = component_list[0]
    if len(component) == 1:
        if chain.probability(root, root) > 0:
            return 1
        raise MarkovChainError(
            f"state {root!r} is transient (no return path); period undefined"
        )
    level: dict[S, int] = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for state in frontier:
            for successor in chain.successors(state):
                if successor in component and successor not in level:
                    level[successor] = level[state] + 1
                    nxt.append(successor)
        frontier = nxt
    period = 0
    for state in component:
        for successor in chain.successors(state):
            if successor in component:
                period = gcd(period, level[state] + 1 - level[successor])
    return abs(period)


def period(chain: MarkovChain[S], state: S) -> int:
    """The period of one state: gcd of the lengths of all return paths."""
    for component in strongly_connected_components(chain):
        if state in component:
            return period_of_component(chain, component)
    raise MarkovChainError(f"unknown state {state!r}")


def _aperiodic(chain: MarkovChain[S], leaves: list[frozenset[S]]) -> bool:
    return all(period_of_component(chain, component) == 1 for component in leaves)


def _positively_recurrent(chain: MarkovChain[S], leaves: list[frozenset[S]]) -> bool:
    covered = frozenset().union(*leaves) if leaves else frozenset()
    return covered == frozenset(chain.states)


def is_aperiodic(chain: MarkovChain[S]) -> bool:
    """True when every recurrent state has period 1.

    Transient states (outside every leaf SCC) never recur, so their
    period is irrelevant to long-run behaviour; for irreducible chains
    this reduces to the usual definition.
    """
    return _aperiodic(chain, leaf_components(chain))


def is_positively_recurrent(chain: MarkovChain[S]) -> bool:
    """True when *all* states are positively recurrent.

    In a finite chain, a state is positively recurrent iff it lies in a
    closed (leaf) SCC, so this holds iff every SCC is closed.
    """
    return _positively_recurrent(chain, leaf_components(chain))


def is_ergodic(chain: MarkovChain[S]) -> bool:
    """Ergodic = aperiodic and positively recurrent (Section 2.3).

    Together with irreducibility this is the hypothesis of the MCMC
    sampling algorithm (Theorem 5.6).  Note the paper's definition of
    ergodic does not itself require irreducibility, but the stationary
    distribution is unique only for irreducible chains; callers that
    need uniqueness should check :func:`is_irreducible` as well.
    """
    leaves = leaf_components(chain)
    return _aperiodic(chain, leaves) and _positively_recurrent(chain, leaves)


def is_absorbing_state(chain: MarkovChain[S], state: S) -> bool:
    """True when the state transitions to itself with probability 1."""
    row = chain.successors(state)
    return row.support() == frozenset({state})


def reachable_states(chain: MarkovChain[S], start: S) -> frozenset[S]:
    """States reachable from ``start`` (including itself)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for successor in chain.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return frozenset(seen)


def classify(chain: MarkovChain[S]) -> dict[str, object]:
    """A structural summary used by diagnostics and benchmark output
    (from the chain's one SCC pass)."""
    components = _components(chain)
    leaves = [component for component, closed in components if closed]
    aperiodic = _aperiodic(chain, leaves)
    recurrent = _positively_recurrent(chain, leaves)
    return {
        "states": chain.size,
        "sccs": len(components),
        "leaf_sccs": len(leaves),
        "irreducible": len(components) == 1,
        "aperiodic": aperiodic,
        "positively_recurrent": recurrent,
        "ergodic": aperiodic and recurrent,
    }
