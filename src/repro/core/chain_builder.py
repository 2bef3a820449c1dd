"""Building the Markov chain over database states (Section 3.1).

A transition kernel Q and an initial database A induce a Markov chain M
whose states are database instances: the paper's semantic object for
non-inflationary queries.  :func:`build_state_chain` materialises the
reachable part of M by breadth-first exploration, evaluating Q exactly
on each discovered state.

The chain can have exponentially many states in the database size
(Proposition 5.4's analysis); ``max_states`` is a hard safety limit and
exceeding it raises :class:`~repro.errors.StateSpaceLimitExceeded` so
callers can fall back to sampling (Theorem 5.6).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.interpretation import Interpretation
from repro.errors import EvaluationError, StateSpaceLimitExceeded
from repro.markov.chain import MarkovChain
from repro.obs.trace import tracer_of
from repro.probability.distribution import Distribution
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.perf.cache import TransitionCache
    from repro.runtime.context import RunContext

#: Default cap on the number of database states explored.
DEFAULT_MAX_STATES = 20_000


def build_state_chain(
    kernel: Interpretation,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
    cache: "TransitionCache | None" = None,
) -> MarkovChain[Database]:
    """The reachable Markov chain over database states from ``initial``.

    Every reachable state's transition row is the exact distribution
    Q(state); the result is a closed chain suitable for the exact
    machinery of :mod:`repro.markov`.

    ``context`` (a :class:`~repro.runtime.RunContext`) makes the
    exploration interruptible: each materialised state is charged
    against the context's budget and the cancellation token is polled
    once per expanded state.  Omitting it keeps the build unbounded
    apart from ``max_states``.

    ``cache`` (a :class:`~repro.perf.cache.TransitionCache` built on
    the *same* kernel, e.g. ``kernel.cached()``) memoizes rows across
    builds: rebuilding a chain — or building it after a sampler warmed
    the cache — skips the algebra evaluation for every remembered
    state.  A single BFS visits each state once, so a cold cache only
    helps later calls.

    Examples
    --------
    >>> from repro.relational import Relation, rel, repair_key, project, rename, join
    >>> db = Database({
    ...     "C": Relation(("I",), [("a",)]),
    ...     "E": Relation(("I", "J", "P"), [("a", "b", 1), ("b", "a", 1)]),
    ... })
    >>> walk = rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I")
    >>> chain = build_state_chain(Interpretation({"C": walk}), db)
    >>> chain.size
    2
    """
    kernel.check_schema(initial)
    if cache is not None and cache.kernel is not kernel:
        raise EvaluationError(
            "transition cache was built for a different kernel; "
            "a cache memoizes exactly one kernel's rows"
        )
    tracer = tracer_of(context)
    transitions: dict[Database, Distribution[Database]] = {}
    queue: deque[Database] = deque([initial])
    # Every discovered state, mapped to itself: the one object the chain
    # uses for it, so rows key their successors by the chain's own
    # states and later lookups match by identity, never by comparing
    # whole databases.
    discovered = {initial: initial}
    if context is not None:
        context.tick_states()
    while queue:
        if context is not None:
            context.check()
        state = queue.popleft()
        row = cache.transition(state) if cache is not None else kernel.transition(state)
        transitions[state] = row
        if tracer.enabled:
            tracer.event(
                "chain-state",
                expanded=len(transitions),
                discovered=len(discovered),
                frontier=len(queue),
                out_degree=len(row),
            )
        for successor in row:
            if successor not in discovered:
                if len(discovered) >= max_states:
                    raise StateSpaceLimitExceeded(
                        f"state chain exceeds max_states={max_states} "
                        f"({len(discovered)} states discovered, "
                        f"{len(transitions)} expanded, frontier size "
                        f"{len(queue) + 1}); raise the limit, use the "
                        "lumped or sampling evaluator, or enable "
                        "degradation (--fallback auto)",
                        details={
                            "max_states": max_states,
                            "states_discovered": len(discovered),
                            "states_expanded": len(transitions),
                            "frontier_size": len(queue) + 1,
                        },
                    )
                discovered[successor] = successor
                queue.append(successor)
                if context is not None:
                    context.tick_states()
        transitions[state] = row.map(discovered.__getitem__)
    return MarkovChain(transitions)


def count_reachable_states(
    kernel: Interpretation,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
) -> int:
    """Number of reachable database states (bounded exploration)."""
    return build_state_chain(kernel, initial, max_states, context=context).size
