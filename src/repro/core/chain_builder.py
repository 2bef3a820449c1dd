"""Building the Markov chain over database states (Section 3.1).

A transition kernel Q and an initial database A induce a Markov chain M
whose states are database instances: the paper's semantic object for
non-inflationary queries.  :func:`build_state_chain` materialises the
reachable part of M by breadth-first exploration, evaluating Q exactly
on each discovered state.

The exploration itself is a :class:`Frontier`, shared with the sparse
rung's CSR assembly (:func:`repro.sparse.assemble_sparse_chain`): it
hands up to :data:`BATCH` queued states to one ``expand`` call (the
columnar :class:`~repro.kernel.CompiledKernel` evaluates them in one
array pass; the frozenset interpreter loops over ``transition``) and
processes their rows in queue order, so state order, rows, limits and
trace events are those of a one-state-at-a-time BFS.

The chain can have exponentially many states in the database size
(Proposition 5.4's analysis); ``max_states`` is a hard safety limit and
exceeding it raises :class:`~repro.errors.StateSpaceLimitExceeded` so
callers can fall back to sampling (Theorem 5.6).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Sequence

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

#: Most queued states one ``expand`` call evaluates.
BATCH = 256


class Frontier:
    """Breadth-first exploration from one start state, a batch of queued
    states per ``expand`` call.

    States get dense ids in discovery order (``states[0]`` is the
    start).  :meth:`rows` yields ``(id, row)`` for each expanded state
    in the order a one-state-at-a-time BFS expands them; the caller
    passes each successor of a row to :meth:`discover` before taking
    the next row.  Discovering a state beyond ``max_states`` raises
    ``overflow(frontier)``, an error the caller words.

    ``context`` is polled before each row and charged one state per
    discovery, so a run cancelled in the middle of a batch stops at its
    next row.
    """

    __slots__ = (
        "states", "index_of", "queue", "expanded", "unprocessed",
        "max_states", "context", "overflow",
    )

    def __init__(
        self,
        initial: Hashable,
        max_states: int,
        context: "RunContext | None",
        overflow: Callable[["Frontier"], Exception],
    ):
        self.states: list[Any] = [initial]
        self.index_of: dict[Any, int] = {initial: 0}
        self.queue: deque[int] = deque([0])
        #: Rows yielded so far, the current one included.
        self.expanded = 0
        #: States of the current batch whose rows are not yielded yet.
        self.unprocessed = 0
        self.max_states = max_states
        self.context = context
        self.overflow = overflow
        if context is not None:
            context.tick_states()

    @property
    def waiting(self) -> int:
        """States a one-state-at-a-time BFS would have queued now."""
        return len(self.queue) + self.unprocessed

    def rows(
        self, expand: Callable[[Sequence[Any]], Sequence[Distribution]]
    ) -> Iterator[tuple[int, Distribution]]:
        """``(id, row)`` for every reachable state, in BFS order."""
        queue, states, context = self.queue, self.states, self.context
        while queue:
            sources = [queue.popleft() for _ in range(min(len(queue), BATCH))]
            if context is not None:
                context.check()
            expansion = expand([states[source] for source in sources])
            last = len(sources) - 1
            for position, (source, row) in enumerate(zip(sources, expansion)):
                if position and context is not None:
                    context.check()
                self.unprocessed = last - position
                self.expanded += 1
                yield source, row

    def discover(self, state: Any) -> int:
        """The id of ``state``, queueing it when it is new."""
        index = self.index_of.get(state)
        if index is None:
            states = self.states
            if len(states) >= self.max_states:
                raise self.overflow(self)
            index = self.index_of[state] = len(states)
            states.append(state)
            self.queue.append(index)
            if self.context is not None:
                self.context.tick_states()
        return index


def _overflow(frontier: Frontier) -> StateSpaceLimitExceeded:
    discovered, expanded = len(frontier.states), frontier.expanded
    pending = frontier.waiting + 1
    return StateSpaceLimitExceeded(
        f"state chain exceeds max_states={frontier.max_states} "
        f"({discovered} states discovered, {expanded} expanded, frontier "
        f"size {pending}); raise the limit, use the lumped or sampling "
        "evaluator, or enable degradation (--fallback auto)",
        details={
            "max_states": frontier.max_states,
            "states_discovered": discovered,
            "states_expanded": expanded,
            "frontier_size": pending,
        },
    )


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
    machinery of :mod:`repro.markov`.  Rows are computed a
    :class:`Frontier` batch at a time (``kernel.expand``).

    ``context`` (a :class:`~repro.runtime.RunContext`) makes the
    exploration interruptible: each materialised state is charged
    against the context's budget and the cancellation token is polled
    once per expanded state.  Omitting it keeps the build unbounded
    apart from ``max_states``.

    ``cache`` (a :class:`~repro.perf.cache.TransitionCache` built on
    the *same* kernel, e.g. ``kernel.cached()``) memoizes rows across
    builds: rebuilding a chain — or building it after a sampler warmed
    the cache — skips the algebra evaluation for every remembered
    state, and a batch's missing rows are computed with one
    ``kernel.expand``.  A single BFS visits each state once, so a cold
    cache only helps later calls.

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
    frontier = Frontier(initial, max_states, context, _overflow)
    # Rows key their successors by the chain's own state objects (the
    # first of each discovered), so later lookups match by identity,
    # never by comparing whole databases.
    states, discover = frontier.states, frontier.discover
    transitions: dict[Database, Distribution[Database]] = {}
    for source, row in frontier.rows(kernel.expand if cache is None else cache.expand):
        if tracer.enabled:
            tracer.event(
                "chain-state",
                expanded=frontier.expanded,
                discovered=len(states),
                frontier=frontier.waiting,
                out_degree=len(row),
            )
        transitions[states[source]] = row.map(
            lambda successor: states[discover(successor)]
        )
    return MarkovChain(transitions)


def count_reachable_states(
    kernel: Interpretation,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
) -> int:
    """Number of reachable database states (bounded exploration)."""
    return build_state_chain(kernel, initial, max_states, context=context).size
