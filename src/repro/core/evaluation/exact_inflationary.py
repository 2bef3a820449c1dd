"""Exact evaluation of inflationary queries (Proposition 4.4).

The algorithm traverses the tree of possible computations down to all
fixpoints and computes the exact distribution over the fixpoints
reached; a query's result is that distribution's mass on the fixpoints
where the event holds.  Because the state strictly grows along every
non-trivial step (Definition 3.4), the state graph with self-loops
removed is a finite DAG, so one depth-first pass expands each state
once, and the probability mass then flows forward in reverse
post-order (a topological order of the DAG) — no recursion, however
long the computation.

Self-loops of probability < 1 need care (Example 3.6: a repair-key may
re-choose a tuple that is already present, leaving the state unchanged
without being a fixpoint; such non-terminating paths have probability
tending to zero).  Conditioning on eventually leaving the state — i.e.
renormalising the non-self transition probabilities by 1/(1 − p_self) —
is exact, because on a finite inflationary lattice eventual absorption
into a fixpoint has probability one.

pc-tables attached to the kernel are handled per Section 3.2: the
probabilistic choice of their tuples happens *once*, before iteration —
the evaluator enumerates the valuations (exactly the PSPACE iteration of
the Proposition 4.4 proof), runs the fixpoint pass in each world and
mixes the worlds' fixpoint distributions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, TypeVar

from repro.core.evaluation.results import ExactResult, ExactSolution, SolutionStore
from repro.core.queries import InflationaryQuery
from repro.errors import EvaluationError, StateSpaceLimitExceeded
from repro.obs.trace import phase_scope, tracer_of
from repro.probability.distribution import Distribution, as_fraction
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.context import RunContext

S = TypeVar("S", bound=Hashable)

#: Default cap on the number of distinct computation-tree states.
DEFAULT_MAX_STATES = 100_000


def fixpoint_masses(
    transition: Callable[[S], Distribution[S]],
    initial: S,
    max_states: int = DEFAULT_MAX_STATES,
    check_growth: Callable[[S, S], None] | None = None,
    context: "RunContext | None" = None,
) -> tuple[dict[S, Fraction], int]:
    """The exact distribution over the fixpoints reached from ``initial``.

    Generic over the state type: the datalog engine reuses this with
    its machine states.  ``transition`` must define an absorbing process
    on a finite DAG-up-to-self-loops (which inflationary semantics
    guarantees); ``check_growth(state, successor)`` may raise to enforce
    it.  Returns ``(masses, states_expanded)``: every fixpoint reached,
    in the order it was first reached, with its probability (self-loops
    renormalised away).

    A depth-first pass expands each state once, visiting successors in
    row order; it raises at the first state beyond ``max_states``
    (:class:`~repro.errors.StateSpaceLimitExceeded`), at the first edge
    back into a state still being expanded (a cycle:
    :class:`~repro.errors.EvaluationError`) and wherever
    ``check_growth`` does.  Mass then flows forward from ``initial`` in
    reverse post-order, which lists every state after all its
    predecessors.

    Examples
    --------
    >>> def step(state):
    ...     if state == "s":
    ...         return Distribution({"s": 1, "l": 1, "r": 2})
    ...     return Distribution.point(state)
    >>> masses, states = fixpoint_masses(step, "s")
    >>> masses, states
    ({'l': Fraction(1, 3), 'r': Fraction(2, 3)}, 3)
    """
    # Each expanded state's successors, probabilities renormalised.
    rows: dict[S, list[tuple[S, Fraction]]] = {}
    active: set[S] = set()  # the states on the depth-first stack
    masses: dict[S, Fraction] = {}
    post_order: list[S] = []

    def expand(state: S) -> Iterator[tuple[S, Fraction]]:
        if len(rows) >= max_states:
            raise StateSpaceLimitExceeded(
                f"inflationary computation tree exceeds max_states="
                f"{max_states} ({len(rows)} states memoised)",
                details={"max_states": max_states, "states_memoised": len(rows)},
            )
        rows[state] = []
        active.add(state)
        if context is not None:
            context.tick_states()
        row = transition(state)
        successors = [
            (target, as_fraction(weight))
            for target, weight in row.items()
            if target != state
        ]
        if not successors:
            masses[state] = Fraction(0)
        else:
            if check_growth is not None:
                for target, _weight in successors:
                    check_growth(state, target)
            stay = as_fraction(row.probability(state))
            if stay:
                successors = [(t, weight / (1 - stay)) for t, weight in successors]
            rows[state] = successors
        return iter(successors)

    stack = [(initial, expand(initial))]
    while stack:
        state, pending = stack[-1]
        for target, _weight in pending:
            if target in active:
                raise EvaluationError(
                    "cycle detected in inflationary computation tree — "
                    "the transition kernel is not inflationary"
                )
            if target not in rows:
                stack.append((target, expand(target)))
                break
        else:
            stack.pop()
            active.discard(state)
            post_order.append(state)

    flow: dict[S, Fraction] = {initial: Fraction(1)}
    for state in reversed(post_order):
        mass = flow.pop(state)
        if state in masses:
            masses[state] = mass
        for target, weight in rows[state]:
            flow[target] = flow.get(target, 0) + mass * weight
    return masses, len(rows)


def absorption_event_probability(
    transition: Callable[[S], Distribution[S]],
    event: Callable[[S], bool],
    initial: S,
    max_states: int = DEFAULT_MAX_STATES,
    check_growth: Callable[[S, S], None] | None = None,
    context: "RunContext | None" = None,
) -> tuple[Fraction, int]:
    """Probability that ``event`` holds at the absorbing fixpoint: the
    mass :func:`fixpoint_masses` puts on the fixpoints where it holds.
    Returns ``(probability, states_visited)``."""
    masses, states = fixpoint_masses(
        transition, initial, max_states, check_growth, context
    )
    probability = sum(
        (mass for state, mass in masses.items() if event(state)), Fraction(0)
    )
    return probability, states


def mix_worlds(
    worlds: Iterable[tuple[Any, Any]],
    world_masses: Callable[[Any], tuple[dict, int]],
    context: "RunContext | None" = None,
) -> tuple[dict, int, int]:
    """Mix per-world fixpoint distributions by the worlds' weights.

    Section 3.2: a pc-table's choice is made once, before iteration, so
    the result is the weighted mixture of the fixpoint distributions of
    its possible worlds.  ``worlds`` yields ``(world, weight)`` pairs
    and ``world_masses(world)`` returns ``(masses, states)``.  Returns
    ``(masses, states_explored, world_count)``.
    """
    tracer = tracer_of(context)
    mixture: dict = {}
    total_states = 0
    count = 0
    for world, weight in worlds:
        if context is not None:
            context.check()
        masses, states = world_masses(world)
        weight = as_fraction(weight)
        for state, mass in masses.items():
            mixture[state] = mixture.get(state, 0) + weight * mass
        total_states += states
        count += 1
        if tracer.enabled:
            tracer.event(
                "pc-world", world=count, states=states, weight=float(weight),
            )
    return mixture, total_states, count


def inflationary_solution(
    query: InflationaryQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
) -> ExactSolution:
    """The fixpoint distribution of an inflationary query (Prop 4.4),
    mixed over its pc-table valuations when it has any."""
    kernel = query.kernel
    fixed_kernel = kernel.without_pc_tables()

    def world_masses(world_db: Database) -> tuple[dict, int]:
        return fixpoint_masses(
            fixed_kernel.transition,
            world_db,
            max_states=max_states,
            check_growth=query.check_step,
            context=context,
        )

    pc = kernel.pc_tables
    if pc is None:
        masses, states = world_masses(initial)
        return ExactSolution(masses, states, "prop-4.4", {"pc_worlds": 1})
    names = sorted(pc.tables)
    variable_names = pc.variable_names()

    def world(values: tuple) -> Database:
        valuation = dict(zip(variable_names, values))
        return initial.with_relations(
            {name: pc.tables[name].instantiate(valuation) for name in names}
        )

    worlds = (
        (world(values), weight)
        for values, weight in pc.valuation_distribution().items()
    )
    masses, states, count = mix_worlds(worlds, world_masses, context)
    return ExactSolution(masses, states, "prop-4.4", {"pc_worlds": count})


def evaluate_inflationary_exact(
    query: InflationaryQuery,
    initial: Database,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
    solutions: SolutionStore | None = None,
) -> ExactResult:
    """Exact result of an inflationary query (Proposition 4.4).

    Enumerates the pc-table valuations (when present), then computes
    the fixpoint distribution of each world in one pass.  With
    ``solutions`` (a session's
    :class:`~repro.core.evaluation.results.SolutionStore`) the
    distribution is computed once per kernel and later events are
    answered from it.

    Examples
    --------
    >>> from repro.relational import Relation, rel
    >>> from repro.core.interpretation import Interpretation
    >>> from repro.core.events import TupleIn
    >>> db = Database({"C": Relation(("I",), [("a",)])})
    >>> q = InflationaryQuery(Interpretation({"C": rel("C")}), TupleIn("C", ("a",)))
    >>> evaluate_inflationary_exact(q, db).probability
    Fraction(1, 1)
    """
    kernel = query.kernel
    kernel.check_schema(initial)

    def solve() -> tuple[ExactSolution, ExactResult]:
        with phase_scope(context, "solve") as scope:
            solution = inflationary_solution(query, initial, max_states, context)
            if kernel.pc_tables is not None:
                scope.annotate(pc_worlds=solution.details["pc_worlds"])
            scope.annotate(states=solution.states_explored)
            return solution, solution.answer(query.event.holds)

    if solutions is None:
        return solve()[1]
    return solutions.answer(kernel, query.event.holds, max_states, context, solve)
