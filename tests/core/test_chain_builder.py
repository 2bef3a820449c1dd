"""Unit tests for the database-state Markov chain builder."""

from fractions import Fraction

import pytest

from repro.core import Interpretation, build_state_chain, count_reachable_states
from repro.errors import SchemaError, StateSpaceLimitExceeded
from repro.markov import is_irreducible
from repro.relational import (
    Database,
    Relation,
    join,
    project,
    rel,
    rename,
    repair_key,
)


def walk_kernel() -> Interpretation:
    step = rename(
        project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"
    )
    return Interpretation({"C": step})


class TestBuildStateChain:
    def test_states_are_databases(self, walk_db):
        chain = build_state_chain(walk_kernel(), walk_db)
        assert walk_db in chain
        assert chain.size == 3  # one state per walker position

    def test_rows_are_exact_kernel_transitions(self, walk_db):
        kernel = walk_kernel()
        chain = build_state_chain(kernel, walk_db)
        for state in chain.states:
            assert chain.successors(state) == kernel.transition(state)

    def test_closed_chain(self, walk_db):
        chain = build_state_chain(walk_kernel(), walk_db)
        for state in chain.states:
            assert chain.successors(state).support() <= frozenset(chain.states)

    def test_irreducible_walk(self, walk_db):
        assert is_irreducible(build_state_chain(walk_kernel(), walk_db))

    def test_max_states_enforced(self, walk_db):
        with pytest.raises(StateSpaceLimitExceeded):
            build_state_chain(walk_kernel(), walk_db, max_states=1)

    def test_schema_checked(self):
        with pytest.raises(SchemaError):
            build_state_chain(walk_kernel(), Database({"C": Relation(("I",), [])}))

    def test_count_reachable(self, walk_db):
        assert count_reachable_states(walk_kernel(), walk_db) == 3

    def test_deterministic_kernel_single_orbit(self, walk_db):
        identity = Interpretation({"C": rel("C")})
        chain = build_state_chain(identity, walk_db)
        assert chain.size == 1
        assert chain.probability(walk_db, walk_db) == 1


def test_rows_hold_the_chains_own_states(monkeypatch):
    """Successors are the chain's own state objects, so the structural
    analysis and the long-run solve find states by identity."""
    from repro.markov import classify, long_run_state_distribution
    from repro.workloads import complete_graph, random_walk_query

    query, db = random_walk_query(complete_graph(16), "n0", "n1")
    chain = build_state_chain(query.kernel, db)
    assert chain.states[0] is db
    own = {id(state) for state in chain.states}
    for state in chain.states:
        row = chain.successors(state)
        assert all(id(successor) in own for successor in row)
        # Same outcomes in the same order as the kernel's own row.
        assert list(row.items()) == list(query.kernel.transition(state).items())
    calls = 0
    compare = Database.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return compare(self, other)

    monkeypatch.setattr(Database, "__eq__", counted)
    classify(chain)
    occupancy = long_run_state_distribution(chain, db)
    assert calls == 0
    assert sum(occupancy.values()) == 1


# -- the batched build against a one-state-at-a-time BFS ------------------


def _one_at_a_time(kernel, initial, max_states, context=None):
    """The chain builder before batching: one ``transition`` call per
    expanded state.  Returns the states in BFS order and their rows."""
    from collections import deque

    from repro.obs.trace import tracer_of

    tracer = tracer_of(context)
    transitions = {}
    queue = deque([initial])
    discovered = {initial: initial}
    if context is not None:
        context.tick_states()
    while queue:
        if context is not None:
            context.check()
        state = queue.popleft()
        row = kernel.transition(state)
        transitions[state] = row
        if tracer.enabled:
            tracer.event(
                "chain-state", expanded=len(transitions), discovered=len(discovered),
                frontier=len(queue), out_degree=len(row),
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
    return list(transitions), transitions


def _problems():
    from pathlib import Path

    from repro.core import ForeverQuery
    from repro.core.events import parse_event
    from repro.io import load_database
    from repro.relational.parser import parse_interpretation
    from repro.workloads import (
        complete_graph, cycle_graph, grid_graph, pagerank_query, random_walk_query,
    )

    examples = Path(__file__).resolve().parents[2] / "examples" / "programs"
    two_walkers = ForeverQuery(
        parse_interpretation((examples / "two_walkers.ra").read_text()),
        parse_event("C(b) and D(a)"),
    ), load_database(str(examples / "two_walkers.db.json"))
    return {
        "complete": random_walk_query(complete_graph(7), "n0", "n1"),
        # Batches of several states that discover new ones: limits
        # overflow in the middle of a batch.
        "grid": random_walk_query(grid_graph(3, 4), "g0_0", "g2_3"),
        "pagerank": pagerank_query(cycle_graph(9), Fraction(1, 5), "n0", "n2"),
        "two-walkers": two_walkers,
    }


PROBLEMS = _problems()


@pytest.fixture(params=["frozenset", "columnar"])
def on_kernel(request):
    """``(kernel, initial)`` of a problem on the interpreter or lowered."""
    from repro.kernel import lower

    def pair(name):
        query, db = PROBLEMS[name]
        if request.param == "columnar":
            query, db = lower(query, db)
        return query.kernel, db

    return pair


@pytest.fixture(params=[3, 256], ids=["batch3", "batch256"])
def batch(request, monkeypatch):
    import repro.core.chain_builder as chain_builder

    monkeypatch.setattr(chain_builder, "BATCH", request.param)
    return request.param


def _events(context):
    return [
        {k: v for k, v in record.items() if k != "parent"}
        for record in context.tracer.sink.records
        if record.get("name") == "chain-state"
    ]


def _traced():
    from repro.obs import MemorySink, Tracer
    from repro.runtime import RunContext

    return RunContext(tracer=Tracer(MemorySink()))


class TestBatchedBuild:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_states_rows_and_events_match(self, name, on_kernel, batch):
        kernel, db = on_kernel(name)
        context, reference_context = _traced(), _traced()
        chain = build_state_chain(kernel, db, context=context)
        order, rows = _one_at_a_time(kernel, db, 20_000, reference_context)
        assert list(chain.states) == order
        for state in order:
            assert list(chain.successors(state).items()) == list(rows[state].items())
            assert all(
                isinstance(weight, Fraction)
                for _successor, weight in chain.successors(state).items()
            )
        assert _events(context) == _events(reference_context)
        assert len(_events(context)) == chain.size
        assert context.states_used == reference_context.states_used == chain.size

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_limit_details_match(self, name, on_kernel, batch):
        kernel, db = on_kernel(name)
        size = build_state_chain(kernel, db).size
        for limit in (1, 2, 3, size // 2, size - 1):
            with pytest.raises(StateSpaceLimitExceeded) as batched:
                build_state_chain(kernel, db, max_states=limit)
            with pytest.raises(StateSpaceLimitExceeded) as reference:
                _one_at_a_time(kernel, db, limit)
            assert batched.value.details == reference.value.details, limit
            assert str(batched.value) == str(reference.value)
        assert build_state_chain(kernel, db, max_states=size).size == size

    def test_one_expand_call_per_batch(self, on_kernel, batch):
        kernel, db = on_kernel("two-walkers")
        widths = []

        class Counting:
            def check_schema(self, state):
                kernel.check_schema(state)

            def expand(self, states):
                widths.append(len(states))
                return kernel.expand(states)

        chain = build_state_chain(Counting(), db)
        assert sum(widths) == chain.size
        assert max(widths) <= batch
        if batch == 3:
            assert max(widths) == 3

    @pytest.mark.parametrize("stop_after", [1, 2, 4])
    def test_cancellation_within_a_batch_stops_at_the_next_row(
        self, on_kernel, stop_after
    ):
        """A run cancelled while a batch's rows are processed stops
        before the next row, as the one-state-at-a-time build does."""
        from repro.errors import RunCancelledError
        from repro.obs import MemorySink, Tracer
        from repro.runtime import RunContext

        kernel, db = on_kernel("complete")

        def run(build):
            context = None

            class CancellingSink(MemorySink):
                def write(self, record):
                    super().write(record)
                    if record.get("expanded") == stop_after:
                        context.cancel()

            context = RunContext(tracer=Tracer(CancellingSink()))
            with pytest.raises(RunCancelledError):
                build(kernel, db, 20_000, context)
            return _events(context), context.states_used

        batched = run(
            lambda k, d, m, c: build_state_chain(k, d, max_states=m, context=c)
        )
        reference = run(_one_at_a_time)
        assert batched == reference
        assert len(batched[0]) == stop_after
