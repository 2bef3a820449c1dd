"""Unit tests for the database-state Markov chain builder."""

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
