"""Unit tests for exact forever-query evaluation (Prop 5.4 / Thm 5.5)."""

from fractions import Fraction

import pytest

from repro.core import (
    ForeverQuery,
    Interpretation,
    TupleIn,
    evaluate_forever_exact,
)
from repro.errors import StateSpaceLimitExceeded
from repro.relational import (
    Database,
    Relation,
    join,
    project,
    rel,
    rename,
    repair_key,
)
from repro.workloads import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    random_walk_query,
)
from repro.workloads.graphs import WeightedGraph
from repro.markov import stationary_distribution


class TestIrreducibleCase:
    def test_cycle_uniform(self):
        query, db = random_walk_query(cycle_graph(5), "n0", "n3")
        result = evaluate_forever_exact(query, db)
        assert result.probability == Fraction(1, 5)
        assert result.method == "prop-5.4"
        assert result.details["irreducible"]

    def test_matches_direct_stationary(self):
        graph = erdos_renyi(5, 0.4, rng=8)
        query, db = random_walk_query(graph, "n0", "n2")
        result = evaluate_forever_exact(query, db)
        pi = stationary_distribution(graph.to_markov_chain())
        assert result.probability == pi.probability("n2")

    def test_result_independent_of_start(self):
        graph = erdos_renyi(4, 0.5, rng=2)
        r1 = evaluate_forever_exact(*random_walk_query(graph, "n0", "n3"))
        r2 = evaluate_forever_exact(*random_walk_query(graph, "n1", "n3"))
        assert r1.probability == r2.probability


class TestReducibleCase:
    def _absorbing_db(self):
        # a -> b or c; b, c absorbing.
        return Database(
            {
                "C": Relation(("I",), [("a",)]),
                "E": Relation(
                    ("I", "J", "P"),
                    [("a", "b", 1), ("a", "c", 3), ("b", "b", 1), ("c", "c", 1)],
                ),
            }
        )

    def _walk_query(self, target):
        step = rename(
            project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"
        )
        return ForeverQuery(Interpretation({"C": step}), TupleIn("C", (target,)))

    def test_absorption_weights(self):
        db = self._absorbing_db()
        result_b = evaluate_forever_exact(self._walk_query("b"), db)
        result_c = evaluate_forever_exact(self._walk_query("c"), db)
        assert result_b.probability == Fraction(1, 4)
        assert result_c.probability == Fraction(3, 4)
        assert result_b.method == "thm-5.5"
        assert not result_b.details["irreducible"]

    def test_transient_state_probability_zero(self):
        db = self._absorbing_db()
        result = evaluate_forever_exact(self._walk_query("a"), db)
        assert result.probability == 0

    def test_periodic_leaf_uses_cesaro(self):
        """A 2-cycle leaf: the Definition 3.2 limit is 1/2 per state."""
        db = Database(
            {
                "C": Relation(("I",), [("s",)]),
                "E": Relation(
                    ("I", "J", "P"),
                    [("s", "x", 1), ("x", "y", 1), ("y", "x", 1)],
                ),
            }
        )
        result = evaluate_forever_exact(self._walk_query("x"), db)
        assert result.probability == Fraction(1, 2)


class TestLimits:
    def test_max_states(self):
        query, db = random_walk_query(cycle_graph(6), "n0", "n1")
        with pytest.raises(StateSpaceLimitExceeded):
            evaluate_forever_exact(query, db, max_states=2)

    def test_states_explored_reported(self):
        query, db = random_walk_query(cycle_graph(6), "n0", "n1")
        result = evaluate_forever_exact(query, db)
        assert result.states_explored == 6


def _birth_death_two_leaves():
    """A walk on n0..n4 whose ends absorb: two leaf SCCs, three
    transient states, down-steps twice as likely as up-steps."""
    edges = [("n0", "n0", 1), ("n4", "n4", 1)]
    for i in range(1, 4):
        edges += [(f"n{i}", f"n{i - 1}", 2), (f"n{i}", f"n{i + 1}", 1)]
    nodes = [f"n{i}" for i in range(5)]
    return random_walk_query(WeightedGraph(nodes, edges), "n2", "n0")


class TestOneCondensation:
    """One exact solve condenses its chain once: the absorption solve,
    each leaf's stationary solve and ``classify`` share that pass."""

    @pytest.mark.parametrize(
        "build, probability",
        [
            (lambda: random_walk_query(complete_graph(16), "n0", "n4"), Fraction(1, 16)),
            (lambda: random_walk_query(cycle_graph(64), "n0", "n9"), Fraction(1, 64)),
            # Gambler's ruin from 2 of 4 with r = 2: (r^2 - r^4) / (1 - r^4).
            (_birth_death_two_leaves, Fraction(4, 5)),
        ],
        ids=["complete16", "cycle64", "birth-death-two-leaves"],
    )
    def test_condenses_once(self, monkeypatch, build, probability):
        import repro.markov.analysis as analysis

        calls = []
        tarjan = analysis.tarjan

        def counted(*args, **kwargs):
            calls.append(args)
            return tarjan(*args, **kwargs)

        monkeypatch.setattr(analysis, "tarjan", counted)
        query, db = build()
        result = evaluate_forever_exact(query, db)
        assert result.probability == probability
        assert len(calls) == 1
