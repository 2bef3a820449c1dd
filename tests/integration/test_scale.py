"""Medium-scale smoke tests: the library on larger-than-toy instances.

These guard against accidental quadratic/exponential blowups in the
polynomial code paths: the samplers must handle hundred-node databases
and thousand-state chains comfortably.
"""

from fractions import Fraction

import pytest

from repro.core import (
    ForeverQuery,
    Interpretation,
    TupleIn,
    build_state_chain,
    evaluate_inflationary_sampling,
)
from repro.datalog import evaluate_datalog_sampling, parse_program
from repro.markov import (
    is_irreducible,
    mixing_time,
    stationary_distribution_float,
)
from repro.relational import Database, Relation, join, project, rel, rename, repair_key
from repro.sparse import evaluate_forever_sparse
from repro.workloads import (
    cycle_graph,
    erdos_renyi,
    grid_graph,
    layered_dag,
    random_ergodic_chain,
    reachability_query,
)


class TestSamplerScale:
    def test_reachability_sampling_on_100_node_dag(self):
        graph = layered_dag(10, 10, rng=1)  # 101 nodes
        query, db = reachability_query(graph, "v0_0", "sink")
        result = evaluate_inflationary_sampling(query, db, samples=50, rng=2)
        assert result.estimate == 1.0
        assert result.details["mean_steps_per_sample"] >= 10

    def test_datalog_sampling_on_100_node_graph(self):
        graph = erdos_renyi(60, 0.05, rng=3)
        program = parse_program(
            f"""
            c('{graph.nodes[0]}').
            c2(X*, Y)@P :- c(X), e(X, Y, P).
            c(Y) :- c2(X, Y).
            """
        )
        edb = Database({"e": graph.edge_relation()})
        result = evaluate_datalog_sampling(
            program, edb, TupleIn("c", (graph.nodes[1],)), samples=30, rng=4
        )
        assert 0.0 <= result.estimate <= 1.0


class TestChainScale:
    def test_thousand_state_random_chain_float_solvers(self):
        chain = random_ergodic_chain(400, rng=7)
        assert is_irreducible(chain)
        pi = stationary_distribution_float(chain)
        assert abs(sum(pi.values()) - 1.0) < 1e-9

    def test_grid_walk_numeric_evaluation(self):
        graph = grid_graph(5, 5)  # 25 positions
        db = Database(
            {
                "C": Relation(("I",), [("g0_0",)]),
                "E": graph.edge_relation(),
            }
        )
        step = rename(
            project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"
        )
        query = ForeverQuery(Interpretation({"C": step}), TupleIn("C", ("g2_2",)))
        result = evaluate_forever_sparse(query, db)
        assert result.states_explored == 25
        # the centre cell has degree 4 + lazy loop = 5 of 105 total weight
        assert result.probability == pytest.approx(5 / 105, abs=1e-9)
        assert abs(Fraction(result.probability) - Fraction(5, 105)) <= Fraction(
            result.certificate.bound
        )

    def test_mixing_time_on_larger_cycle(self):
        chain = cycle_graph(40).to_markov_chain()
        t = mixing_time(chain, epsilon=0.25)
        assert t > 100  # Θ(n²) at n = 40

    def test_state_chain_construction_100_states(self):
        graph = erdos_renyi(60, 0.05, rng=9)
        db = Database(
            {
                "C": Relation(("I",), [(graph.nodes[0],)]),
                "E": graph.edge_relation(),
            }
        )
        step = rename(
            project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"
        )
        chain = build_state_chain(Interpretation({"C": step}), db)
        assert chain.size == 60
