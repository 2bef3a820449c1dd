"""Unit tests for the Theorem 4.3 sampling evaluator."""

import random
from fractions import Fraction

import pytest

from repro.core import (
    InflationaryQuery,
    Interpretation,
    TupleIn,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
)
from repro.core.evaluation import sample_fixpoint
from repro.ctables import CTable, PCDatabase, boolean_variable, var_eq
from repro.errors import EvaluationError
from repro.probability import paper_sample_count
from repro.relational import Database, Relation, rel
from repro.workloads import (
    example_36_graph,
    layered_dag,
    reachability_query,
    unguarded_reachability_query,
)


class TestSampleFixpoint:
    def test_deterministic_progression(self):
        state, steps = sample_fixpoint(
            step=lambda s: min(s + 1, 5),
            is_fixpoint=lambda s: s == 5,
            initial=0,
        )
        assert state == 5
        assert steps == 5

    def test_verification_rejects_false_stall(self):
        """A sampled self-loop at a non-fixpoint must not terminate."""
        rng = random.Random(0)

        def step(s):
            if s == "s":
                return "s" if rng.random() < 0.5 else "t"
            return s

        state, _steps = sample_fixpoint(
            step, is_fixpoint=lambda s: s == "t", initial="s"
        )
        assert state == "t"

    def test_stall_threshold_mode(self):
        state, _steps = sample_fixpoint(
            step=lambda s: s,
            is_fixpoint=lambda s: (_ for _ in ()).throw(AssertionError),
            initial="x",
            stall_threshold=3,
        )
        assert state == "x"

    def test_max_steps(self):
        with pytest.raises(EvaluationError):
            sample_fixpoint(
                step=lambda s: s + 1,
                is_fixpoint=lambda s: False,
                initial=0,
                max_steps=10,
            )


class TestEvaluator:
    def test_matches_exact_on_example_35(self):
        query, db = reachability_query(example_36_graph(), "a", "b")
        exact = evaluate_inflationary_exact(query, db).probability
        sampled = evaluate_inflationary_sampling(query, db, samples=2000, rng=3)
        assert abs(sampled.estimate - float(exact)) < 0.05

    def test_unguarded_example_36_reaches_one(self):
        query, db = unguarded_reachability_query(example_36_graph(), "a", "b")
        sampled = evaluate_inflationary_sampling(query, db, samples=300, rng=5)
        assert sampled.estimate == 1.0

    def test_planned_sample_count_used(self):
        query, db = reachability_query(example_36_graph(), "a", "b")
        result = evaluate_inflationary_sampling(
            query, db, epsilon=0.2, delta=0.2, rng=1
        )
        assert result.samples == paper_sample_count(0.2, 0.2)
        assert result.epsilon == 0.2
        assert result.delta == 0.2

    def test_explicit_samples_clears_guarantee(self):
        query, db = reachability_query(example_36_graph(), "a", "b")
        result = evaluate_inflationary_sampling(query, db, samples=50, rng=1)
        assert result.samples == 50
        assert result.epsilon is None

    def test_epsilon_guarantee_holds_empirically(self):
        """Repeat (ε, δ)-runs; the failure rate stays ≲ δ."""
        query, db = reachability_query(example_36_graph(), "a", "b")
        exact = float(evaluate_inflationary_exact(query, db).probability)
        epsilon, delta = 0.1, 0.2
        failures = 0
        runs = 30
        rng = random.Random(7)
        for _ in range(runs):
            result = evaluate_inflationary_sampling(
                query, db, epsilon=epsilon, delta=delta, rng=rng
            )
            failures += abs(result.estimate - exact) > epsilon
        assert failures / runs <= delta + 0.1

    def test_larger_dag_agrees_with_exact(self):
        graph = layered_dag(3, 2, rng=4)
        query, db = reachability_query(graph, "v0_0", "v2_0")
        exact = float(evaluate_inflationary_exact(query, db).probability)
        sampled = evaluate_inflationary_sampling(query, db, samples=1500, rng=9)
        assert abs(sampled.estimate - exact) < 0.06

    def test_pc_table_sampled_once_per_run(self):
        pc = PCDatabase(
            {"A": CTable(("L",), [(("t",), var_eq("x", 1))])},
            {"x": boolean_variable(Fraction(1, 4))},
        )
        kernel = Interpretation({}, pc_tables=pc)
        db = Database({"A": Relation(("L",), [])})
        query = InflationaryQuery(kernel, TupleIn("A", ("t",)))
        result = evaluate_inflationary_sampling(query, db, samples=2000, rng=13)
        assert abs(result.estimate - 0.25) < 0.05

    def test_pc_table_workers_memoize_the_pc_free_kernel(self):
        """Workers' fixpoint memo enumerates the pc-free kernel, as the
        sequential sampler's does: caching changes no estimate."""
        from repro.perf import ParallelConfig

        pc = PCDatabase(
            {"A": CTable(("L",), [(("t",), var_eq("x", 1))])},
            {"x": boolean_variable(Fraction(1, 4))},
        )
        kernel = Interpretation({}, pc_tables=pc)
        db = Database({"A": Relation(("L",), [])})
        query = InflationaryQuery(kernel, TupleIn("A", ("t",)))
        runs = [
            evaluate_inflationary_sampling(
                query, db, samples=200, rng=13, cache_size=cache_size,
                parallel=ParallelConfig(workers=2),
            )
            for cache_size in (None, 8)
        ]
        assert runs[0].positive == runs[1].positive

    def test_details_reported(self):
        query, db = reachability_query(example_36_graph(), "a", "b")
        result = evaluate_inflationary_sampling(query, db, samples=20, rng=2)
        assert result.method == "thm-4.3"
        assert result.details["mean_steps_per_sample"] >= 1
