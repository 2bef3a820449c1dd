"""Parallel trial execution: determinism, budgets, cancellation."""

import threading

import pytest

from repro.core import evaluate_forever_mcmc, evaluate_inflationary_sampling
from repro.errors import BudgetExceededError, EvaluationError, RunCancelledError
from repro.perf import ParallelConfig, prorated_budgets, split_trials, worker_seeds
from repro.probability.rng import make_rng
from repro.runtime import Budget, RunContext
from repro.workloads import (
    WeightedGraph,
    cycle_graph,
    random_walk_query,
    reachability_query,
)


@pytest.fixture(scope="module")
def walk():
    return random_walk_query(cycle_graph(6), "n0", "n3")


@pytest.fixture(scope="module")
def inflationary():
    """Example 3.5 reachability with a genuine coin flip: from ``s`` the
    walker claims exactly one of two successors, so P(reach ``a``) = 1/2."""
    graph = WeightedGraph(
        ("s", "a", "b"), [("s", "a", 1), ("s", "b", 1)]
    )
    return reachability_query(graph, "s", "a")


class TestHelpers:
    def test_split_trials_sums_exactly(self):
        assert split_trials(10, 4) == [3, 3, 2, 2]
        assert split_trials(3, 4) == [1, 1, 1, 0]
        assert sum(split_trials(997, 13)) == 997

    def test_worker_seeds_deterministic(self):
        assert worker_seeds(make_rng(5), 4) == worker_seeds(make_rng(5), 4)
        assert worker_seeds(make_rng(5), 4) != worker_seeds(make_rng(6), 4)

    def test_prorated_budget_shares_sum_to_remainder(self):
        context = RunContext(Budget(max_steps=100))
        context.tick_steps(10)
        budgets = prorated_budgets(context, 4)
        assert sum(b.max_steps for b in budgets) == 90

    def test_prorated_budget_unlimited(self):
        budgets = prorated_budgets(None, 3)
        assert all(b.is_unlimited for b in budgets)

    def test_rejects_zero_workers(self):
        with pytest.raises(EvaluationError):
            ParallelConfig(workers=0)


class TestMcmcDeterminism:
    def test_workers_1_bit_identical_to_sequential(self, walk):
        query, db = walk
        sequential = evaluate_forever_mcmc(query, db, samples=30, burn_in=6, rng=11)
        single = evaluate_forever_mcmc(
            query, db, samples=30, burn_in=6, rng=11, parallel=ParallelConfig(workers=1)
        )
        assert single.positive == sequential.positive
        assert single.estimate == sequential.estimate
        assert "workers" not in single.details

    def test_workers_4_seed_stable_across_runs(self, walk):
        query, db = walk
        config = ParallelConfig(workers=4)
        first = evaluate_forever_mcmc(
            query, db, samples=24, burn_in=5, rng=11, parallel=config
        )
        second = evaluate_forever_mcmc(
            query, db, samples=24, burn_in=5, rng=11, parallel=config
        )
        assert first.positive == second.positive
        assert first.samples == second.samples == 24
        assert first.details["workers"] == 4

    def test_worker_count_changes_stream_not_validity(self, walk):
        query, db = walk
        par2 = evaluate_forever_mcmc(
            query, db, samples=24, burn_in=5, rng=11, parallel=ParallelConfig(workers=2)
        )
        assert 0.0 <= par2.estimate <= 1.0
        assert par2.samples == 24

    def test_checkpoint_path_disables_pool(self, walk, tmp_path):
        query, db = walk
        context = RunContext()
        result = evaluate_forever_mcmc(
            query,
            db,
            samples=8,
            burn_in=3,
            rng=11,
            parallel=ParallelConfig(workers=4),
            checkpoint_path=tmp_path / "ck.json",
            context=context,
        )
        sequential = evaluate_forever_mcmc(query, db, samples=8, burn_in=3, rng=11)
        assert result.positive == sequential.positive
        assert any("sequential" in event for event in context.report().events)


class TestInflationaryDeterminism:
    def test_workers_1_bit_identical_to_sequential(self, inflationary):
        query, db = inflationary
        sequential = evaluate_inflationary_sampling(query, db, samples=40, rng=3)
        single = evaluate_inflationary_sampling(
            query, db, samples=40, rng=3, parallel=ParallelConfig(workers=1)
        )
        assert single.positive == sequential.positive

    def test_workers_4_seed_stable(self, inflationary):
        query, db = inflationary
        config = ParallelConfig(workers=4)
        first = evaluate_inflationary_sampling(
            query, db, samples=32, rng=3, parallel=config
        )
        second = evaluate_inflationary_sampling(
            query, db, samples=32, rng=3, parallel=config
        )
        assert first.positive == second.positive
        assert first.details["workers"] == 4
        # both outcomes are reachable, so a healthy estimate is interior
        assert 0.0 < first.estimate < 1.0


class TestBudgetsAndCancellation:
    def test_step_budget_propagates_into_workers(self, walk):
        query, db = walk
        context = RunContext(Budget(max_steps=20))
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluate_forever_mcmc(
                query,
                db,
                samples=40,
                burn_in=50,
                rng=11,
                parallel=ParallelConfig(workers=2),
                context=context,
            )
        # details survive the process boundary (custom __reduce__)
        assert excinfo.value.details.get("resource") == "steps"
        # each worker got half of the 20-step allowance
        assert excinfo.value.details.get("limit") == 10

    def test_budget_respected_when_it_suffices(self, walk):
        query, db = walk
        context = RunContext(Budget(max_steps=2_000))
        result = evaluate_forever_mcmc(
            query,
            db,
            samples=20,
            burn_in=5,
            rng=11,
            parallel=ParallelConfig(workers=2),
            context=context,
        )
        assert result.samples == 20
        # workers' consumption is folded back into the parent counters
        assert context.steps_used == 100

    def test_cancellation_propagates_to_pool(self, walk):
        query, db = walk
        context = RunContext()
        timer = threading.Timer(0.2, context.cancel)
        timer.start()
        try:
            with pytest.raises(RunCancelledError):
                evaluate_forever_mcmc(
                    query,
                    db,
                    samples=100_000,
                    burn_in=50,
                    rng=11,
                    parallel=ParallelConfig(workers=2),
                    context=context,
                )
        finally:
            timer.cancel()


class TestWarmCacheCounters:
    """Supervised workers keep warm caches across runs; each run reports
    the lookups it made itself, not the caches' lifetime totals."""

    def test_each_mcmc_run_reports_its_own_lookups(self, walk):
        query, db = walk
        for _ in range(3):
            result = evaluate_forever_mcmc(
                query, db, samples=301, burn_in=9, rng=11, cache_size=64,
                parallel=ParallelConfig(workers=2),
            )
            cache = result.details["cache"]
            assert cache["hits"] + cache["misses"] == 301 * 9
            assert cache["maxsize"] == 2 * 64

    def test_repeated_inflationary_runs_report_equal_lookups(self, inflationary):
        query, db = inflationary
        lookups = []
        for _ in range(3):
            result = evaluate_inflationary_sampling(
                query, db, samples=40, rng=3, cache_size=64,
                parallel=ParallelConfig(workers=2),
            )
            cache = result.details["cache"]
            lookups.append(cache["hits"] + cache["misses"])
        assert lookups[0] > 0
        assert lookups == [lookups[0]] * 3
