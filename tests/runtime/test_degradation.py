"""Graceful exact → sparse → lumped → MCMC degradation."""

import pytest

from fractions import Fraction

from repro.core.evaluation import evaluate_forever_exact
from repro.core.evaluation.results import ExactResult, SamplingResult
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    StateSpaceLimitExceeded,
)
from repro.runtime import Budget, DegradationPolicy, RunContext, evaluate_forever_resilient
from repro.runtime import degradation
from repro.workloads import cycle_graph, random_walk_query


@pytest.fixture
def small_walk():
    """4-state chain: exact fits in 4 states, not in 3."""
    return random_walk_query(cycle_graph(4), "n0", "n2")


@pytest.fixture
def larger_walk():
    """6-state chain, for forcing the MCMC rung."""
    return random_walk_query(cycle_graph(6), "n0", "n3")


class TestPolicy:
    def test_ladders(self):
        assert DegradationPolicy(mode="none").ladder == ("exact",)
        assert DegradationPolicy(mode="sparse").ladder == ("exact", "sparse")
        assert DegradationPolicy(mode="lumped").ladder == ("exact", "lumped")
        assert DegradationPolicy(mode="mcmc").ladder == ("exact", "mcmc")
        assert DegradationPolicy(mode="auto").ladder == (
            "exact", "sparse", "lumped", "mcmc"
        )

    def test_rejects_unknown_mode(self):
        with pytest.raises(EvaluationError):
            DegradationPolicy(mode="punt")

    def test_rejects_bad_sparse_knobs(self):
        with pytest.raises(EvaluationError):
            DegradationPolicy(sparse_epsilon=0.0)


class TestDegradationLadder:
    def test_no_downgrade_when_exact_fits(self, small_walk):
        query, db = small_walk
        context = RunContext()
        result = evaluate_forever_resilient(query, db, context=context)
        assert isinstance(result, ExactResult)
        assert result.probability == Fraction(1, 4)
        report = context.report()
        assert report.outcome == "ok"
        assert report.downgrades == []

    def test_mode_none_raises_like_legacy(self, small_walk):
        query, db = small_walk
        with pytest.raises(StateSpaceLimitExceeded):
            evaluate_forever_resilient(
                query, db, max_states=3, policy=DegradationPolicy(mode="none")
            )

    def test_exact_falls_back_to_lumped_same_answer(self, small_walk):
        query, db = small_walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query,
            db,
            max_states=3,
            policy=DegradationPolicy(mode="lumped"),
            context=context,
        )
        assert isinstance(result, ExactResult)
        assert result.method == "lumped"
        exact = evaluate_forever_exact(query, db)
        assert result.probability == exact.probability
        report = context.report()
        assert [(d.from_method, d.to_method) for d in report.downgrades] == [
            ("exact", "lumped")
        ]
        assert "max_states=3" in report.downgrades[0].reason

    def test_auto_falls_back_to_certified_sparse(self, small_walk):
        """The auto ladder's first fallback is now the certified solver."""
        from repro.sparse import CertifiedResult

        query, db = small_walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query,
            db,
            max_states=3,
            policy=DegradationPolicy(mode="auto"),
            context=context,
        )
        assert isinstance(result, CertifiedResult)
        exact = evaluate_forever_exact(query, db)
        assert abs(result.probability - float(exact.probability)) <= (
            result.certificate.bound
        )
        report = context.report()
        assert [(d.from_method, d.to_method) for d in report.downgrades] == [
            ("exact", "sparse")
        ]

    def test_full_ladder_reaches_mcmc(self, larger_walk, monkeypatch):
        """A sparse state factor of 1 makes the sparse rung overflow
        too, so the run walks every rung of the auto ladder."""
        monkeypatch.setattr(degradation, "SPARSE_STATE_FACTOR", 1)
        query, db = larger_walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query,
            db,
            max_states=1,
            policy=DegradationPolicy(
                mode="auto", mcmc_samples=100, mcmc_burn_in=30,
            ),
            context=context,
            rng=7,
        )
        assert isinstance(result, SamplingResult)
        assert result.method == "thm-5.6"
        assert 0.0 <= result.estimate <= 1.0
        report = context.report()
        assert [(d.from_method, d.to_method) for d in report.downgrades] == [
            ("exact", "sparse"),
            ("sparse", "lumped"),
            ("lumped", "mcmc"),
        ]
        assert report.outcome == "ok"
        assert report.method == "thm-5.6"

    def test_mcmc_rung_uses_adaptive_burn_in(self, larger_walk, monkeypatch):
        monkeypatch.setattr(degradation, "ADAPTIVE_TOLERANCE", 0.12)
        query, db = larger_walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query,
            db,
            max_states=1,
            policy=DegradationPolicy(mode="mcmc", mcmc_samples=50),
            context=context,
            rng=3,
        )
        assert isinstance(result, SamplingResult)
        assert result.details["burn_in"] >= 1
        assert any("adaptive burn-in" in event for event in context.report().events)

    def test_last_rung_overflow_propagates(self, small_walk, monkeypatch):
        monkeypatch.setattr(degradation, "LUMPED_STATE_FACTOR", 2)
        query, db = small_walk
        with pytest.raises(StateSpaceLimitExceeded):
            evaluate_forever_resilient(
                query,
                db,
                max_states=1,
                policy=DegradationPolicy(mode="lumped"),
            )

    def test_budget_exhaustion_is_not_degraded(self, small_walk):
        """Out of wall-clock/steps means out for the fallback too."""
        query, db = small_walk
        context = RunContext(Budget(max_states=1))
        with pytest.raises(BudgetExceededError):
            evaluate_forever_resilient(
                query,
                db,
                policy=DegradationPolicy(mode="auto"),
                context=context,
            )

    def test_resilient_checkpoint_resume_matches_uninterrupted(
        self, larger_walk, tmp_path, monkeypatch
    ):
        """The acceptance-criterion path: auto fallback to MCMC with a
        mid-run kill, resumed to the same final estimate."""
        monkeypatch.setattr(degradation, "SPARSE_STATE_FACTOR", 1)
        query, db = larger_walk
        policy = DegradationPolicy(
            mode="auto", mcmc_samples=40, mcmc_burn_in=11,
        )

        full = evaluate_forever_resilient(
            query, db, max_states=1, policy=policy, rng=5
        )

        path = tmp_path / "resilient.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_resilient(
                query,
                db,
                max_states=1,
                policy=policy,
                rng=5,
                context=RunContext(Budget(max_steps=11 * 20 + 3)),
                checkpoint_path=path,
            )
        context = RunContext()
        resumed = evaluate_forever_resilient(
            query,
            db,
            max_states=1,
            policy=policy,
            rng=5,
            context=context,
            resume=path,
        )
        assert resumed.estimate == full.estimate
        assert resumed.positive == full.positive
        assert any("skipping to MCMC" in event for event in context.report().events)
