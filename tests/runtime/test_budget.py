"""Budgets, cooperative cancellation, and run reports."""

import pytest

from repro.errors import BudgetExceededError, ProbabilityError, RunCancelledError
from repro.runtime import Budget, RunContext, ensure_context


class FakeClock:
    """Deterministic monotonic clock for wall-clock budget tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestBudget:
    def test_unlimited_by_default(self):
        assert Budget().is_unlimited
        assert Budget.unlimited().is_unlimited

    def test_any_axis_makes_it_limited(self):
        assert not Budget(wall_clock=1.0).is_unlimited
        assert not Budget(max_steps=1).is_unlimited
        assert not Budget(max_states=1).is_unlimited

    @pytest.mark.parametrize(
        "kwargs",
        [{"wall_clock": -1.0}, {"max_steps": -1}, {"max_states": -5}],
    )
    def test_rejects_negative_limits(self, kwargs):
        with pytest.raises(ProbabilityError):
            Budget(**kwargs)

    def test_as_dict(self):
        assert Budget(max_steps=7).as_dict() == {
            "wall_clock": None,
            "max_steps": 7,
            "max_states": None,
        }


class TestStepAndStateBudgets:
    def test_steps_within_budget(self):
        context = RunContext(Budget(max_steps=3))
        for _ in range(3):
            context.tick_steps()
        assert context.steps_used == 3

    def test_steps_over_budget(self):
        context = RunContext(Budget(max_steps=3))
        for _ in range(3):
            context.tick_steps()
        with pytest.raises(BudgetExceededError) as info:
            context.tick_steps()
        assert info.value.details["resource"] == "steps"
        assert info.value.details["limit"] == 3
        assert info.value.details["spent"] == 4

    def test_states_over_budget(self):
        context = RunContext(Budget(max_states=2))
        context.tick_states(2)
        with pytest.raises(BudgetExceededError) as info:
            context.tick_states()
        assert info.value.details["resource"] == "states"

    def test_bulk_charge(self):
        context = RunContext(Budget(max_steps=10))
        with pytest.raises(BudgetExceededError):
            context.tick_steps(11)

    def test_unlimited_context_never_trips(self):
        context = RunContext()
        context.tick_steps(10**6)
        context.tick_states(10**6)
        context.check()


class TestWallClock:
    def test_deadline_enforced(self):
        clock = FakeClock()
        context = RunContext(Budget(wall_clock=5.0), clock=clock)
        context.check()
        clock.advance(4.9)
        context.check()
        clock.advance(0.2)
        with pytest.raises(BudgetExceededError) as info:
            context.check()
        assert info.value.details["resource"] == "wall_clock"

    def test_remaining_time(self):
        clock = FakeClock()
        context = RunContext(Budget(wall_clock=10.0), clock=clock)
        clock.advance(4.0)
        assert context.remaining_time() == pytest.approx(6.0)
        assert RunContext(clock=clock).remaining_time() is None


class TestCancellation:
    def test_cancel_trips_next_check(self):
        context = RunContext()
        assert not context.cancelled
        context.cancel()
        assert context.cancelled
        with pytest.raises(RunCancelledError):
            context.check()

    def test_cancel_trips_tick(self):
        context = RunContext()
        context.cancel()
        with pytest.raises(RunCancelledError):
            context.tick_steps()


class TestRunReport:
    def test_successful_run(self):
        context = RunContext(Budget(max_steps=100))
        context.tick_steps(7)
        context.tick_states(3)
        context.record_event("note")
        context.finish(method="prop-5.4")
        report = context.report()
        assert report.outcome == "ok"
        assert report.method == "prop-5.4"
        assert report.spent["steps"] == 7
        assert report.spent["states"] == 3
        assert report.events == ["note"]
        assert report.budget["max_steps"] == 100

    def test_downgrades_recorded_in_order(self):
        context = RunContext()
        context.record_downgrade("exact", "lumped", "too many states")
        context.record_downgrade("lumped", "mcmc", "still too many")
        report = context.report()
        assert [(d.from_method, d.to_method) for d in report.downgrades] == [
            ("exact", "lumped"),
            ("lumped", "mcmc"),
        ]
        payload = report.as_dict()
        assert payload["downgrades"][0] == {
            "from": "exact",
            "to": "lumped",
            "reason": "too many states",
        }

    def test_budget_exceeded_outcome(self):
        context = RunContext(Budget(max_steps=1))
        context.tick_steps()
        with pytest.raises(BudgetExceededError):
            context.tick_steps()
        assert context.report().outcome == "budget_exceeded"

    def test_cancelled_outcome(self):
        context = RunContext()
        context.cancel()
        with pytest.raises(RunCancelledError):
            context.check()
        assert context.report().outcome == "cancelled"


class TestPhases:
    """A run's phases are the exclusive totals of its own spans."""

    def _nested(self, context):
        with context.phase("chain-build"):
            with context.phase("solve"):
                sum(range(20_000))
            sum(range(20_000))
        with context.phase("solve"):
            pass

    def test_untraced_run_reports_phases_from_its_spans(self):
        context = RunContext()
        self._nested(context)
        assert context.tracer.enabled is False
        phases = context.report().phases
        assert {name: t.count for name, t in phases.items()} == {
            "chain-build": 1, "solve": 2,
        }
        records = {r["name"]: r for r in context.tracer.spans
                   if r["parent"] is None}
        inner = [r for r in context.tracer.spans if r["parent"] is not None]
        # Exclusive: the nested solve is charged to solve only.
        assert phases["chain-build"].wall_seconds == round(
            records["chain-build"]["wall_s"] - inner[0]["wall_s"], 9
        )

    def test_traced_report_equals_totals_of_the_emitted_spans(self):
        from repro.obs import MemorySink, Tracer, phase_totals, span_tree

        sink = MemorySink()
        context = RunContext(tracer=Tracer(sink))
        self._nested(context)
        report = context.report().as_dict()
        assert report["phases"] == phase_totals(span_tree(sink.records))
        assert "ledger" not in report


class TestEnsureContext:
    def test_passthrough(self):
        context = RunContext()
        assert ensure_context(context) is context

    def test_none_becomes_unlimited(self):
        context = ensure_context(None)
        assert context.budget.is_unlimited
