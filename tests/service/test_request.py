"""QueryRequest validation, canonical keys, cacheability, budgets."""

from __future__ import annotations

import pytest

from repro.errors import InvalidRequestError
from repro.runtime import Budget
from repro.service import QueryRequest

from tests.service.conftest import walk_body


class TestValidation:
    def test_minimal_request_parses(self, walk_request):
        assert walk_request.semantics == "forever"
        assert walk_request.priority == "normal"

    @pytest.mark.parametrize("field", ["semantics", "program", "database", "event"])
    def test_missing_required_field_rejected(self, field):
        body = walk_body()
        del body[field]
        with pytest.raises(InvalidRequestError, match="missing request fields"):
            QueryRequest.from_json(body)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown request fields"):
            QueryRequest.from_json(walk_body(bogus=1))

    def test_unknown_semantics_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown semantics"):
            QueryRequest.from_json(walk_body(semantics="sideways"))

    def test_unknown_param_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown params"):
            QueryRequest.from_json(walk_body(params={"granularity": 3}))

    def test_datalog_only_param_rejected_for_forever(self):
        # pc_tables ride only on datalog requests
        with pytest.raises(InvalidRequestError, match="pc_tables"):
            QueryRequest.from_json(walk_body(pc_tables={"tables": {}}))

    def test_unknown_budget_key_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown budget keys"):
            QueryRequest.from_json(walk_body(budget={"max_ram": 1}))

    def test_unknown_priority_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown priority"):
            QueryRequest.from_json(walk_body(priority="urgent"))

    def test_non_object_body_rejected(self):
        with pytest.raises(InvalidRequestError, match="JSON object"):
            QueryRequest.from_json([1, 2, 3])

    def test_as_dict_round_trips(self, walk_request):
        again = QueryRequest.from_json(walk_request.as_dict())
        assert again == walk_request


class TestKeys:
    def test_cache_key_is_deterministic(self, walk_request):
        assert walk_request.cache_key() == walk_request.cache_key()

    def test_same_program_different_event_shares_session(self):
        a = QueryRequest.from_json(walk_body(event="C(a)"))
        b = QueryRequest.from_json(walk_body(event="C(b)"))
        assert a.session_key() == b.session_key()
        assert a.cache_key() != b.cache_key()

    def test_different_database_splits_session(self):
        other = dict(walk_body()["database"])
        other["relations"] = dict(other["relations"])
        other["relations"]["C"] = {"columns": ["I"], "rows": [["b"]]}
        a = QueryRequest.from_json(walk_body())
        b = QueryRequest.from_json(walk_body(database=other))
        assert a.session_key() != b.session_key()

    def test_params_change_cache_key_not_session_key(self):
        a = QueryRequest.from_json(walk_body())
        b = QueryRequest.from_json(walk_body(params={"max_states": 99}))
        assert a.session_key() == b.session_key()
        assert a.cache_key() != b.cache_key()

    def test_budget_and_priority_do_not_change_cache_key(self):
        a = QueryRequest.from_json(walk_body())
        b = QueryRequest.from_json(
            walk_body(budget={"timeout": 5}, priority="high")
        )
        assert a.cache_key() == b.cache_key()

    def test_session_payload_is_serialised_once_per_request(self, monkeypatch):
        """Pool lookup, cache key and the session's ownership check all
        need the session key; the program and database are serialised
        for it once."""
        import repro.service.request as request_module
        from repro.service.session import SessionPool

        serialised = []
        canonical = request_module._canonical

        def counting(payload):
            if "program" in payload:
                serialised.append(payload["program"])
            return canonical(payload)

        monkeypatch.setattr(request_module, "_canonical", counting)
        request = QueryRequest.from_json(walk_body())
        session = SessionPool().get_or_create(request)
        request.cache_key()
        payload = session.evaluate(request)
        assert payload["probability"] == "1/3"
        assert len(serialised) == 1


class TestCacheability:
    def test_exact_request_is_cacheable(self, walk_request):
        assert walk_request.is_cacheable()

    def test_unseeded_sampling_is_not_cacheable(self):
        request = QueryRequest.from_json(walk_body(params={"samples": 100}))
        assert not request.is_cacheable()

    def test_seeded_sampling_is_cacheable(self):
        request = QueryRequest.from_json(
            walk_body(params={"samples": 100, "seed": 7})
        )
        assert request.is_cacheable()

    def test_unseeded_fallback_is_not_cacheable(self):
        request = QueryRequest.from_json(walk_body(params={"fallback": "auto"}))
        assert not request.is_cacheable()


class TestBudgets:
    def test_request_budget_wins_over_default(self):
        request = QueryRequest.from_json(walk_body(budget={"timeout": 5}))
        budget = request.make_budget(Budget(wall_clock=60, max_steps=100))
        assert budget.wall_clock == 5
        assert budget.max_steps == 100  # default fills the open axis

    def test_cap_clamps_requested_budget(self):
        request = QueryRequest.from_json(
            walk_body(budget={"timeout": 900, "max_steps": 10**12})
        )
        budget = request.make_budget(None, Budget(wall_clock=30, max_steps=1000))
        assert budget.wall_clock == 30
        assert budget.max_steps == 1000

    def test_cap_replaces_unlimited(self):
        request = QueryRequest.from_json(walk_body())
        budget = request.make_budget(None, Budget(wall_clock=30))
        assert budget.wall_clock == 30
        assert budget.max_steps is None

    def test_no_default_no_cap_is_unlimited(self, walk_request):
        assert walk_request.make_budget().is_unlimited

    @pytest.mark.parametrize(
        "budget", [{"timeout": -1}, {"max_steps": -5}, {"max_steps": 1.5}]
    )
    def test_bad_budget_values_rejected(self, budget):
        request = QueryRequest.from_json(walk_body(budget=budget))
        with pytest.raises(InvalidRequestError):
            request.make_budget()
