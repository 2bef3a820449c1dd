"""EngineSession / SessionPool: prepared programs and warm caches."""

from __future__ import annotations

import pytest

from repro.core import ForeverQuery, evaluate_forever_exact
from repro.core.events import parse_event
from repro.errors import InvalidRequestError
from repro.io import database_from_json
from repro.relational.parser import parse_interpretation
from repro.runtime import Budget, RunContext
from repro.service import EngineSession, QueryRequest, SessionPool

from tests.service.conftest import (
    REACH_DATABASE,
    REACH_DATALOG,
    WALK_DATABASE,
    WALK_PROGRAM,
    walk_body,
)


def make_request(**overrides) -> QueryRequest:
    return QueryRequest.from_json(walk_body(**overrides))


class TestEngineSession:
    def test_forever_exact_matches_direct_evaluation(self, walk_request):
        session = EngineSession.prepare(walk_request)
        payload = session.evaluate(walk_request)
        kernel = parse_interpretation(WALK_PROGRAM)
        database = database_from_json(WALK_DATABASE)
        direct = evaluate_forever_exact(
            ForeverQuery(kernel, parse_event("C(b)")), database
        )
        assert payload["probability"] == str(direct.probability)
        assert payload["kind"] == "exact"

    def test_warm_cache_survives_across_requests(self, walk_request):
        session = EngineSession.prepare(walk_request)
        session.evaluate(walk_request)
        misses_after_first = session.cache.misses
        assert misses_after_first > 0
        # a sampled request on the same session walks memoized rows (an
        # exact event reads the stored solution instead: test_solution_reuse)
        other = make_request(
            event="C(a)", params={"mcmc": True, "samples": 50, "seed": 5, "burn_in": 4}
        )
        session.evaluate(other)
        assert session.cache.hits > 0
        assert session.cache.misses == misses_after_first
        assert session.requests_served == 2

    def test_seeded_mcmc_uses_session_cache(self, walk_request):
        session = EngineSession.prepare(walk_request)
        request = make_request(
            params={"mcmc": True, "samples": 200, "seed": 11, "burn_in": 16}
        )
        payload = session.evaluate(request)
        assert payload["kind"] == "sampling"
        assert 0.0 <= payload["estimate"] <= 1.0
        assert session.cache.hits + session.cache.misses > 0

    def test_cache_size_zero_opts_out(self, walk_request):
        session = EngineSession.prepare(walk_request)
        request = make_request(
            params={"mcmc": True, "samples": 50, "seed": 3,
                    "burn_in": 8, "cache_size": 0}
        )
        session.evaluate(request)
        assert session.cache.hits + session.cache.misses == 0

    @pytest.mark.parametrize("cache_size", [None, 0, 8])
    def test_from_request_caches_only_when_the_request_asks(self, cache_size):
        request = make_request(
            params={"mcmc": True, "samples": 50, "seed": 3,
                    "burn_in": 8, "cache_size": cache_size}
        )
        session = EngineSession.from_request(request)
        payload = session.evaluate(request)
        assert session.analysis is None
        if cache_size:
            assert session.cache.maxsize == cache_size
            assert payload["transition_cache"]["misses"] > 0
        else:
            assert session.cache is None
            assert "transition_cache" not in payload

    def test_fallback_degrades_and_reports(self, walk_request):
        request = make_request(
            params={"fallback": "lumped", "max_states": 1}
        )
        session = EngineSession.prepare(request)
        context = RunContext(Budget.unlimited())
        payload = session.evaluate(request, context)
        assert payload["probability"] == "1/3"
        assert payload["downgrades"]

    def test_foreign_request_rejected(self, walk_request):
        session = EngineSession.prepare(walk_request)
        foreign = make_request(program="C := C")
        with pytest.raises(InvalidRequestError, match="does not belong"):
            session.evaluate(foreign)

    def test_inflationary_session(self):
        request = QueryRequest.from_json({
            "semantics": "inflationary",
            "program": "T := T union E",
            "database": {"relations": {
                "T": {"columns": ["A", "B"], "rows": []},
                "E": {"columns": ["A", "B"], "rows": [["a", "b"]]},
            }},
            "event": "T(a, b)",
        })
        session = EngineSession.prepare(request)
        payload = session.evaluate(request)
        assert payload["probability"] == "1"

    def test_datalog_session_has_no_transition_cache(self):
        request = QueryRequest.from_json({
            "semantics": "datalog",
            "program": REACH_DATALOG,
            "database": REACH_DATABASE,
            "event": "t(a, c)",
        })
        session = EngineSession.prepare(request)
        assert session.cache is None
        payload = session.evaluate(request)
        assert payload["probability"] == "1"
        assert payload["pc_worlds"] == 1

    def test_budget_exhaustion_propagates(self, walk_request):
        from repro.errors import BudgetExceededError

        session = EngineSession.prepare(walk_request)
        context = RunContext(Budget(max_steps=0))
        request = make_request(params={"mcmc": True, "samples": 50, "seed": 1})
        with pytest.raises(BudgetExceededError):
            session.evaluate(request, context)


class TestSessionPool:
    def test_hit_on_same_program(self, walk_request):
        pool = SessionPool(maxsize=4)
        first = pool.get_or_create(walk_request)
        second = pool.get_or_create(make_request(event="C(a)"))
        assert first is second
        assert (pool.hits, pool.misses) == (1, 1)

    def test_lru_eviction(self, walk_request):
        pool = SessionPool(maxsize=1)
        pool.get_or_create(walk_request)
        pool.get_or_create(make_request(program="C := C"))
        assert pool.evictions == 1
        assert len(pool) == 1

    def test_stats_include_sessions(self, walk_request):
        pool = SessionPool(maxsize=4)
        session = pool.get_or_create(walk_request)
        session.evaluate(walk_request)
        stats = pool.stats()
        assert stats["size"] == 1
        assert stats["sessions"][0]["requests_served"] == 1
        assert stats["sessions"][0]["transition_cache"]["maxsize"] > 0
