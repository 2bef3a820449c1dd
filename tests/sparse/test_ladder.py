"""The sparse rung threaded through ladder, service, and CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.analysis import PlanHints
from repro.cli import main
from repro.errors import InvalidRequestError
from repro.runtime import DegradationPolicy, RunContext, evaluate_forever_resilient
from repro.service import EngineSession, QueryRequest
from repro.sparse import CertifiedResult
from repro.workloads import cycle_graph, random_walk_query

from tests.service.conftest import walk_body


@pytest.fixture
def walk():
    return random_walk_query(cycle_graph(6), "n0", "n3")


class TestLadder:
    def test_prefer_sparse_answers_without_overflow(self, walk):
        query, db = walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query, db, policy=DegradationPolicy(mode="none"),
            context=context, prefer_sparse=True,
        )
        assert isinstance(result, CertifiedResult)
        assert context.report().downgrades == []

    def test_refusal_falls_through_with_reason(self, walk):
        query, db = walk
        context = RunContext()
        result = evaluate_forever_resilient(
            query, db, max_states=3,
            policy=DegradationPolicy(mode="auto", sparse_epsilon=1e-300),
            context=context,
        )
        # sparse refused; lumped answered exactly
        assert result.method == "lumped"
        downgrades = context.report().downgrades
        assert [(d.from_method, d.to_method) for d in downgrades] == [
            ("exact", "sparse"), ("sparse", "lumped"),
        ]
        assert "refusing" in downgrades[1].reason

    def test_ph006_hint_drops_sparse_rung(self, walk):
        query, db = walk
        hints = PlanHints(deterministic=False, sparse_eligible=False)
        context = RunContext()
        result = evaluate_forever_resilient(
            query, db, max_states=3,
            policy=DegradationPolicy(mode="auto"), context=context,
            hints=hints,
        )
        assert result.method == "lumped"
        assert any("PH006" in event for event in context.report().events)

    def test_sparse_eligible_hint_computed_for_kernels(self, walk):
        query, _ = walk
        hints = PlanHints.for_kernel(
            query.kernel, event=query.event, semantics="forever"
        )
        assert hints.sparse_eligible is True
        assert hints.as_dict()["sparse_eligible"] is True


class TestServiceSurface:
    def test_backend_sparse_payload_kind(self):
        request = QueryRequest.from_json(
            walk_body(params={"backend": "sparse"})
        )
        session = EngineSession.prepare(request)
        payload = session.evaluate(request)
        assert payload["kind"] == "sparse"
        assert payload["certificate"]["satisfied"] is True
        lo, hi = payload["interval"]
        assert lo <= payload["probability_float"] <= hi

    def test_fallback_sparse_param(self):
        request = QueryRequest.from_json(
            walk_body(params={"fallback": "sparse", "max_states": 1})
        )
        session = EngineSession.prepare(request)
        payload = session.evaluate(request)
        assert payload["kind"] == "sparse"

    def test_sparse_backend_rejected_for_inflationary(self):
        with pytest.raises(InvalidRequestError):
            QueryRequest.from_json(
                walk_body(
                    semantics="inflationary", params={"backend": "sparse"}
                )
            )

    def test_fallback_sparse_stays_cacheable_without_seed(self):
        request = QueryRequest.from_json(
            walk_body(params={"fallback": "sparse"})
        )
        assert request.is_cacheable()


class TestCliSurface:
    @pytest.fixture
    def workspace(self, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({
            "relations": {
                "C": {"columns": ["I"], "rows": [["a"]]},
                "E": {"columns": ["I", "J", "P"],
                      "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]]},
            }
        }))
        walk = tmp_path / "walk.ra"
        walk.write_text(
            "C := rename[J->I](project[J](repair-key[I@P](C join E)))\n"
        )
        return {"db": str(db), "walk": str(walk)}

    def test_backend_sparse_renders_certificate(self, workspace, capsys):
        code = main([
            "forever", workspace["walk"], "--db", workspace["db"],
            "--event", "C(b)", "--backend", "sparse", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sparse"
        assert payload["certificate"]["satisfied"] is True
        assert abs(payload["probability_float"] - 1 / 3) <= (
            payload["certificate"]["bound"]
        )

    def test_fallback_sparse_records_downgrade(self, workspace, capsys):
        code = main([
            "forever", workspace["walk"], "--db", workspace["db"],
            "--event", "C(b)", "--fallback", "sparse",
            "--max-states", "1", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["downgrades"] == [{
            "from": "exact", "to": "sparse",
            "reason": payload["downgrades"][0]["reason"],
        }]
        assert "max_states=1" in payload["downgrades"][0]["reason"]

    def test_epsilon_flag_sets_certificate_contract(self, workspace, capsys):
        code = main([
            "forever", workspace["walk"], "--db", workspace["db"],
            "--event", "C(b)", "--backend", "sparse",
            "--epsilon", "1e-10", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["epsilon"] == 1e-10
