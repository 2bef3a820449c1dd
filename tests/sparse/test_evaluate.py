"""The sparse rung as a forever-query evaluator: contract + telemetry."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core import evaluate_forever_exact
from repro.errors import SolveRefusedError, StateSpaceLimitExceeded
from repro.kernel import lower
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.runtime import RunContext
from repro.sparse import CertifiedResult, evaluate_forever_sparse
from repro.workloads import cycle_graph, random_walk_query


@pytest.fixture
def walk():
    return random_walk_query(cycle_graph(6), "n0", "n3")


class TestEvaluate:
    def test_certified_result_brackets_exact(self, walk):
        query, db = walk
        result = evaluate_forever_sparse(query, db, epsilon=1e-9)
        assert isinstance(result, CertifiedResult)
        exact = evaluate_forever_exact(query, db)
        assert exact.probability == Fraction(1, 6)
        lo, hi = result.interval
        assert lo <= float(exact.probability) <= hi
        assert result.certificate.satisfies()
        assert result.method == "sparse-prop-5.4"
        assert result.details["backend"] in ("columnar", "frozenset")

    def test_refusal_raises_with_details(self, walk):
        query, db = walk
        with pytest.raises(SolveRefusedError) as excinfo:
            evaluate_forever_sparse(query, db, epsilon=1e-300)
        details = excinfo.value.details
        assert details["epsilon"] == 1e-300
        assert details["certified_bound"] > 1e-300
        assert details["states"] == 6

    def test_state_limit_propagates(self, walk):
        query, db = walk
        with pytest.raises(StateSpaceLimitExceeded):
            evaluate_forever_sparse(query, db, max_states=2)

    def test_metrics_and_trace_spans_recorded(self, walk):
        query, db = walk
        sink = MemorySink()
        metrics = MetricsRegistry()
        context = RunContext(tracer=Tracer(sink), metrics=metrics)
        evaluate_forever_sparse(query, db, epsilon=1e-9, context=context)
        spans = [r.get("name") for r in sink.records if r.get("type") == "span"]
        assert "sparse-assemble" in spans
        assert "sparse-solve" in spans
        solves = metrics.counter("repro_sparse_solves_total", "")
        assert solves.value(outcome="ok") == 1.0

    def test_refusal_metric(self, walk):
        query, db = walk
        metrics = MetricsRegistry()
        context = RunContext(metrics=metrics)
        with pytest.raises(SolveRefusedError):
            evaluate_forever_sparse(
                query, db, epsilon=1e-300, context=context
            )
        refusals = metrics.counter("repro_sparse_refusals_total", "")
        assert refusals.total() == 1.0
        solves = metrics.counter("repro_sparse_solves_total", "")
        assert solves.value(outcome="refused") == 1.0

    def test_forced_frozenset_backend_same_answer(self, walk):
        # The rung runs the kernel the query holds: a source query
        # streams off the interpreter, its lowered pair assembles on the
        # columnar kernel, and the two CSRs are bitwise equal.
        query, db = walk
        frozen = evaluate_forever_sparse(query, db, epsilon=1e-9)
        columnar = evaluate_forever_sparse(*lower(query, db), epsilon=1e-9)
        assert frozen.details["backend"] == "frozenset"
        assert columnar.details["backend"] == "columnar"
        assert frozen.interval == columnar.interval
        assert frozen.certificate.as_dict() == columnar.certificate.as_dict()
