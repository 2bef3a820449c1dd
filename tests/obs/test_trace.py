"""Tracer spans/events, the JSONL schema, and the report renderer."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    SpanRecorder,
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    Tracer,
    render_summary,
    summarize,
    validate_trace_lines,
    validate_trace_records,
)


class TestTracer:
    def test_span_nesting_and_parents(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick", n=1)
        records = sink.records
        assert [r["type"] for r in records] == ["start", "event", "span", "span"]
        inner = records[2]
        outer = records[3]
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["span"]
        assert records[1]["parent"] == inner["span"]
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)

    def test_recorder_keeps_spans_and_emits_nothing(self):
        recorder = SpanRecorder()
        assert recorder.enabled is False
        with recorder.span("outer", k=1):
            with recorder.span("inner") as inner:
                inner.annotate(states=2)
                recorder.event("tick")  # dropped: not tracing
        assert [r["name"] for r in recorder.spans] == ["inner", "outer"]
        assert recorder.spans[0]["parent"] == recorder.spans[1]["span"]
        assert recorder.spans[0]["attrs"] == {"states": 2}

    def test_tracer_keeps_the_records_it_writes(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("solve"):
            pass
        written = [r for r in sink.records if r["type"] == "span"]
        assert tracer.spans == written

    def test_event_bound_counts_drops(self):
        sink = MemorySink()
        tracer = Tracer(sink, max_events=3)
        for index in range(10):
            tracer.event("tick", n=index)
        tracer.run_record(outcome="ok")
        run = sink.records[-1]
        assert run["events"] == 3
        assert run["dropped_events"] == 7
        assert sum(1 for r in sink.records if r["type"] == "event") == 3

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything") as span:
            span.annotate(extra=1)
        NULL_TRACER.event("tick")
        NULL_TRACER.run_record(outcome="ok")
        NULL_TRACER.close()  # no sink, no error

    def test_jsonl_sink_round_trip(self):
        buffer = io.StringIO()
        tracer = Tracer(JsonlSink(buffer, close_handle=False))
        with tracer.span("solve", states=3):
            tracer.event("pivot", column=0)
        tracer.run_record(outcome="ok")
        records = validate_trace_lines(buffer.getvalue().splitlines())
        assert [r["type"] for r in records] == ["start", "event", "span", "run"]


class TestSchema:
    def _trace(self) -> list[dict]:
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("sample"):
            tracer.event("sample", index=1, hit=True, positive=1)
        tracer.run_record(outcome="ok")
        return sink.records

    def test_valid_trace_passes(self):
        assert len(validate_trace_records(self._trace())) == 4

    def test_missing_version_rejected(self):
        records = self._trace()
        del records[0]["v"]
        with pytest.raises(TraceSchemaError, match="schema version"):
            validate_trace_records(records)

    def test_newer_version_rejected(self):
        records = self._trace()
        records[0]["v"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(TraceSchemaError, match="newer"):
            validate_trace_records(records)

    def test_unknown_type_rejected(self):
        records = self._trace()
        records[1]["type"] = "mystery"
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            validate_trace_records(records)

    def test_unknown_keys_tolerated(self):
        records = self._trace()
        records[2]["future_field"] = {"nested": True}
        validate_trace_records(records)

    def test_must_open_with_start(self):
        records = self._trace()[1:]
        with pytest.raises(TraceSchemaError, match="must open with"):
            validate_trace_records(records)

    def test_dangling_parent_rejected(self):
        records = self._trace()
        records[1]["parent"] = 999
        with pytest.raises(TraceSchemaError, match="never appears"):
            validate_trace_records(records)

    def test_negative_duration_rejected(self):
        records = self._trace()
        records[2]["wall_s"] = -0.5
        with pytest.raises(TraceSchemaError, match="non-negative"):
            validate_trace_records(records)

    def test_invalid_json_line_reports_line_number(self):
        with pytest.raises(TraceSchemaError, match="line 2"):
            validate_trace_lines(
                ['{"type": "start", "ts": 0, "v": 1}', "{nope"]
            )


class TestReport:
    def _traced_run(self) -> list[dict]:
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("chain-build"):
            tracer.event("chain-state", expanded=1, discovered=2, frontier=1)
        with tracer.span("sample"):
            for index in range(1, 21):
                tracer.event("sample", index=index, hit=index % 3 == 0,
                             positive=index // 3)
        tracer.run_record(outcome="ok", estimate=0.333,
                          report={"outcome": "ok", "method": "mcmc",
                                  "spent": {"steps": 20}})
        return sink.records

    def test_summary_aggregates(self):
        summary = summarize(validate_trace_records(self._traced_run()))
        assert set(summary.phases) == {"chain-build", "sample"}
        assert summary.events_by_name["sample"] == 20
        assert len(summary.curve) == 20
        assert summary.curve[-1] == (20, 6 / 20)
        assert summary.run["estimate"] == 0.333

    def test_render_contains_sections(self):
        summary = summarize(validate_trace_records(self._traced_run()))
        text = render_summary(summary)
        assert "phase breakdown" in text
        assert "chain-build" in text
        assert "convergence" in text
        assert "estimate: 0.333" in text
        assert "sample                   20" in text

    def test_as_dict_shape(self):
        summary = summarize(validate_trace_records(self._traced_run()))
        payload = summary.as_dict()
        json.dumps(payload)  # JSON-serialisable
        assert payload["phases"]["sample"]["count"] == 1
        assert payload["events"] == {"chain-state": 1, "sample": 20}
        assert payload["curve"][0] == [1, 0.0]

    def test_empty_trace_renders(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.run_record(outcome="ok")
        summary = summarize(validate_trace_records(sink.records))
        assert "(no spans recorded)" in render_summary(summary)
