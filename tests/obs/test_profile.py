"""The profiling subsystem: span buffers, stitching, phase totals, rendering."""

from __future__ import annotations

import pytest

from repro.obs import (
    MemorySink,
    NULL_TRACER,
    SpanBuffer,
    Tracer,
    TraceSchemaError,
    drain_worker_spans,
    folded_stacks,
    phase_totals,
    profile_from_trace,
    profile_payload,
    render_flame,
    render_profile,
    span_tree,
    stitch_spans,
    validate_trace_lines,
    validate_trace_records,
    worker_tracer,
)
from repro.obs.profile import WORKER_MAX_SPANS


def _worker_records() -> list[dict]:
    """What a worker task records: nested spans plus one event."""
    buffer = SpanBuffer()
    with buffer.span("component-solve", component="c0"):
        with buffer.span("chain-build", states=4):
            buffer.event("tick", n=1)
        with buffer.span("solve", states=4):
            pass
    return buffer.drain()


class TestSpanBuffer:
    def test_worker_tracer_follows_profile_flag(self):
        assert isinstance(worker_tracer({"profile": True}), SpanBuffer)
        assert worker_tracer({"profile": False}) is NULL_TRACER
        assert worker_tracer({}) is NULL_TRACER

    def test_drain_returns_only_spans_and_events(self):
        records = _worker_records()
        assert records  # non-empty
        assert all(r["type"] in ("span", "event") for r in records)
        assert all(r["v"] >= 2 for r in records if "v" in r)

    def test_drain_detaches_the_buffer(self):
        buffer = SpanBuffer()
        with buffer.span("work"):
            pass
        assert buffer.drain()
        assert buffer.drain() == []

    def test_drain_caps_record_count(self):
        buffer = SpanBuffer(max_events=10 * WORKER_MAX_SPANS)
        for index in range(WORKER_MAX_SPANS + 50):
            with buffer.span("s", n=index):
                pass
        assert len(buffer.drain()) == WORKER_MAX_SPANS

    def test_drain_worker_spans_helper(self):
        assert drain_worker_spans(NULL_TRACER) is None
        assert drain_worker_spans(Tracer(MemorySink())) is None
        empty = SpanBuffer()
        assert drain_worker_spans(empty) is None
        busy = SpanBuffer()
        with busy.span("work"):
            pass
        assert drain_worker_spans(busy)


class TestStitchSpans:
    def _parent(self) -> tuple[Tracer, MemorySink]:
        sink = MemorySink()
        return Tracer(sink), sink

    def test_roots_reparent_under_dispatching_span(self):
        tracer, sink = self._parent()
        records = _worker_records()
        with tracer.span("partition-solve"):
            count = stitch_spans(
                tracer, records, worker_id=3, spawn_generation=1
            )
        assert count == len(records)
        spans = [r for r in sink.records if r["type"] == "span"]
        dispatch = next(s for s in spans if s["name"] == "partition-solve")
        stitched_root = next(s for s in spans if s["name"] == "component-solve")
        assert stitched_root["parent"] == dispatch["span"]
        assert stitched_root["attrs"]["worker_id"] == 3
        assert stitched_root["attrs"]["spawn_generation"] == 1
        # The whole stitched trace still validates as one schema-clean file.
        tracer.run_record(outcome="ok")
        validate_trace_records(sink.records)

    def test_internal_structure_survives_the_remap(self):
        tracer, sink = self._parent()
        with tracer.span("dispatch"):
            stitch_spans(tracer, _worker_records(), worker_id=0)
        spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
        root = spans["component-solve"]
        assert spans["chain-build"]["parent"] == root["span"]
        assert spans["solve"]["parent"] == root["span"]
        # Remapped ids are unique and distinct from the dispatch span.
        ids = [r["span"] for r in sink.records if r["type"] == "span"]
        assert len(ids) == len(set(ids))

    def test_worker_events_ride_along(self):
        tracer, sink = self._parent()
        with tracer.span("dispatch"):
            stitch_spans(tracer, _worker_records(), worker_id=7)
        events = [r for r in sink.records if r["type"] == "event"]
        assert len(events) == 1
        assert events[0]["worker_id"] == 7

    def test_stitch_respects_parent_event_bound(self):
        sink = MemorySink()
        tracer = Tracer(sink, max_events=1)
        buffer = SpanBuffer()
        with buffer.span("work"):
            for index in range(5):
                buffer.event("tick", n=index)
        with tracer.span("dispatch"):
            stitch_spans(tracer, buffer.drain())
        assert sum(1 for r in sink.records if r["type"] == "event") == 1
        assert tracer.events_dropped == 4

    def test_disabled_or_empty_is_a_noop(self):
        assert stitch_spans(NULL_TRACER, _worker_records()) == 0
        tracer, sink = self._parent()
        assert stitch_spans(tracer, None) == 0
        assert stitch_spans(tracer, []) == 0
        assert [r["type"] for r in sink.records] == ["start"]


def _local_trace() -> tuple[list[dict], dict]:
    """A parent trace with one stitched worker subtree and a run record."""
    sink = MemorySink()
    tracer = Tracer(sink)
    with tracer.span("partition-plan"):
        pass
    with tracer.span("partition-solve", workers=2):
        stitch_spans(tracer, _worker_records(), worker_id=0,
                     spawn_generation=0)
    report = {"phases": phase_totals(span_tree(tracer.spans))}
    tracer.run_record(outcome="ok", job_id="job-1", report=report)
    return sink.records, report


class TestSpanTree:
    def test_exclusive_excludes_local_children_only(self):
        records, _ = _local_trace()
        roots = span_tree(records)
        solve = next(n for n in roots if n["name"] == "partition-solve")
        worker_root = solve["children"][0]
        assert worker_root["attrs"]["worker_id"] == 0
        # Worker subtree ran in another process: the dispatching span's
        # exclusive time is NOT reduced by it.
        assert solve["excl_wall_s"] == pytest.approx(solve["wall_s"])
        # But the worker's own children are local to the worker.
        child_wall = sum(c["wall_s"] for c in worker_root["children"])
        assert worker_root["excl_wall_s"] == pytest.approx(
            max(0.0, worker_root["wall_s"] - child_wall)
        )

    def test_phase_totals_skip_worker_spans(self):
        records, report = _local_trace()
        totals = phase_totals(span_tree(records))
        assert set(totals) == {"partition-plan", "partition-solve"}
        # Stitched spans change neither the names nor the figures.
        assert totals == report["phases"]

    def test_phase_totals_are_exclusive_with_cpu_and_count(self):
        tracer = Tracer(MemorySink())
        for _ in range(2):
            with tracer.span("chain-build"):
                with tracer.span("solve"):
                    pass
        totals = phase_totals(span_tree(tracer.spans))
        assert totals["chain-build"]["count"] == 2
        assert totals["solve"]["count"] == 2
        outer = [r for r in tracer.spans if r["name"] == "chain-build"]
        inner = [r for r in tracer.spans if r["name"] == "solve"]
        wall = sum(max(0.0, o["wall_s"] - i["wall_s"])
                   for o, i in zip(outer, inner))
        cpu = sum(max(0.0, o["cpu_s"] - i["cpu_s"])
                  for o, i in zip(outer, inner))
        assert totals["chain-build"]["wall_seconds"] == round(wall, 9)
        assert totals["chain-build"]["cpu_seconds"] == round(cpu, 9)

    def test_folded_stacks_are_parseable(self):
        records, _ = _local_trace()
        lines = folded_stacks(records)
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack  # every line has frames and a weight
            assert int(weight) >= 0
            for frame in stack.split(";"):
                assert frame and " " not in frame
        joined = "\n".join(lines)
        assert "component-solve[component=c0,worker_id=0]" in joined


class TestProfilePayload:
    def test_payload_shape(self):
        records, report = _local_trace()
        payload = profile_payload(records, report, job_id="job-1")
        assert payload["job_id"] == "job-1"
        assert payload["phases"] == report["phases"]
        assert payload["spans"]
        assert payload["folded"] == folded_stacks(records)

    def test_profile_from_trace_reads_the_run_record(self):
        records, report = _local_trace()
        payload = profile_from_trace(records)
        assert payload["job_id"] == "job-1"
        assert payload["phases"] == report["phases"]

    def test_render_profile_text(self):
        records, report = _local_trace()
        text = render_profile(profile_payload(records, report, job_id="j"))
        assert "span tree" in text
        assert "component-solve" in text
        assert "worker_id=0" in text

    def test_render_flame_ends_with_newline(self):
        records, _ = _local_trace()
        assert render_flame(records).endswith("\n")

    def test_empty_inputs_render(self):
        payload = profile_payload([], None)
        assert payload["spans"] == []
        assert "(no spans recorded)" in render_profile(payload)


class TestTraceFailureModes:
    def test_empty_trace_raises_typed_error(self):
        with pytest.raises(TraceSchemaError, match="empty"):
            validate_trace_lines([])
        with pytest.raises(TraceSchemaError, match="empty"):
            validate_trace_lines(["", "   ", ""])

    def test_torn_last_line_raises_typed_error(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work"):
            pass
        tracer.run_record(outcome="ok")
        import json as _json

        lines = [_json.dumps(r) for r in sink.records]
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn mid-write
        with pytest.raises(TraceSchemaError, match="invalid JSON"):
            validate_trace_lines(lines)

    def test_trace_schema_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(TraceSchemaError, ReproError)
        assert issubclass(TraceSchemaError, ValueError)
        error = TraceSchemaError("boom", 3)
        assert error.details == {"line": 3}
