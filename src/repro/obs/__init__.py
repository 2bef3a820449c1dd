"""Observability: tracing, unified metrics, run introspection.

A stdlib-only leaf package — :mod:`repro.core` imports it freely
without creating a cycle back through :mod:`repro.runtime` or
:mod:`repro.service`.  See ``docs/observability.md`` for the span
model, the metric-name table, and the trace-schema policy.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PROFILE_VERSION,
    SpanBuffer,
    drain_worker_spans,
    folded_stacks,
    phase_totals,
    profile_from_trace,
    profile_payload,
    render_flame,
    render_profile,
    span_tree,
    stitch_spans,
    worker_tracer,
)
from repro.obs.report import (
    TraceSummary,
    load_summary,
    render_summary,
    render_trace_file,
    summarize,
    summarize_lines,
)
from repro.obs.schema import (
    TraceSchemaError,
    validate_record,
    validate_trace_file,
    validate_trace_lines,
    validate_trace_records,
)
from repro.obs.trace import (
    DEFAULT_MAX_EVENTS,
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    NullTracer,
    Sink,
    SpanRecorder,
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceSpan,
    phase_scope,
    tracer_of,
)

__all__ = [
    "Counter",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROFILE_VERSION",
    "Sink",
    "SpanBuffer",
    "SpanRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceSchemaError",
    "TraceSpan",
    "TraceSummary",
    "Tracer",
    "drain_worker_spans",
    "folded_stacks",
    "load_summary",
    "phase_scope",
    "phase_totals",
    "profile_from_trace",
    "profile_payload",
    "render_flame",
    "render_profile",
    "render_summary",
    "render_trace_file",
    "span_tree",
    "stitch_spans",
    "summarize",
    "summarize_lines",
    "tracer_of",
    "worker_tracer",
    "validate_record",
    "validate_trace_file",
    "validate_trace_lines",
    "validate_trace_records",
]
