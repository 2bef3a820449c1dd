"""Hierarchical evaluation tracing: spans, step events, JSONL emission.

The paper's algorithms are iterative stochastic processes — fixpoint
runs (Thm 4.3), chain construction and stationary solves (Prop 5.4 /
Thm 5.5), mixing-time sampling walks (Thm 5.6) — and a flat result
object hides where the time and state-space budget went.  A
:class:`Tracer` records

* **spans** — timed phases with parent/child structure (``parse`` →
  ``chain-build`` → ``solve`` / ``sample``), wall *and* CPU seconds;
* **step events** — bounded, cheap progress points inside a span
  (fixpoint iteration: tuples added; Markov walk: states discovered,
  frontier size, event hits; sampler: per-sample tallies; solver:
  elimination pivots).

Records are JSON-friendly dicts with a versioned schema (see
:mod:`repro.obs.schema`); sinks decide where they go — a JSONL file
(:class:`JsonlSink`, the CLI ``--trace`` path) or an in-memory ring
(:class:`MemorySink`, the service's per-job trace served by
``GET /v1/jobs/<id>/trace``).

Spans are the one clock of a run.  A :class:`SpanRecorder` keeps every
closed span's record and emits nothing; a run context holds one when
the run is not traced, so ``RunReport.phases`` (the spans' exclusive
totals, :func:`repro.obs.profile.phase_totals`) exists either way.  A
:class:`Tracer` is a span recorder that also writes every record —
the same dict it keeps — to its sink, plus step events.

Cost discipline: tracing must be free when off.  A recorder's
``enabled`` is ``False``, :data:`NULL_TRACER` is a singleton whose
methods are no-ops, and every instrumented hot loop guards event
emission with the plain attribute check ``if tracer.enabled:`` — one
dictionary-free boolean load per iteration, measured at < 2% overhead
by ``benchmarks/run_benchmarks.py``.
Event volume is bounded per tracer (``max_events``); past the bound
events are counted but dropped, and the drop count is recorded on the
closing ``run`` record so truncation is never silent.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Callable, IO, Mapping

#: Version of the emitted trace schema.  Policy (see DESIGN.md): bump on
#: any backwards-incompatible change to record fields; readers accept
#: records with ``v`` <= their own version and must ignore unknown keys.
#: v2: spans stitched from worker processes (see
#: :mod:`repro.obs.profile`) carry ``worker_id`` / ``spawn_generation``
#: in ``attrs``; v1 traces remain valid v2 traces.
TRACE_SCHEMA_VERSION = 2

#: Default cap on emitted (not merely counted) step events per tracer.
DEFAULT_MAX_EVENTS = 10_000


class Sink:
    """Where trace records go.  Subclasses implement :meth:`write`."""

    def write(self, record: Mapping[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources (default: nothing to do)."""


class MemorySink(Sink):
    """Collect records in a list (the per-job service trace)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: Mapping[str, Any]) -> None:
        self.records.append(dict(record))


class JsonlSink(Sink):
    """Write one JSON object per line to a file handle it owns."""

    def __init__(self, handle: IO[str], close_handle: bool = True):
        self._handle = handle
        self._close_handle = close_handle

    @classmethod
    def open(cls, path: str) -> "JsonlSink":
        return cls(open(path, "w", encoding="utf-8"))

    def write(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._close_handle:
            self._handle.close()


class TraceSpan:
    """One timed phase of a run; a context manager.

    Created through :meth:`SpanRecorder.span`; closing it hands a
    ``span`` record with wall and CPU durations to the recorder.
    Attributes passed at creation (or added via :meth:`annotate`) land
    on the record's ``attrs``.
    """

    __slots__ = (
        "recorder", "name", "span_id", "parent_id", "attrs",
        "_wall_start", "_cpu_start",
    )

    def __init__(self, recorder: "SpanRecorder", name: str,
                 parent_id: int | None, attrs: dict[str, Any]):
        self.recorder = recorder
        self.name = name
        self.span_id = next(recorder._ids)
        self.parent_id = parent_id
        self.attrs = attrs

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span record (last write wins)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "TraceSpan":
        self.recorder._stack.append(self.span_id)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._wall_start
        cpu = time.process_time() - self._cpu_start
        stack = self.recorder._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.recorder._close_span({
            "type": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "wall_s": round(wall, 9),
            "cpu_s": round(cpu, 9),
            "attrs": self.attrs,
        })


class NullSpan:
    """The reusable do-nothing span of :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a near-zero-cost no-op.

    Hot loops guard with ``if tracer.enabled:`` (a plain attribute
    load); code outside hot loops may call :meth:`span` / :meth:`event`
    unconditionally.  It records no spans (``spans`` stays empty).
    """

    __slots__ = ()

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        pass

    def run_record(self, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()


class SpanRecorder:
    """Keeps the record of every closed span; emits nothing.

    The span clock of an untraced run: ``enabled`` is ``False``, so
    step events are skipped, but spans still nest and time themselves,
    and :attr:`spans` holds their records in close order.  Not
    thread-safe by design: one recorder times one run.
    """

    enabled = False

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self.spans: list[dict[str, Any]] = []

    @property
    def current_span_id(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> TraceSpan:
        """Open a (context-manager) span under the current one."""
        return TraceSpan(self, name, self.current_span_id, attrs)

    def _close_span(self, record: dict[str, Any]) -> None:
        self.spans.append(record)

    def event(self, name: str, **fields: Any) -> None:
        pass

    def run_record(self, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer(SpanRecorder):
    """An enabled tracer bound to one sink.

    A :class:`SpanRecorder` that also writes each span record it keeps
    to the sink, plus step events and the closing ``run`` record.
    ``max_events`` bounds the number of step events *written*; further
    events are counted and the overflow is reported on the ``run``
    record as ``dropped_events``.

    Examples
    --------
    >>> sink = MemorySink()
    >>> tracer = Tracer(sink)
    >>> with tracer.span("solve", states=3):
    ...     tracer.event("pivot", column=0)
    >>> [r["type"] for r in sink.records]
    ['event', 'span']
    >>> sink.records[0]["parent"] == sink.records[1]["span"]
    True
    >>> tracer.spans[0]["name"]
    'solve'
    """

    enabled = True

    def __init__(self, sink: Sink, max_events: int = DEFAULT_MAX_EVENTS,
                 clock: Callable[[], float] = time.time):
        super().__init__()
        self.sink = sink
        self.max_events = max_events
        self._clock = clock
        self.events_emitted = 0
        self.events_dropped = 0
        self._emit({"type": "start", "ts": self._clock()})

    # -- record plumbing ----------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        record["v"] = TRACE_SCHEMA_VERSION
        self.sink.write(record)

    def _close_span(self, record: dict[str, Any]) -> None:
        self.spans.append(record)
        self._emit(record)

    # -- the API -------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Record one bounded step event under the current span."""
        if self.events_emitted >= self.max_events:
            self.events_dropped += 1
            return
        self.events_emitted += 1
        self._emit({
            "type": "event",
            "name": name,
            "parent": self.current_span_id,
            **fields,
        })

    def run_record(self, **fields: Any) -> None:
        """Write the closing ``run`` record (report, outcome, totals)."""
        self._emit({
            "type": "run",
            "ts": self._clock(),
            "events": self.events_emitted,
            "dropped_events": self.events_dropped,
            **fields,
        })

    def close(self) -> None:
        self.sink.close()


def tracer_of(context: Any) -> "SpanRecorder | NullTracer":
    """The tracer carried by an optional run context.

    Evaluators receive ``context: RunContext | None``; this normalises
    both the ``None`` case and contexts created before tracing existed
    (duck-typed, so :mod:`repro.core` need not import the runtime
    layer).
    """
    if context is None:
        return NULL_TRACER
    return getattr(context, "tracer", NULL_TRACER)


def phase_scope(context: Any, name: str, **attrs: Any):
    """A phase context manager on an optional run context.

    The span opens on the context's recorder, as ``RunContext.phase``
    does; its exclusive totals are the
    :class:`~repro.runtime.context.RunReport`'s phases.  With no context
    the scope is the no-op span.
    """
    return tracer_of(context).span(name, **attrs)
