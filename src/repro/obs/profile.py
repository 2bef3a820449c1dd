"""End-to-end query profiling: worker span buffers, exclusive phase
totals, and EXPLAIN-ANALYZE-style rendering.

A run's spans stop at process boundaries: spans recorded inside the
supervisor's warm workers (trial chunks, pooled partition components)
never reach the parent's sink on their own.  This module closes the gap
and reads the result:

* :class:`SpanBuffer` — a :class:`~repro.obs.trace.Tracer` writing to a
  bounded in-memory sink whose records are plain picklable dicts.
  Workers attach one to their :class:`~repro.perf.parallel.WorkerContext`
  and ship ``drain()`` back on the results queue inside the ordinary
  task payload.
* :func:`stitch_spans` — the parent-side merge: worker-local span ids
  are remapped through the parent tracer's id counter, roots are
  re-parented under the dispatching span, and every stitched span is
  labelled with ``worker_id`` / ``spawn_generation`` so the trace shows
  *which* worker (and which restart generation) did the work.
* :func:`phase_totals` — the one exclusive-time function: per span
  name, exclusive wall and CPU seconds and the span count.
  ``RunReport.phases``, ``repro report`` and the profile all read it.

Rendering lives here too: :func:`profile_payload` builds the JSON shape
served at ``GET /v1/jobs/<id>/profile``; :func:`render_profile` prints
the plan → component → rung → phase cost tree with exclusive wall/CPU,
and :func:`folded_stacks` emits folded-stack lines
(``frame;frame;frame <microseconds>``) consumable by standard
flamegraph tooling.

Exclusive-time convention: a span's exclusive wall is its inclusive
wall minus the inclusive wall of its *local* children.  Spans stitched
from worker processes ran concurrently with their parent, so they are
excluded from the subtraction, and from the phase totals.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.obs.trace import MemorySink, NullTracer, Tracer

#: Version of the profile payload shape served over HTTP.
#: v2: no ``ledger`` and no ``span_phase_totals`` (``phases`` are the
#: spans' exclusive totals already).
PROFILE_VERSION = 2

#: Default cap on step events recorded inside one worker task.
WORKER_MAX_EVENTS = 512

#: Cap on span records shipped back from one worker task; past it the
#: tail is dropped (observability is best-effort, results are not).
WORKER_MAX_SPANS = 512

#: Span attributes surfaced in tree labels, in render order.
_LABEL_ATTRS = (
    "component", "rung", "method", "mode", "worker_id", "spawn_generation",
    "states", "iterations", "workers",
)


class SpanBuffer(Tracer):
    """A tracer recording into a bounded, picklable in-memory buffer.

    Created inside worker processes (one per task chunk); the parent
    never sees the buffer object itself — only the plain record dicts
    returned by :meth:`drain`, shipped back on the results queue.
    """

    def __init__(self, max_events: int = WORKER_MAX_EVENTS):
        super().__init__(MemorySink(), max_events=max_events)

    def drain(self, max_spans: int = WORKER_MAX_SPANS) -> list[dict]:
        """Detach and return recorded span/event records (bounded)."""
        sink = self.sink
        assert isinstance(sink, MemorySink)
        records = [r for r in sink.records if r.get("type") in ("span", "event")]
        sink.records = []
        if len(records) > max_spans:
            records = records[:max_spans]
        return records


def worker_tracer(task: Mapping[str, Any]) -> SpanBuffer | NullTracer:
    """The tracer a worker entry point should evaluate under.

    Tasks carry ``profile: True`` when the dispatching context is
    traced; anything else gets the free null tracer.
    """
    from repro.obs.trace import NULL_TRACER

    if task.get("profile"):
        return SpanBuffer()
    return NULL_TRACER


def drain_worker_spans(tracer: Any) -> list[dict] | None:
    """``tracer.drain()`` if it is a :class:`SpanBuffer`, else ``None``."""
    if isinstance(tracer, SpanBuffer):
        records = tracer.drain()
        return records or None
    return None


def stitch_spans(
    tracer: Any,
    records: Iterable[Mapping[str, Any]] | None,
    *,
    worker_id: int | None = None,
    spawn_generation: int | None = None,
    parent_id: int | None = None,
) -> int:
    """Merge worker-recorded spans into the parent tracer.

    Worker-local span ids are remapped through the parent's id counter
    (ids must be unique per trace), roots are re-parented under
    ``parent_id`` (default: the span currently open on the parent — the
    dispatching span), and ``worker_id`` / ``spawn_generation`` labels
    are stamped onto every stitched span's ``attrs``.  Returns the
    number of records stitched; a disabled tracer stitches nothing.
    """
    if records is None or not getattr(tracer, "enabled", False):
        return 0
    records = list(records)
    if not records:
        return 0
    if parent_id is None:
        parent_id = tracer.current_span_id
    id_map: dict[int, int] = {}
    for record in records:
        if record.get("type") == "span":
            id_map[record["span"]] = next(tracer._ids)
    stitched = 0
    for record in records:
        kind = record.get("type")
        old_parent = record.get("parent")
        if old_parent is not None and old_parent in id_map:
            new_parent: int | None = id_map[old_parent]
        else:
            new_parent = parent_id
        if kind == "span":
            attrs = dict(record.get("attrs") or {})
            if worker_id is not None:
                attrs["worker_id"] = worker_id
            if spawn_generation is not None:
                attrs["spawn_generation"] = spawn_generation
            tracer._emit({
                "type": "span",
                "name": record["name"],
                "span": id_map[record["span"]],
                "parent": new_parent,
                "wall_s": record["wall_s"],
                "cpu_s": record["cpu_s"],
                "attrs": attrs,
            })
            stitched += 1
        elif kind == "event":
            if tracer.events_emitted >= tracer.max_events:
                tracer.events_dropped += 1
                continue
            tracer.events_emitted += 1
            fields = {
                key: value for key, value in record.items()
                if key not in ("type", "parent", "v")
            }
            fields["parent"] = new_parent
            if worker_id is not None:
                fields.setdefault("worker_id", worker_id)
            tracer._emit({"type": "event", **fields})
            stitched += 1
    return stitched


# ---------------------------------------------------------------------------
# Span tree + renderers
# ---------------------------------------------------------------------------


def _is_worker_span(node: Mapping[str, Any]) -> bool:
    return "worker_id" in (node.get("attrs") or {})


def _worker_of(node: Mapping[str, Any]) -> Any:
    return (node.get("attrs") or {}).get("worker_id")


def span_tree(records: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Build the span forest (roots in open order) from trace records.

    Each node carries inclusive ``wall_s``/``cpu_s`` plus exclusive
    ``excl_wall_s``/``excl_cpu_s`` — inclusive minus *local* children
    (worker-stitched children ran concurrently in another process and
    are not subtracted).
    """
    nodes: dict[int, dict] = {}
    order: list[int] = []
    for record in records:
        if record.get("type") != "span":
            continue
        nodes[record["span"]] = {
            "name": record["name"],
            "span": record["span"],
            "parent": record.get("parent"),
            "wall_s": record["wall_s"],
            "cpu_s": record["cpu_s"],
            "attrs": dict(record.get("attrs") or {}),
            "children": [],
        }
        order.append(record["span"])
    roots: list[dict] = []
    # Spans open in id order (ids are allocated at open time), so
    # sorting by id restores chronological structure regardless of the
    # child-closes-first emission order.
    for span_id in sorted(order):
        node = nodes[span_id]
        parent = node["parent"]
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        # A child is "local" when it ran in the same process as its
        # parent — the process boundary is where the worker id changes
        # (a stitched subtree's *internal* spans share their parent's
        # worker id and are subtracted normally).
        local = [
            child for child in node["children"]
            if _worker_of(child) == _worker_of(node)
        ]
        local_wall = sum(child["wall_s"] for child in local)
        local_cpu = sum(child["cpu_s"] for child in local)
        node["excl_wall_s"] = max(0.0, node["wall_s"] - local_wall)
        node["excl_cpu_s"] = max(0.0, node["cpu_s"] - local_cpu)
    for node in nodes.values():
        node.pop("parent", None)
    return roots


def phase_totals(tree: Iterable[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    """Exclusive wall/CPU seconds and span count per span name.

    The one exclusive-time function: ``RunReport.phases`` is this over
    the run's own spans, and ``repro report`` and the profile read it
    too.  Worker-stitched spans are reported in the tree under their
    own names but measured in another process, so they are skipped.
    Totals are rounded like span records (9 decimals), so the same
    spans give the same totals wherever they are summed.
    """
    totals: dict[str, list] = {}

    def visit(node: Mapping[str, Any]) -> None:
        if not _is_worker_span(node):
            entry = totals.setdefault(node["name"], [0.0, 0.0, 0])
            entry[0] += node["excl_wall_s"]
            entry[1] += node["excl_cpu_s"]
            entry[2] += 1
        for child in node["children"]:
            visit(child)

    for root in tree:
        visit(root)
    return {
        name: {
            "wall_seconds": round(wall, 9),
            "cpu_seconds": round(cpu, 9),
            "count": count,
        }
        for name, (wall, cpu, count) in totals.items()
    }


def _frame_label(node: Mapping[str, Any]) -> str:
    """A folded-stack frame name: span name + discriminating attrs.

    Folded format reserves ``;`` (stack separator) and space (count
    separator), so both are scrubbed.
    """
    attrs = node.get("attrs") or {}
    parts = [
        f"{key}={attrs[key]}" for key in ("component", "rung", "worker_id")
        if key in attrs
    ]
    label = node["name"] + (f"[{','.join(parts)}]" if parts else "")
    return label.replace(";", ":").replace(" ", "_")


def folded_stacks(records: Iterable[Mapping[str, Any]]) -> list[str]:
    """Folded-stack lines (``a;b;c <microseconds>``) from trace records.

    One line per span, weighted by *exclusive* wall in integer
    microseconds — the format ``flamegraph.pl`` / speedscope consume.
    """
    lines: list[str] = []

    def visit(node: Mapping[str, Any], stack: list[str]) -> None:
        stack = stack + [_frame_label(node)]
        micros = int(round(node["excl_wall_s"] * 1e6))
        lines.append(";".join(stack) + f" {micros}")
        for child in node["children"]:
            visit(child, stack)

    for root in span_tree(records):
        visit(root, [])
    return lines


def profile_payload(
    records: list[dict] | None,
    report: Mapping[str, Any] | None,
    *,
    job_id: str | None = None,
) -> dict[str, Any]:
    """The JSON profile served at ``GET /v1/jobs/<id>/profile`` and
    rendered by ``repro profile``: the run report's phases (the
    exclusive totals of the same spans), the span tree, and folded
    stacks."""
    return {
        "profile_version": PROFILE_VERSION,
        "job_id": job_id,
        "phases": dict((report or {}).get("phases") or {}),
        "spans": span_tree(records or []),
        "folded": folded_stacks(records or []),
    }


def profile_from_trace(records: list[dict]) -> dict[str, Any]:
    """Profile payload for a local trace file: the ``RunReport`` rides
    on the closing ``run`` record."""
    report: Mapping[str, Any] | None = None
    job_id = None
    for record in records:
        if record.get("type") == "run":
            report = record.get("report") or None
            job_id = record.get("job_id")
    return profile_payload(records, report, job_id=job_id)


def _format_node(node: Mapping[str, Any]) -> str:
    attrs = node.get("attrs") or {}
    extras = " ".join(
        f"{key}={attrs[key]}" for key in _LABEL_ATTRS if key in attrs
    )
    timing = (
        f"wall {node['wall_s'] * 1000:9.3f} ms  "
        f"excl {node['excl_wall_s'] * 1000:9.3f} ms  "
        f"cpu {node['excl_cpu_s'] * 1000:9.3f} ms"
    )
    return f"{node['name']}  {timing}" + (f"  [{extras}]" if extras else "")


def render_profile(payload: Mapping[str, Any]) -> str:
    """The human-facing ``repro profile`` text: the span tree, then
    the per-phase exclusive totals."""
    lines: list[str] = []
    title = "query profile"
    if payload.get("job_id"):
        title += f" — job {payload['job_id']}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")

    lines.append("span tree (inclusive wall / exclusive wall / exclusive cpu)")
    lines.append("-----------------------------------------------------------")
    spans = payload.get("spans") or []
    if spans:
        def visit(node: Mapping[str, Any], prefix: str, is_last: bool,
                  is_root: bool) -> None:
            if is_root:
                lines.append(_format_node(node))
                child_prefix = ""
            else:
                branch = "└─ " if is_last else "├─ "
                lines.append(prefix + branch + _format_node(node))
                child_prefix = prefix + ("   " if is_last else "│  ")
            children = node.get("children") or []
            for index, child in enumerate(children):
                visit(child, child_prefix, index == len(children) - 1, False)

        for root in spans:
            visit(root, "", True, True)
    else:
        lines.append("(no spans recorded)")
    lines.append("")

    phases = payload.get("phases") or {}
    if phases:
        lines.extend(render_phases(phases))
        lines.append("")

    return "\n".join(lines).rstrip("\n") + "\n"


def render_phases(phases: Mapping[str, Mapping[str, Any]]) -> list[str]:
    """The phase breakdown table: exclusive wall/CPU per phase, with its
    count and share of the total, largest first."""
    lines = ["phase breakdown", "---------------"]
    if not phases:
        return lines + ["(no spans recorded)"]
    total = sum(timing["wall_seconds"] for timing in phases.values())
    width = max(len(name) for name in phases)
    for name, timing in sorted(
        phases.items(), key=lambda item: item[1]["wall_seconds"], reverse=True
    ):
        wall = timing["wall_seconds"]
        share = (wall / total * 100) if total > 0 else 0.0
        lines.append(
            f"{name:<{width}}  "
            f"wall {wall * 1000:10.3f} ms  "
            f"cpu {timing['cpu_seconds'] * 1000:10.3f} ms  "
            f"x{timing['count']:<5d} {share:5.1f}%"
        )
    lines.append(f"{'total':<{width}}  wall {total * 1000:10.3f} ms")
    return lines


def render_flame(records: list[dict]) -> str:
    """Folded-stack text (one frame-stack + weight per line)."""
    return "\n".join(folded_stacks(records)) + "\n"
