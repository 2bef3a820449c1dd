"""Trace introspection: load a JSONL trace, summarise it for humans.

Backs the ``repro report <trace.jsonl>`` subcommand and the tests'
round-trip checks.  A :class:`TraceSummary` aggregates

* the **phase breakdown** — exclusive wall/CPU totals per span name,
  with call counts, from :func:`~repro.obs.profile.phase_totals`: the
  same figures as the run record's ``report.phases``, and they
  partition the instrumented part of the run's wall clock;
* the **convergence curve** of the Cesàro / probability estimate —
  rebuilt from per-sample ``sample`` events (``index``, ``positive``)
  that the Thm 5.6 / Thm 4.3 samplers emit, the same running ratio an
  operator would watch to judge mixing;
* the run envelope — outcome, method, estimate, spent budget, events
  emitted/dropped — from the closing ``run`` record.

Rendering is plain text with an ASCII sparkline for the curve: readable
over SSH, diffable in CI logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.profile import phase_totals, render_phases, span_tree
from repro.obs.schema import validate_trace_file, validate_trace_lines

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


@dataclass
class TraceSummary:
    """Everything ``repro report`` prints, as data."""

    records: list[dict] = field(default_factory=list)
    phases: dict[str, dict[str, Any]] = field(default_factory=dict)
    events_by_name: dict[str, int] = field(default_factory=dict)
    curve: list[tuple[int, float]] = field(default_factory=list)
    run: dict[str, Any] | None = None

    @property
    def total_wall_seconds(self) -> float:
        return round(
            sum(timing["wall_seconds"] for timing in self.phases.values()), 9
        )

    def as_dict(self) -> dict:
        """JSON shape for ``repro report --json``."""
        return {
            "phases": self.phases,
            "total_wall_seconds": self.total_wall_seconds,
            "events": dict(self.events_by_name),
            "curve": [[index, value] for index, value in self.curve],
            "run": self.run,
        }


def summarize(records: list[dict]) -> TraceSummary:
    """Fold validated trace records into a :class:`TraceSummary`.

    Phases are the spans' exclusive totals (a span minus its local
    children), so nested phases are not counted twice.
    """
    summary = TraceSummary(
        records=records, phases=phase_totals(span_tree(records))
    )
    for record in records:
        kind = record["type"]
        if kind == "event":
            name = record["name"]
            summary.events_by_name[name] = summary.events_by_name.get(name, 0) + 1
            if name == "sample" and "index" in record and "positive" in record:
                index = record["index"]
                if index > 0:
                    summary.curve.append(
                        (index, record["positive"] / index)
                    )
        elif kind == "run":
            summary.run = record
    return summary


def load_summary(path: str) -> TraceSummary:
    """Validate + summarise one trace file."""
    return summarize(validate_trace_file(path))


def summarize_lines(lines: list[str]) -> TraceSummary:
    """Validate + summarise in-memory JSONL lines (the service trace)."""
    return summarize(validate_trace_lines(lines))


def _sparkline(values: list[float], width: int = 60) -> str:
    if not values:
        return ""
    if len(values) > width:
        # Down-sample by striding so the curve keeps its shape.
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    return "".join(
        _SPARK_GLYPHS[
            min(len(_SPARK_GLYPHS) - 1,
                int((v - low) / span * len(_SPARK_GLYPHS)))
        ]
        for v in values
    )


def render_summary(summary: TraceSummary) -> str:
    """The human-facing report text."""
    lines: list[str] = []
    run = summary.run or {}
    report = run.get("report") or {}

    lines.append("trace report")
    lines.append("============")
    if report:
        lines.append(f"outcome:  {report.get('outcome', '?')}")
        lines.append(f"method:   {report.get('method', '?')}")
    if run.get("estimate") is not None:
        lines.append(f"estimate: {run['estimate']}")
    spent = report.get("spent") or {}
    if spent:
        lines.append(
            "spent:    "
            + ", ".join(f"{key}={value}" for key, value in sorted(spent.items()))
        )
    lines.append("")

    lines.extend(render_phases(summary.phases))
    lines.append("")

    if summary.curve:
        lines.append("convergence (running estimate per sample)")
        lines.append("-----------------------------------------")
        values = [value for _, value in summary.curve]
        lines.append(_sparkline(values))
        first_i, first_v = summary.curve[0]
        last_i, last_v = summary.curve[-1]
        lines.append(
            f"sample {first_i}: {first_v:.6f}  →  sample {last_i}: {last_v:.6f}"
        )
        lines.append("")

    if summary.events_by_name:
        lines.append("events")
        lines.append("------")
        for name, count in sorted(summary.events_by_name.items()):
            lines.append(f"{name:<24} {count}")
        dropped = run.get("dropped_events", 0)
        if dropped:
            lines.append(f"(+ {dropped} events dropped past the cap)")
    return "\n".join(lines) + "\n"


def render_trace_file(path: str) -> str:
    """Load, validate and render one trace file."""
    return render_summary(load_summary(path))
