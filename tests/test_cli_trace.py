"""End-to-end tracing through the CLI: ``--trace`` and ``repro report``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import phase_totals, span_tree, summarize, validate_trace_file

from tests.test_cli import workspace  # noqa: F401  (fixture re-export)


def _run_traced(workspace, tmp_path, capsys) -> tuple[list[dict], dict]:
    """A seeded MCMC walk with --trace; returns (records, cli payload)."""
    trace = tmp_path / "run.jsonl"
    code = main(
        [
            "forever",
            workspace["walk"],
            "--db",
            workspace["db"],
            "--event",
            "C(b)",
            "--mcmc",
            "--samples",
            "300",
            "--burn-in",
            "50",
            "--seed",
            "7",
            "--json",
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    return validate_trace_file(str(trace)), payload


class TestTracedRun:
    def test_trace_is_schema_valid_and_complete(self, workspace, tmp_path, capsys):
        records, payload = _run_traced(workspace, tmp_path, capsys)
        assert records[0]["type"] == "start"
        run = records[-1]
        assert run["type"] == "run"
        assert run["outcome"] == "ok"
        assert (run["kind"], run["method"]) == ("sampling", "thm-5.6")
        # MCMC samples trajectories directly — no chain materialisation.
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"parse", "sample"} <= span_names

    def test_phase_totals_reconcile_with_report(self, workspace, tmp_path, capsys):
        records, payload = _run_traced(workspace, tmp_path, capsys)
        run = records[-1]
        wall_clock = run["report"]["spent"]["wall_clock"]
        phase_total = sum(
            r["wall_s"]
            for r in records
            if r["type"] == "span" and r.get("parent") is None
        )
        # Top-level phase spans partition the run; their total must agree
        # with the budget-tracked wall clock to within 5% (plus a tiny
        # absolute floor for sub-millisecond runs).
        assert abs(phase_total - wall_clock) <= max(0.05 * wall_clock, 0.005)

    def test_sample_events_feed_convergence_curve(self, workspace, tmp_path, capsys):
        records, payload = _run_traced(workspace, tmp_path, capsys)
        summary = summarize(records)
        assert summary.events_by_name["sample"] > 0
        assert summary.curve
        final_index, final_value = summary.curve[-1]
        assert final_index == summary.events_by_name["sample"]
        assert 0.0 <= final_value <= 1.0
        # The curve's tail is the MCMC running estimate itself.
        assert final_value == pytest.approx(float(payload["estimate"]), abs=1e-9)


class TestReportCommand:
    def test_report_renders_trace(self, workspace, tmp_path, capsys):
        _run_traced(workspace, tmp_path, capsys)
        code = main(["report", str(tmp_path / "run.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "sample" in out
        assert "convergence" in out

    def test_report_json_round_trips(self, workspace, tmp_path, capsys):
        _run_traced(workspace, tmp_path, capsys)
        code = main(["report", str(tmp_path / "run.jsonl"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sample" in payload["phases"]
        assert payload["run"]["outcome"] == "ok"

    def test_report_agrees_with_the_run(self, tmp_path, capsys):
        """``repro report`` reads the run's own phase figures: nested
        spans (chain-build and solve under partition-solve) are not
        counted twice."""
        examples = Path(__file__).resolve().parents[1] / "examples" / "programs"
        trace = tmp_path / "partitioned.jsonl"
        code = main([
            "forever", str(examples / "two_walkers.ra"),
            "--db", str(examples / "two_walkers.db.json"),
            "--event", "C(b) and D(a)", "--partition", "auto",
            "--trace", str(trace), "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["probability"] == "1/4"
        records = validate_trace_file(str(trace))
        phases = records[-1]["report"]["phases"]
        assert phases["partition-solve"]["count"] == 2
        assert phases == phase_totals(span_tree(records))

        assert main(["report", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["phases"] == phases
        assert summary["total_wall_seconds"] == round(
            sum(timing["wall_seconds"] for timing in phases.values()), 9
        )

    def test_report_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery", "v": 1}\n')
        code = main(["report", str(bad)])
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_renders_span_tree(self, workspace, tmp_path, capsys):
        _run_traced(workspace, tmp_path, capsys)
        code = main(["profile", str(tmp_path / "run.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "phase breakdown" in out
        assert "sample" in out

    def test_profile_json_payload(self, workspace, tmp_path, capsys):
        _run_traced(workspace, tmp_path, capsys)
        code = main(["profile", str(tmp_path / "run.jsonl"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile_version"] == 2
        assert payload["spans"]
        assert "sample" in payload["phases"]
        assert "ledger" not in payload
        assert payload["phases"] == phase_totals(payload["spans"])

    def test_profile_flame_matches_report_flame(self, workspace, tmp_path, capsys):
        _run_traced(workspace, tmp_path, capsys)
        trace = str(tmp_path / "run.jsonl")
        assert main(["profile", trace, "--flame"]) == 0
        from_profile = capsys.readouterr().out
        assert main(["report", trace, "--flame"]) == 0
        from_report = capsys.readouterr().out
        assert from_profile == from_report
        lines = from_report.splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) >= 0
            for frame in stack.split(";"):
                assert frame and " " not in frame


class TestTraceFailureModes:
    """Empty and torn trace files fail cleanly: exit 2, one line on
    stderr, no traceback."""

    def _assert_clean_failure(self, capsys, argv) -> None:
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["report", "profile"])
    def test_empty_trace_file(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        self._assert_clean_failure(capsys, [command, str(empty)])

    @pytest.mark.parametrize("command", ["report", "profile"])
    def test_torn_last_line(self, workspace, tmp_path, capsys, command):
        _run_traced(workspace, tmp_path, capsys)
        trace = tmp_path / "run.jsonl"
        text = trace.read_text()
        trace.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        self._assert_clean_failure(capsys, [command, str(trace)])


class TestNoTraceFlag:
    def test_runs_without_trace_write_nothing(self, workspace, tmp_path, capsys):
        code = main(
            ["forever", workspace["walk"], "--db", workspace["db"],
             "--event", "C(b)"]
        )
        assert code == 0
        assert not list(tmp_path.glob("*.jsonl"))
