"""Observability on the serving layer: job traces and Prometheus export."""

from __future__ import annotations

import threading

import pytest

from repro.errors import JobNotFoundError
from repro.obs import phase_totals, span_tree, validate_trace_records
from repro.service import (
    QueryRequest,
    QueryService,
    ServiceClient,
    ServiceConfig,
    make_server,
)

from tests.obs.prom import parse_prometheus
from tests.service.conftest import walk_body


@pytest.fixture
def served():
    """A started service on an ephemeral port, with its client."""
    service = QueryService(ServiceConfig(workers=2, queue_size=8))
    service.start()
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(wait=False, cancel_running=True)


class TestJobTraces:
    def test_finished_job_exposes_schema_valid_trace(self, served):
        _, client = served
        record = client.submit(walk_body())
        done = client.wait(record["id"], timeout=30.0)
        assert done["trace_available"] is True
        trace = client.trace(record["id"])
        records = validate_trace_records(trace)
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "solve" in names
        run = records[-1]
        assert run["type"] == "run"
        assert run["outcome"] == "done"
        assert run["job_id"] == record["id"]
        assert run["report"]["outcome"] == "ok"

    def test_unknown_job_trace_is_404(self, served):
        _, client = served
        with pytest.raises(JobNotFoundError):
            client.trace("job-0-nope")

    def test_tracing_disabled_reports_no_trace(self):
        service = QueryService(ServiceConfig(workers=1, trace_events=0))
        service.start()
        try:
            job = service.submit(QueryRequest.from_json(walk_body()))
            service.wait(job.id, timeout=30.0)
            record = service.job(job.id).as_dict()
            assert record["trace_available"] is False
            # Untraced runs still time their phases, from their own spans.
            assert {"chain-build", "solve"} <= set(record["report"]["phases"])
            with pytest.raises(JobNotFoundError, match="no trace"):
                service.job_trace(job.id)
        finally:
            service.shutdown(wait=False, cancel_running=True)


def _flatten(spans):
    for span in spans:
        yield span
        yield from _flatten(span["children"])


class TestJobProfile:
    def test_finished_job_serves_a_profile_document(self, served):
        _, client = served
        record = client.submit(walk_body())
        client.wait(record["id"], timeout=30.0)
        profile = client.profile(record["id"])
        assert profile["profile_version"] == 2
        assert "ledger" not in profile and "span_phase_totals" not in profile
        assert profile["job_id"] == record["id"]
        names = {span["name"] for span in _flatten(profile["spans"])}
        assert "solve" in names
        # Every span carries both inclusive and exclusive timings.
        for span in _flatten(profile["spans"]):
            assert span["excl_wall_s"] <= span["wall_s"] + 1e-9
        assert profile["phases"]
        assert profile["folded"]
        stack, _, weight = profile["folded"][0].rpartition(" ")
        assert stack and int(weight) >= 0

    def test_span_phase_totals_reconcile_with_the_report(self, served):
        _, client = served
        record = client.submit(walk_body())
        client.wait(record["id"], timeout=30.0)
        profile = client.profile(record["id"])
        # One clock: the report's phases are the spans' exclusive totals.
        assert profile["phases"]
        assert profile["phases"] == phase_totals(profile["spans"])
        trace = client.trace(record["id"])
        assert trace[-1]["report"]["phases"] == phase_totals(span_tree(trace))

    def test_partitioned_job_profile_carries_worker_spans(self, served):
        """Spans recorded inside pool workers are stitched under the
        dispatching span with worker attribution (trace schema v2)."""
        service, client = served
        program = (
            "C := rename[J->I](project[J](repair-key[I@P](C join E)))\n"
            "D := rename[J->I](project[J](repair-key[I@P](D join E)))\n"
        )
        database = {
            "relations": {
                "C": {"columns": ["I"], "rows": [["a"]]},
                "D": {"columns": ["I"], "rows": [["b"]]},
                "E": {
                    "columns": ["I", "J", "P"],
                    "rows": [
                        ["a", "a", 1],
                        ["a", "b", 1],
                        ["b", "b", 1],
                        ["b", "a", 1],
                    ],
                },
            }
        }
        record = client.submit(
            {
                "semantics": "forever",
                "program": program,
                "database": database,
                "event": "C(b) and D(a)",
                "params": {"partition": "auto", "workers": 2},
            }
        )
        done = client.wait(record["id"], timeout=60.0)
        assert done["state"] == "done"
        profile = client.profile(record["id"])
        worker_spans = [
            span
            for span in _flatten(profile["spans"])
            if "worker_id" in span["attrs"]
        ]
        assert worker_spans, "expected spans recorded inside pool workers"
        assert {span["name"] for span in worker_spans} >= {"component-solve"}
        for span in worker_spans:
            assert span["attrs"]["spawn_generation"] >= 0
        assert len({span["attrs"]["worker_id"] for span in worker_spans}) >= 1
        solved = {
            span["attrs"]["component"]: span["attrs"]
            for span in worker_spans if span["name"] == "component-solve"
        }
        assert set(solved) == {"c0", "c1"}
        assert all(attrs["rung"] == "prop-5.4" for attrs in solved.values())
        # Stitched worker spans stay out of the parent's phase totals.
        assert profile["phases"] == phase_totals(profile["spans"])
        assert done["report"]["phases"] == profile["phases"]
        assert "component-solve" not in profile["phases"]

    def test_unknown_job_profile_is_404(self, served):
        _, client = served
        with pytest.raises(JobNotFoundError):
            client.profile("job-0-nope")

    def test_tracing_disabled_reports_no_profile(self):
        service = QueryService(ServiceConfig(workers=1, trace_events=0))
        service.start()
        try:
            job = service.submit(QueryRequest.from_json(walk_body()))
            service.wait(job.id, timeout=30.0)
            with pytest.raises(JobNotFoundError, match="no profile"):
                service.job_profile(job.id)
        finally:
            service.shutdown(wait=False, cancel_running=True)


class TestPrometheusEndpoint:
    def test_scrape_parses_and_counts_jobs(self, served):
        _, client = served
        record = client.submit(walk_body())
        client.wait(record["id"], timeout=30.0)
        text = client.metrics_prometheus()
        samples = parse_prometheus(text)
        submitted = samples["repro_jobs_submitted_total"]
        assert submitted[0][1] >= 1.0
        finished = dict(
            (labels.get("outcome"), value)
            for labels, value in samples["repro_jobs_finished_total"]
        )
        assert finished.get("done", 0.0) >= 1.0
        # Histograms survive the strict parser's cumulative checks.
        assert "repro_job_run_seconds_bucket" in samples
        assert "repro_run_steps_total" in samples

    def test_callback_gauges_present(self, served):
        _, client = served
        samples = parse_prometheus(client.metrics_prometheus())
        for gauge in (
            "repro_scheduler_queue_depth",
            "repro_scheduler_in_flight",
            "repro_result_cache_entries",
            "repro_session_pool_sessions",
            "repro_uptime_seconds",
        ):
            assert gauge in samples, gauge
        assert samples["repro_uptime_seconds"][0][1] >= 0.0

    def test_heartbeat_gauge_exposes_one_series_per_worker(self, served):
        from repro.perf import prewarm

        _, client = served
        prewarm(2)
        samples = parse_prometheus(client.metrics_prometheus())
        series = samples["repro_worker_heartbeat_age_seconds"]
        workers = {labels["worker"] for labels, _ in series}
        assert workers >= {"0", "1"}
        assert all(value >= 0.0 for _, value in series)

    def test_json_document_still_served(self, served):
        _, client = served
        metrics = client.metrics()
        assert "jobs" in metrics and "scheduler" in metrics
