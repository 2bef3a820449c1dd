"""Supervised warm pool: determinism, crash/hang/transient recovery.

These tests drive the *production* sampler path
(:func:`evaluate_forever_mcmc` with ``ParallelConfig``) under installed
fault plans — the supervisor, heartbeats, restarts, and chunk retries
are all the real code, not mocks.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core import evaluate_forever_mcmc
from repro.errors import WorkerPoolError
from repro.faults import SITE_SUPERVISOR_TASK, FaultPlan, FaultSpec
from repro.perf import ParallelConfig, prewarm, warm_pool_stats
from repro.perf import supervisor as supervisor_module
from repro.perf.supervisor import HEARTBEAT_TIMEOUT_ENV, SupervisorConfig
from repro.runtime import RunContext
from repro.workloads import cycle_graph, random_walk_query

WORKERS = 2
SAMPLES = 24
BURN_IN = 5
SEED = 11


@pytest.fixture(scope="module")
def walk():
    return random_walk_query(cycle_graph(6), "n0", "n3")


@pytest.fixture(autouse=True)
def chaos_hygiene(monkeypatch):
    """No plan, default heartbeat, before and after every test.

    Uninstalling changes ``REPRO_FAULT_PLAN``, which makes the warm
    pool recycle its workers at generation 0 on the next lease — so a
    test's plan can never leak into its neighbours' worker processes.
    """
    faults.uninstall()
    monkeypatch.delenv(HEARTBEAT_TIMEOUT_ENV, raising=False)
    yield
    faults.uninstall()


def run_walk(walk, *, context=None):
    query, db = walk
    return evaluate_forever_mcmc(
        query,
        db,
        samples=SAMPLES,
        burn_in=BURN_IN,
        rng=SEED,
        parallel=ParallelConfig(workers=WORKERS),
        context=context,
    )


def run_walk_one_shot(walk):
    """``run_walk`` while another run holds the warm pool: the dispatch
    falls back to a one-shot WorkerSupervisor spawned for this call.
    Returns the result and the number of supervisors the run spawned."""
    cls = supervisor_module.WorkerSupervisor
    init, spawned = cls.__init__, []

    def counted(self, config):
        spawned.append(config)
        init(self, config)

    warm = supervisor_module._lease_warm_pool(
        SupervisorConfig.from_parallel(ParallelConfig(workers=WORKERS))
    )
    cls.__init__ = counted
    try:
        return run_walk(walk), len(spawned)
    finally:
        cls.__init__ = init
        if warm is not None:
            warm._run_lock.release()


class TestDeterminism:
    def test_warm_pool_bit_identical_to_spawn_per_call(self, walk):
        warm = run_walk(walk)
        cold, spawned = run_walk_one_shot(walk)
        assert spawned == 1
        assert warm.positive == cold.positive
        assert warm.estimate == cold.estimate
        assert warm.samples == cold.samples == SAMPLES

    def test_warm_pool_stable_across_reuse(self, walk):
        first = run_walk(walk)
        stats = warm_pool_stats()
        assert stats["alive"] == WORKERS
        second = run_walk(walk)
        assert second.positive == first.positive
        assert second.estimate == first.estimate

    def test_prewarm_reports_hot_workers(self, walk):
        stats = prewarm(WORKERS)
        assert stats["workers"] == WORKERS
        assert stats["alive"] == WORKERS
        # The prewarmed pool serves the next run unchanged.
        result = run_walk(walk)
        assert result.samples == SAMPLES

    def test_heartbeat_ages_exposed_per_worker(self, walk, monkeypatch):
        import math

        from repro.perf.supervisor import warm_pool_heartbeat_ages

        prewarm(WORKERS)
        ages = warm_pool_stats()["heartbeat_ages"]
        assert set(ages) == {str(i) for i in range(WORKERS)}
        assert all(math.isfinite(age) and age >= 0.0 for age in ages.values())
        # The gauge reads one stats snapshot: two live reads would differ
        # by whatever time passed between them.
        snapshot = {"heartbeat_ages": {"0": 0.25, "1": 1.5}}
        monkeypatch.setattr(supervisor_module, "warm_pool_stats", lambda: snapshot)
        exposed = warm_pool_heartbeat_ages()
        assert exposed == {"0": 0.25, "1": 1.5}
        exposed["0"] = 9.0
        assert snapshot["heartbeat_ages"]["0"] == 0.25

    def test_worker_spans_stitched_with_worker_ids(self, walk):
        from repro.obs import MemorySink, Tracer

        context = RunContext(tracer=Tracer(MemorySink()))
        result = run_walk(walk, context=context)
        baseline = run_walk(walk)
        assert result.positive == baseline.positive  # profiling is inert
        records = context.tracer.sink.records
        worker_spans = [
            r for r in records
            if r.get("type") == "span"
            and "worker_id" in (r.get("attrs") or {})
        ]
        assert worker_spans, "no spans recorded inside worker processes"
        ids = {r["attrs"]["worker_id"] for r in worker_spans}
        assert ids <= set(range(WORKERS))
        assert all(
            r["attrs"].get("spawn_generation") is not None
            for r in worker_spans
        )
        # Stitched under the dispatching 'sample' span, not floating.
        spans = {r["span"]: r for r in records if r.get("type") == "span"}
        for record in worker_spans:
            parent = record.get("parent")
            assert parent in spans


class TestFaultRecovery:
    def test_crash_recovery_is_bit_identical(self, walk):
        baseline = run_walk(walk)
        # generation=0: kill each *original* worker on its first chunk;
        # replacement workers (generation >= 1) run clean.
        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "crash", generation=0)]
        ))
        context = RunContext()
        survived = run_walk(walk, context=context)
        assert survived.positive == baseline.positive
        assert survived.estimate == baseline.estimate
        events = context.report().events
        assert any("restarted" in event for event in events)
        assert any("WorkerCrashError" in event for event in events)

    def test_hang_recovery_via_heartbeat(self, walk, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_TIMEOUT_ENV, "1.0")
        baseline = run_walk(walk)
        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "hang", generation=0)]
        ))
        context = RunContext()
        survived = run_walk(walk, context=context)
        assert survived.estimate == baseline.estimate
        events = context.report().events
        assert any("WorkerStalledError" in event for event in events)

    def test_transient_fault_retries_chunk(self, walk):
        baseline = run_walk(walk)
        # Each worker process raises a retryable fault on its first
        # chunk; the chunk is idempotently re-dispatched.
        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "raise")]
        ))
        context = RunContext()
        survived = run_walk(walk, context=context)
        assert survived.positive == baseline.positive
        assert survived.estimate == baseline.estimate
        events = context.report().events
        assert any("chunk retry" in event for event in events)

    def test_crash_restart_counted_with_reason_label(self, walk):
        from repro.obs import MetricsRegistry

        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "crash", generation=0)]
        ))
        registry = MetricsRegistry()
        context = RunContext(metrics=registry)
        run_walk(walk, context=context)
        restarts = registry.counter("repro_worker_restarts_total")
        assert restarts.value(reason="crash") >= 1
        assert restarts.value(reason="stall") == 0
        # The run's events record the restarts too, with their cause.
        restarted = [
            event for event in context.report().events
            if "restarted (WorkerCrashError" in event
        ]
        assert len(restarted) >= 1

    def test_stall_restart_counted_with_reason_label(self, walk, monkeypatch):
        from repro.obs import MetricsRegistry

        monkeypatch.setenv(HEARTBEAT_TIMEOUT_ENV, "1.0")
        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "hang", generation=0)]
        ))
        registry = MetricsRegistry()
        context = RunContext(metrics=registry)
        run_walk(walk, context=context)
        restarts = registry.counter("repro_worker_restarts_total")
        assert restarts.value(reason="stall") >= 1

    def test_restart_budget_exhaustion_fails_the_run(self, walk):
        # No generation bound: every replacement worker also crashes on
        # its first chunk — the classic crash loop the restart budget
        # exists to stop.
        faults.install(FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "crash")]
        ))
        with pytest.raises(WorkerPoolError, match="restart budget"):
            run_walk(walk)


class TestCancelledRuns:
    def test_a_cancelled_run_leaves_no_chunk_computing(self, walk):
        """The next run does not wait behind the cancelled run's chunks
        (minutes of uncached steps here): the cancel event stays set
        until every busy worker has answered."""
        import threading
        import time

        from repro.errors import RunCancelledError

        query, db = walk
        run_walk(walk)  # a warm pool
        restarts = warm_pool_stats()["restarts"]
        context = RunContext()
        timer = threading.Timer(0.2, context.cancel)
        timer.start()
        try:
            with pytest.raises(RunCancelledError):
                evaluate_forever_mcmc(
                    query, db, samples=100_000, burn_in=50, rng=SEED,
                    parallel=ParallelConfig(workers=WORKERS), context=context,
                )
        finally:
            timer.cancel()
        started = time.monotonic()
        assert run_walk(walk).samples == SAMPLES
        assert time.monotonic() - started < 20.0
        assert warm_pool_stats()["restarts"] == restarts
