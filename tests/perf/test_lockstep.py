"""Lockstep cached Thm 5.6 sampling against the walk-at-a-time reference.

A cached step consumes exactly one uniform, so the lockstep sampler
(every walker advanced together over the cache's id-indexed view)
draws the very uniforms the walk-at-a-time loop below draws.  Tallies,
the generator's final state, checkpoints and cache counters must all
match it exactly.
"""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core.evaluation import evaluate_forever_mcmc
from repro.core.events import parse_event
from repro.core.queries import ForeverQuery
from repro.errors import BudgetExceededError, FaultInjectedError, RunCancelledError
from repro.faults import SITE_SAMPLER_SAMPLE, FaultPlan, FaultSpec
from repro.kernel import compile_query
from repro.perf import ParallelConfig, TransitionCache, warm_pool_stats
from repro.perf.supervisor import HEARTBEAT_TIMEOUT_ENV
from repro.relational import Database, Relation
from repro.relational.parser import parse_interpretation
from repro.runtime import Budget, RunContext, load_checkpoint
from repro.workloads import (
    WeightedGraph,
    cycle_graph,
    pagerank_query,
    random_walk_query,
)

#: A version-1 checkpoint written by the walk-at-a-time sampler: the
#: WALK program below, 40 samples, burn-in 9, seed 11, cache size 64,
#: stopped by a 121-step budget four steps into sample 14.
MID_WALK_CHECKPOINT = Path(__file__).parent / "data" / "mid_walk_v1.ckpt"


def _walk():
    return random_walk_query(cycle_graph(6), "n0", "n3")


def _pagerank():
    return pagerank_query(cycle_graph(5), Fraction(1, 5), "n0", "n2")


def _three_walkers(nodes: int = 6):
    kernel = parse_interpretation(
        "\n".join(
            f"{name} := rename[J->I](project[J](repair-key[I@P]({name} join E)))"
            for name in ("C", "D", "F")
        )
    )
    db = Database({
        "C": Relation(("I",), [("n0",)]),
        "D": Relation(("I",), [("n2",)]),
        "F": Relation(("I",), [("n4",)]),
        "E": cycle_graph(nodes).edge_relation(),
    })
    return ForeverQuery(kernel, parse_event("C(n1) or D(n3)")), db


def _absorbing():
    graph = WeightedGraph(
        ("a", "b", "sink"),
        [("a", "b", 1), ("b", "a", 1), ("b", "sink", 1), ("sink", "sink", 1)],
    )
    return random_walk_query(graph, "a", "sink")


PROGRAMS = {
    "walk": _walk,
    "pagerank": _pagerank,
    "three-walkers": _three_walkers,
    "absorbing": _absorbing,
}


def _prepared(program: str, backend: str):
    query, db = PROGRAMS[program]()
    if backend == "columnar":
        compiled = compile_query(query, db)
        return compiled.query, compiled.initial
    return query, db


def reference(query, initial, samples, burn_in, rng, cache):
    """The walk-at-a-time loop: one walk, one cached step, one uniform."""
    positive = 0
    for _ in range(samples):
        state = initial
        for _ in range(burn_in):
            state = cache.sample(state, rng)
        positive += query.event.holds(state)
    return positive


COUNTERS = ("hits", "misses", "evictions", "size")


class _Given:
    """A generator stand-in whose one draw is given."""

    def __init__(self, value: float):
        self._value = value

    def random(self) -> float:
        return self._value


class TestMatchesReference:
    @pytest.mark.parametrize("maxsize", [4096, 3])
    @pytest.mark.parametrize("backend", ["frozenset", "columnar"])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_tallies_stream_and_counters(self, program, backend, maxsize):
        query, initial = _prepared(program, backend)
        cache = TransitionCache(query.kernel, maxsize=maxsize)
        expected_cache = TransitionCache(query.kernel, maxsize=maxsize)
        # One cache through every run: the first is cold, the rest warm.
        for seed, burn_in, samples in [
            (1, 7, 60), (2, 7, 60), (3, 0, 5), (4, 1, 1), (5, 1, 40),
            (6, 7, 1), (7, 12, 33),
        ]:
            rng, expected_rng = random.Random(seed), random.Random(seed)
            result = evaluate_forever_mcmc(
                query, initial, samples=samples, burn_in=burn_in, rng=rng,
                cache=cache, backend=backend,
            )
            expected = reference(
                query, initial, samples, burn_in, expected_rng, expected_cache
            )
            assert result.positive == expected, (seed, burn_in, samples)
            assert rng.getstate() == expected_rng.getstate()
            counters = result.details["cache"]
            if expected_cache.evictions == 0:
                assert {k: counters[k] for k in COUNTERS} == {
                    k: expected_cache.stats()[k] for k in COUNTERS
                }
            assert counters["hits"] + counters["misses"] == (
                expected_cache.hits + expected_cache.misses
            )
        assert cache.view().rows <= maxsize
        if maxsize == 3 and program != "absorbing":
            assert cache.evictions > 0

    def test_private_cache_from_cache_size(self):
        query, db = _three_walkers()
        expected_rng = random.Random(21)
        expected = reference(
            query, db, 50, 8, expected_rng, TransitionCache(query.kernel, 5)
        )
        rng = random.Random(21)
        result = evaluate_forever_mcmc(
            query, db, samples=50, burn_in=8, rng=rng, cache_size=5
        )
        assert result.positive == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_chunks_replay_one_stream(self, monkeypatch):
        """Several chunks draw the uniforms of one sample-after-sample
        stream, so the chunk size never changes a tally."""
        import repro.core.evaluation.sampling_noninflationary as sampler

        query, db = _pagerank()
        whole = evaluate_forever_mcmc(
            query, db, samples=70, burn_in=9, rng=5, cache_size=64
        )
        monkeypatch.setattr(sampler, "LOCKSTEP_UNIFORMS", 20)
        monkeypatch.setattr(sampler, "LOCKSTEP_MIN_WALKERS", 1)
        chunked = evaluate_forever_mcmc(
            query, db, samples=70, burn_in=9, rng=5, cache_size=64
        )
        assert chunked.positive == whole.positive
        assert chunked.details["cache"] == whole.details["cache"]

    @pytest.mark.parametrize("walkers, steps", [(1, 25), (1, 0), (9, 1)])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_walk_lands_where_sample_lands(self, program, walkers, steps):
        query, db = PROGRAMS[program]()
        cache = TransitionCache(query.kernel, maxsize=4)
        rng = random.Random(13)
        uniforms = np.array(
            [[rng.random() for _ in range(steps)] for _ in range(walkers)]
        ).reshape(walkers, steps)
        states, which = cache.walk(db, uniforms)
        replay = random.Random(13)
        expected_cache = TransitionCache(query.kernel, maxsize=4)
        for walker in range(walkers):
            state = db
            for _ in range(steps):
                state = expected_cache.sample(state, replay)
            assert states[which[walker]] == state
        assert len(set(states)) == len(states)

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_boundary_uniforms(self, program):
        """Uniforms whose pick lands exactly on a cumulative weight, at 0
        or at the row total pick what ``CachedRow.sample`` picks."""
        query, db = PROGRAMS[program]()
        cache = TransitionCache(query.kernel)
        row = cache.row(db)
        _, cumulative = row.index()
        values = [0.0, 1.0] + [weight / cumulative[-1] for weight in cumulative]
        states, which = cache.walk(db, np.array(values).reshape(-1, 1))
        for walker, value in enumerate(values):
            assert states[which[walker]] == row.sample(_Given(value))

    def test_clear_drops_the_view(self):
        query, db = _walk()
        cache = TransitionCache(query.kernel)
        first = evaluate_forever_mcmc(
            query, db, samples=30, burn_in=5, rng=8, cache=cache
        )
        view = cache.view()
        assert view.rows > 0
        cache.clear()
        assert cache.view() is not view and cache.view().rows == 0
        again = evaluate_forever_mcmc(
            query, db, samples=30, burn_in=5, rng=8, cache=cache
        )
        assert again.positive == first.positive


class TestWorkers:
    """Seeded ``workers: 2`` tallies, as the walk-at-a-time sampler
    produced them before lockstep sampling."""

    @pytest.mark.parametrize("backend", ["frozenset", "columnar"])
    @pytest.mark.parametrize(
        "program, positive", [("walk", 48), ("pagerank", 55)]
    )
    def test_two_workers_keep_their_seeded_tallies(self, program, positive, backend):
        query, db = PROGRAMS[program]()
        result = evaluate_forever_mcmc(
            query, db, samples=301, burn_in=9, rng=2026, cache_size=64,
            parallel=ParallelConfig(workers=2), backend=backend,
        )
        assert result.positive == positive

    def test_short_heartbeat_timeout_is_not_hang(self, monkeypatch):
        """Worker tasks of about two seconds, most of it spent computing
        rows for a cold cache, beat well within a one-second timeout."""
        monkeypatch.setenv(HEARTBEAT_TIMEOUT_ENV, "1.0")
        query, db = _three_walkers(11)
        context = RunContext()
        restarts = warm_pool_stats()["restarts"]
        result = evaluate_forever_mcmc(
            query, db, samples=1200, burn_in=30, rng=4, cache_size=4096,
            parallel=ParallelConfig(workers=2), context=context,
        )
        assert result.samples == 1200
        assert not [
            line for line in context.report().events
            if "stale" in line or "restart" in line
        ]
        if warm_pool_stats()["workers"]:
            assert warm_pool_stats()["restarts"] == restarts


class TestCheckpoints:
    @pytest.fixture(autouse=True)
    def clean_plan(self):
        faults.uninstall()
        yield
        faults.uninstall()

    @pytest.mark.parametrize("uniforms", [None, 20])
    @pytest.mark.parametrize("k", [1, 17, 40])
    def test_fault_at_sample_k_writes_reference_checkpoint(
        self, tmp_path, monkeypatch, k, uniforms
    ):
        import repro.core.evaluation.sampling_noninflationary as sampler

        if uniforms is not None:
            monkeypatch.setattr(sampler, "LOCKSTEP_UNIFORMS", uniforms)
            monkeypatch.setattr(sampler, "LOCKSTEP_MIN_WALKERS", 1)
        query, db = _walk()
        path = tmp_path / "run.ckpt"
        faults.install(FaultPlan([
            FaultSpec(SITE_SAMPLER_SAMPLE, "raise", after=k, transient=False)
        ]))
        try:
            with pytest.raises(FaultInjectedError):
                evaluate_forever_mcmc(
                    query, db, samples=40, burn_in=9, rng=11, cache_size=64,
                    checkpoint_path=path,
                )
        finally:
            faults.uninstall()
        saved = load_checkpoint(path)
        expected_rng = random.Random(11)
        expected = reference(
            query, db, k, 9, expected_rng, TransitionCache(query.kernel, 64)
        )
        assert (saved.samples_done, saved.positive, saved.walker) == (
            k, expected, None
        )
        restored = random.Random()
        saved.restore_rng(restored)
        assert restored.getstate() == expected_rng.getstate()
        full = evaluate_forever_mcmc(
            query, db, samples=40, burn_in=9, rng=11, cache_size=64
        )
        resumed = evaluate_forever_mcmc(query, db, rng=999, resume=path)
        assert resumed.positive == full.positive

    @pytest.mark.parametrize("max_steps", [9 * 13, 9 * 13 + 4, 3])
    def test_step_budget_stops_on_the_reference_step(self, tmp_path, max_steps):
        query, db = _walk()
        path = tmp_path / "run.ckpt"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                query, db, samples=40, burn_in=9, rng=11, cache_size=64,
                context=RunContext(Budget(max_steps=max_steps)),
                checkpoint_path=path,
            )
        saved = load_checkpoint(path)
        done, steps = divmod(max_steps, 9)
        assert saved.samples_done == done
        assert (saved.walker or {}).get("steps_done") == (steps or None)
        expected_rng = random.Random(11)
        expected = reference(
            query, db, done, 9, expected_rng, TransitionCache(query.kernel, 64)
        )
        assert saved.positive == expected
        for _ in range(steps):
            expected_rng.random()
        restored = random.Random()
        saved.restore_rng(restored)
        assert restored.getstate() == expected_rng.getstate()
        full = evaluate_forever_mcmc(
            query, db, samples=40, burn_in=9, rng=11, cache_size=64
        )
        resumed = evaluate_forever_mcmc(query, db, rng=999, resume=path)
        assert resumed.positive == full.positive

    def test_cancelled_chunk_checkpoints_its_start(self, tmp_path):
        query, db = _walk()
        path = tmp_path / "run.ckpt"
        context = RunContext()
        context.cancel()
        with pytest.raises(RunCancelledError):
            evaluate_forever_mcmc(
                query, db, samples=40, burn_in=9, rng=11, cache_size=64,
                context=context, checkpoint_path=path,
            )
        saved = load_checkpoint(path)
        assert (saved.samples_done, saved.positive, saved.walker) == (0, 0, None)
        restored = random.Random()
        saved.restore_rng(restored)
        assert restored.getstate() == random.Random(11).getstate()

    def test_walk_at_a_time_checkpoint_resumes(self):
        query, db = _walk()
        saved = load_checkpoint(MID_WALK_CHECKPOINT)
        assert saved.walker is not None and saved.meta == {"cache_size": 64}
        full = evaluate_forever_mcmc(
            query, db, samples=40, burn_in=9, rng=11, cache_size=64
        )
        resumed = evaluate_forever_mcmc(
            query, db, rng=999, resume=MID_WALK_CHECKPOINT
        )
        assert resumed.positive == full.positive == 7
        assert resumed.details["resumed_at"] == 13


class TestSharedCacheThreads:
    @pytest.mark.parametrize("maxsize", [40, 4096])
    def test_threads_sharing_one_cache(self, maxsize):
        """More walking threads than cores on one cache: every tally
        equals its single-threaded reference, the view never outgrows
        the cache, and without evictions every step is counted once."""
        query, db = _three_walkers()
        runs = [(seed, 30 + seed, 6 + seed % 5) for seed in range(6)]
        expected = {}
        for seed, samples, burn_in in runs:
            expected[seed] = reference(
                query, db, samples, burn_in, random.Random(seed),
                TransitionCache(query.kernel, maxsize),
            )
        cache = TransitionCache(query.kernel, maxsize=maxsize)
        got: dict[int, int] = {}
        sizes: list[int] = []
        errors: list[BaseException] = []

        def run(seed, samples, burn_in):
            try:
                for _ in range(2):
                    result = evaluate_forever_mcmc(
                        query, db, samples=samples, burn_in=burn_in,
                        rng=seed, cache=cache,
                    )
                    assert got.setdefault(seed, result.positive) == result.positive
                    sizes.append(cache.view().rows)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=r) for r in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert got == expected
        assert max(sizes) <= maxsize
        assert len(cache) <= maxsize
        if cache.evictions == 0:
            steps = sum(2 * samples * burn_in for _, samples, burn_in in runs)
            assert cache.hits + cache.misses == steps
        else:
            assert maxsize == 40
