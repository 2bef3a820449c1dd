"""TransitionCache: memoization, LRU bound, sampling equivalence."""

import pytest

from repro.core.chain_builder import build_state_chain
from repro.core.interpretation import Interpretation
from repro.errors import EvaluationError, ProbabilityError
from repro.perf import CachedRow, TransitionCache
from repro.probability.rng import make_rng
from repro.relational import rel
from repro.workloads import cycle_graph, random_walk_query


@pytest.fixture()
def walk():
    return random_walk_query(cycle_graph(5), "n0", "n2")


class TestMemoization:
    def test_transition_matches_kernel(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel)
        assert cache.transition(db) == query.kernel.transition(db)

    def test_hit_miss_counters(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel, maxsize=8)
        cache.transition(db)
        cache.transition(db)
        cache.transition(db)
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 0)
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_rows_are_shared_objects(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel)
        assert cache.row(db) is cache.row(db)

    def test_clear_drops_rows_keeps_counters(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel)
        cache.transition(db)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


class TestLruBound:
    def test_size_never_exceeds_maxsize(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel, maxsize=2)
        rng = make_rng(7)
        state = db
        for _ in range(50):
            state = cache.sample(state, rng)
        assert len(cache) <= 2
        assert cache.evictions > 0

    def test_least_recently_used_is_evicted(self, walk):
        query, db = walk
        chain = build_state_chain(query.kernel, db)
        first, second, third = list(chain.states)[:3]
        cache = TransitionCache(query.kernel, maxsize=2)
        cache.row(first)
        cache.row(second)
        cache.row(first)  # refresh first: second is now LRU
        cache.row(third)  # evicts second
        before = cache.misses
        cache.row(first)
        assert cache.misses == before  # still cached
        cache.row(second)
        assert cache.misses == before + 1  # was evicted

    def test_rejects_non_positive_maxsize(self, walk):
        query, _ = walk
        with pytest.raises(ProbabilityError):
            TransitionCache(query.kernel, maxsize=0)


class TestSamplingEquivalence:
    def test_cached_row_matches_distribution_sample(self, walk):
        """CachedRow.sample replays Distribution.sample's accumulation
        order, so identical rng states give identical outcomes."""
        query, db = walk
        row = CachedRow(query.kernel.transition(db))
        for seed in range(40):
            assert row.sample(make_rng(seed)) == row.distribution.sample(
                make_rng(seed)
            )

    def test_chain_build_never_builds_the_sampling_index(self, walk, monkeypatch):
        """Chain builders read only the rows' distributions, so the
        sorted cumulative index is left for the first draw to build."""
        import repro.perf.cache as cache_module

        calls = []
        sort_key = cache_module.database_sort_key

        def counted(state):
            calls.append(state)
            return sort_key(state)

        monkeypatch.setattr(cache_module, "database_sort_key", counted)
        query, db = walk
        cache = TransitionCache(query.kernel)
        chain = build_state_chain(query.kernel, db, cache=cache)
        assert chain.size == 5 and cache.misses == 5
        assert calls == []
        cache.sample(db, make_rng(1))
        assert calls

    def test_cached_walk_visits_correct_support(self, walk):
        query, db = walk
        cache = TransitionCache(query.kernel)
        rng = make_rng(3)
        state = db
        for _ in range(200):
            successor = cache.sample(state, rng)
            assert cache.transition(state).probability(successor) > 0
            state = successor


class TestIntegration:
    def test_cached_convenience_constructor(self, walk):
        query, _ = walk
        cache = query.kernel.cached(maxsize=7)
        assert isinstance(cache, TransitionCache)
        assert cache.maxsize == 7
        assert cache.kernel is query.kernel

    def test_chain_builder_accepts_warm_cache(self, walk):
        query, db = walk
        cache = query.kernel.cached()
        cold = build_state_chain(query.kernel, db)
        warm = build_state_chain(query.kernel, db, cache=cache)
        assert warm.size == cold.size
        misses_after_first = cache.misses
        build_state_chain(query.kernel, db, cache=cache)
        assert cache.misses == misses_after_first  # fully memoized rebuild

    def test_chain_builder_rejects_foreign_cache(self, walk):
        query, db = walk
        other = Interpretation({"C": rel("C")})
        with pytest.raises(EvaluationError):
            build_state_chain(query.kernel, db, cache=TransitionCache(other))


class TestBatchedLookups:
    """``TransitionCache.expand``: the counters of one lookup per state,
    the rows of one ``kernel.expand`` per batch."""

    @staticmethod
    def _pair(backend):
        from repro.kernel import lower
        from repro.workloads import complete_graph

        query, db = random_walk_query(complete_graph(6), "n0", "n1")
        if backend == "columnar":
            query, db = lower(query, db)
        return query.kernel, db

    @staticmethod
    def _counters(cache):
        return (cache.hits, cache.misses, cache.evictions, len(cache))

    @pytest.mark.parametrize("backend", ["frozenset", "columnar"])
    @pytest.mark.parametrize("maxsize", [4096, 3], ids=["roomy", "evicting"])
    def test_counters_equal_a_one_at_a_time_build(self, backend, maxsize, monkeypatch):
        kernel, db = self._pair(backend)
        order = build_state_chain(kernel, db).states
        batched = TransitionCache(kernel, maxsize=maxsize)
        reference = TransitionCache(kernel, maxsize=maxsize)
        lookups = []
        row = TransitionCache.row

        def counted(self, state):
            if self is batched:
                lookups.append(state)
            return row(self, state)

        monkeypatch.setattr(TransitionCache, "row", counted)
        for build in ("cold", "warm", "warm again"):
            chain = build_state_chain(kernel, db, cache=batched)
            for state in order:
                reference.transition(state)
            assert self._counters(batched) == self._counters(reference), build
            assert list(chain.states) == list(order)
        assert lookups == list(order) * 3
        if maxsize == 3:
            assert batched.evictions > 0

    def test_a_batch_evicting_its_own_rows_computes_no_row_twice(self):
        kernel, db = self._pair("columnar")
        cache = TransitionCache(kernel, maxsize=2)
        calls = []
        expand = kernel.expand
        kernel_calls = lambda states: calls.append(len(states)) or expand(states)
        order = build_state_chain(kernel, db).states
        cache.expand(order[1:])  # warm rows that the next batch evicts
        kernel.expand = kernel_calls
        try:
            rows = cache.expand(order)
        finally:
            del kernel.expand
        assert calls == [len(order) - 2]
        assert rows == [kernel.transition(state) for state in order]

    def test_a_cached_compiled_build_never_calls_transition(self, monkeypatch):
        from repro.kernel import CompiledKernel

        kernel, db = self._pair("columnar")
        expected = build_state_chain(kernel, db)

        def refuse(self, state):
            raise AssertionError("a cached build called CompiledKernel.transition")

        monkeypatch.setattr(CompiledKernel, "transition", refuse)
        for maxsize in (4096, 3):
            cache = TransitionCache(kernel, maxsize=maxsize)
            for _ in range(2):
                chain = build_state_chain(kernel, db, cache=cache)
                assert list(chain.states) == list(expected.states)
                for state in chain.states:
                    assert chain.successors(state) == expected.successors(state)


    def test_concurrent_batched_builds_share_an_evicting_cache(self):
        """Threads building one chain through one small cache each get
        the chain a cold build gives, and every lookup is counted."""
        import sys
        import threading

        kernel, db = self._pair("columnar")
        expected = build_state_chain(kernel, db)
        rows = [list(expected.successors(state).items()) for state in expected.states]
        cache = TransitionCache(kernel, maxsize=3)
        errors = []

        def build():
            try:
                for _ in range(5):
                    chain = build_state_chain(kernel, db, cache=cache)
                    assert list(chain.states) == list(expected.states)
                    assert [
                        list(chain.successors(state).items()) for state in chain.states
                    ] == rows
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.hits + cache.misses == 6 * 5 * expected.size


class TestThreadSafety:
    def test_concurrent_walkers_share_one_cache(self, walk):
        """Scheduler workers share a session's cache; rows must never
        be corrupted and every lookup must agree with the kernel."""
        import threading

        query, db = walk
        cache = TransitionCache(query.kernel, maxsize=64)
        errors = []

        def walker(seed):
            rng = make_rng(seed)
            state = db
            try:
                for _ in range(300):
                    row = cache.row(state)
                    assert row.distribution == query.kernel.transition(state)
                    state = cache.sample(state, rng)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=walker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        # two lookups per iteration: row() plus sample()'s internal row()
        assert stats["hits"] + stats["misses"] == 2 * 8 * 300
        assert len(cache) <= 64
