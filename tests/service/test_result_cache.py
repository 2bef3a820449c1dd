"""ResultCache LRU behaviour and ServiceMetrics accounting."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.service import ResultCache, ServiceMetrics


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", {"probability": "1/3"})
        assert cache.get("k") == {"probability": "1/3"}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_same_key_updates_without_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.evictions == 0

    def test_stats_shape(self):
        cache = ResultCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_hit_rate_none_before_any_lookup(self):
        assert ResultCache().stats()["hit_rate"] is None

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(maxsize=0)

    def test_concurrent_puts_respect_bound(self):
        cache = ResultCache(maxsize=16)
        threads = [
            threading.Thread(
                target=lambda base: [
                    cache.put(f"{base}-{i}", i) for i in range(100)
                ],
                args=(t,),
            )
            for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 16


class TestServiceMetrics:
    def test_finished_jobs_split_by_outcome(self):
        metrics = ServiceMetrics()
        metrics.job_submitted()
        metrics.job_submitted()
        metrics.job_finished("forever", "done", 0.01, 0.2, cache_hit=True)
        metrics.job_finished("forever", "failed", 0.01, 0.1)
        metrics.job_rejected()
        snapshot = metrics.snapshot()
        assert snapshot["jobs"] == {
            "submitted": 2,
            "completed": 1,
            "failed": 1,
            "cancelled": 0,
            "rejected": 1,
            "result_cache_hits": 1,
        }
        run = snapshot["latency"]["run_seconds"]["forever"]
        assert run["count"] == 2

    def test_snapshot_merges_live_gauges(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot(gauges={"scheduler": {"queue_depth": 3}})
        assert snapshot["scheduler"] == {"queue_depth": 3}
