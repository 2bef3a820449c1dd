"""Serving metrics, backed by the unified observability registry.

:class:`ServiceMetrics` keeps its historical API — the scheduler calls
the ``job_*`` hooks, :meth:`ServiceMetrics.snapshot` renders the JSON
the ``GET /v1/metrics`` endpoint returns — but every counter and
latency histogram now lives in a shared
:class:`~repro.obs.metrics.MetricsRegistry` instead of ad-hoc locked
attributes.  That one registry is also what ``RunContext`` (downgrade
counters), the scheduler (step/state totals), and the cache/pool
callback gauges publish into, so ``/v1/metrics?format=prometheus``
exposes the whole engine through a single exposition endpoint.

Metric names (see ``docs/observability.md`` for the full table):

==================================  =========  ==========================
``repro_jobs_submitted_total``      counter    accepted submissions
``repro_jobs_finished_total``       counter    by ``outcome`` label
``repro_jobs_rejected_total``       counter    admission + queue rejects
``repro_admission_rejections_total`` counter   by diagnostic ``code``
``repro_result_cache_hits_total``   counter    result-cache short-cuts
``repro_job_queue_seconds``         histogram  by ``semantics`` label
``repro_job_run_seconds``           histogram  by ``semantics`` label
==================================  =========  ==========================
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import MetricsRegistry

#: Upper bounds (seconds) of the latency buckets; the last bucket is
#: unbounded.  Spans cache hits (~µs) to multi-minute exact builds.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class ServiceMetrics:
    """Aggregated serving counters plus per-semantics latency histograms.

    The scheduler calls the ``job_*`` hooks.  All state lives in the
    ``registry`` (created on demand, or passed in to share one registry
    across the whole service); the legacy attribute views
    (``metrics.rejected`` etc.) read the registry counters.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._submitted = self.registry.counter(
            "repro_jobs_submitted_total", "Jobs accepted into the queue"
        )
        self._finished = self.registry.counter(
            "repro_jobs_finished_total", "Jobs finished, by outcome"
        )
        self._rejected = self.registry.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected (admission checks or full queue)",
        )
        self._admission = self.registry.counter(
            "repro_admission_rejections_total",
            "Programs rejected by static analysis, by diagnostic code",
        )
        self._cache_hits = self.registry.counter(
            "repro_result_cache_hits_total",
            "Jobs answered from the result cache",
        )
        self._queue_wait = self.registry.histogram(
            "repro_job_queue_seconds",
            "Seconds jobs spent queued before execution",
            buckets=DEFAULT_BUCKETS,
        )
        self._run = self.registry.histogram(
            "repro_job_run_seconds",
            "Seconds jobs spent executing",
            buckets=DEFAULT_BUCKETS,
        )

    # -- legacy attribute views ----------------------------------------

    @property
    def submitted(self) -> int:
        return int(self._submitted.total())

    @property
    def completed(self) -> int:
        return int(self._finished.value(outcome="done"))

    @property
    def failed(self) -> int:
        return int(self._finished.value(outcome="failed"))

    @property
    def cancelled(self) -> int:
        return int(self._finished.value(outcome="cancelled"))

    @property
    def rejected(self) -> int:
        return int(self._rejected.total())

    @property
    def result_cache_hits(self) -> int:
        return int(self._cache_hits.total())

    @property
    def admission_rejections(self) -> dict[str, int]:
        return {
            dict(labels).get("code", "unknown"): int(value)
            for labels, value in self._admission.collect()
        }

    # -- hooks ----------------------------------------------------------

    def job_submitted(self) -> None:
        self._submitted.inc()

    def job_rejected(self) -> None:
        self._rejected.inc()

    def admission_rejected(self, codes) -> None:
        """Record one program rejected by static analysis.

        ``codes`` are the diagnostic codes (``RK001``, ``SF001``, ...)
        that caused the rejection; each is counted so ``/v1/metrics``
        shows *why* programs bounce, not just how many.
        """
        self._rejected.inc()
        for code in codes or ("unknown",):
            self._admission.inc(code=code)

    def job_finished(
        self,
        semantics: str,
        outcome: str,
        queue_seconds: float | None,
        run_seconds: float | None,
        cache_hit: bool = False,
    ) -> None:
        """Record one finished job (``outcome``: done/failed/cancelled)."""
        if outcome not in ("done", "failed"):
            outcome = "cancelled"
        self._finished.inc(outcome=outcome)
        if cache_hit:
            self._cache_hits.inc()
        if queue_seconds is not None:
            self._queue_wait.observe(queue_seconds, semantics=semantics)
        if run_seconds is not None:
            self._run.observe(run_seconds, semantics=semantics)

    # -- rendering ------------------------------------------------------

    def _latency_table(self, histogram) -> dict:
        return {
            dict(key)["semantics"]: histogram.as_dict(**dict(key))
            for key in histogram.label_keys()
        }

    def snapshot(self, gauges: Mapping[str, object] | None = None) -> dict:
        """The full metrics document for ``GET /v1/metrics``."""
        payload: dict = {
            "jobs": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "result_cache_hits": self.result_cache_hits,
            },
            "admission_rejections": dict(
                sorted(self.admission_rejections.items())
            ),
            "latency": {
                "queue_wait_seconds": self._latency_table(self._queue_wait),
                "run_seconds": self._latency_table(self._run),
            },
        }
        if gauges:
            payload.update(gauges)
        return payload

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the backing registry."""
        return self.registry.render_prometheus()
