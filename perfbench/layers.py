"""The traced run: spans around each layer's public calls.

``--trace 1`` runs the workload twice in one process, each pass on a
fresh service: once untraced, then with the calls below wrapped.  The
per-layer metrics come from the traced pass's timed region only; the
ratio of the two passes' wall times is ``trace.overhead_ratio``.

Every wrapper records a span in memory -- layer, call, start, end,
parent span, request id -- and the spans are written to
``.perfbench-work/spans-<workload>-seed<seed>.jsonl`` when the run
ends.  A client thread tags its spans with its request id; a scheduler
thread finds the request through the job it executes
(``Job.request_id``).  A layer's self time is its spans' time minus
their child spans.  A call into a layer from inside the same layer is
not a new span, so calls count entries into a layer.

Methods are patched on their class, which reaches every caller.  A
module function is replaced in every ``repro`` module that holds it,
under any name, because ``from x import f`` copies the binding.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layer -> (module, function) pairs wrapped as module functions.
FUNCTIONS = {
    "parse": [
        ("repro.relational.parser", "parse_interpretation"),
        ("repro.datalog.parser", "parse_program"),
        ("repro.io", "load_database"),
        ("repro.io", "database_from_json"),
        ("repro.core.events", "parse_event"),
    ],
    "analysis": [
        ("repro.analysis.analyze", "analyze_source"),
        ("repro.analysis.analyze", "analyze_kernel"),
        ("repro.analysis.partition", "compute_partition_plan"),
    ],
    "kernel.compile": [
        ("repro.kernel.compile", "compile_kernel"),
        ("repro.kernel.compile", "compile_event"),
    ],
    "chain": [("repro.core", "build_state_chain")],
    "exact": [
        ("repro.core.evaluation.exact_noninflationary", "evaluate_forever_exact"),
        ("repro.core.evaluation.lumped", "evaluate_forever_lumped"),
        ("repro.core.evaluation.exact_inflationary", "evaluate_inflationary_exact"),
        ("repro.datalog.engine", "evaluate_datalog_exact"),
    ],
    "solve": [
        ("repro.markov.absorption", "long_run_event_probability"),
        ("repro.markov.stationary", "stationary_distribution"),
        ("repro.markov.linalg", "solve_exact"),
    ],
    "sparse.assemble": [("repro.sparse.assemble", "assemble_sparse_chain")],
    "sparse.solve": [("repro.sparse.solve", "solve_long_run")],
    "partition": [("repro.runtime.partition_exec", "evaluate_partitioned")],
    "sample": [
        ("repro.core.evaluation.sampling_noninflationary", "evaluate_forever_mcmc"),
        ("repro.core.evaluation.sampling_inflationary", "evaluate_inflationary_sampling"),
    ],
    "supervisor": [("repro.perf.supervisor", "supervised_run")],
    "cli": [("repro.cli", "main")],
}

#: Layer -> (module, class, method) triples patched on the class.
METHODS = {
    "interp": [
        ("repro.core.interpretation", "Interpretation", "transition"),
        ("repro.core.interpretation", "Interpretation", "sample_transition"),
    ],
    "kernel.step": [
        ("repro.kernel.compile", "CompiledKernel", "transition"),
        ("repro.kernel.compile", "CompiledKernel", "sample_transition"),
    ],
    "analysis": [("repro.service.session", "EngineSession", "check_event")],
    "session.prepare": [("repro.service.session", "EngineSession", "prepare")],
    "session.evaluate": [("repro.service.session", "EngineSession", "evaluate")],
    "session.pool": [("repro.service.session", "SessionPool", "get_or_create")],
    "scheduler": [("repro.service.scheduler", "JobScheduler", "submit")],
    "service": [("repro.service.service", "QueryService", "_execute")],
    "http.submit": [("repro.service.client", "ServiceClient", "submit")],
    "http.fetch": [("repro.service.client", "ServiceClient", "job")],
}

#: Per workload: metrics that must be above zero (the layer is loaded)
#: and metrics that must be zero (the layer is idle).
LOADED = {
    "cold-exact": ["cli.calls", "parse.calls", "chain.calls", "chain.states",
                   "exact.calls", "solve.calls", "sparse.calls", "partition.calls",
                   "analysis.calls", "interp.step_calls"],
    "warm-sample": ["sample.calls", "sample.samples", "cache.lookups",
                    "kernel.step_calls", "kernel.compile_calls", "supervisor.calls",
                    "session.evaluate_self_ms", "obs.trace_records_per_job"],
    "http-churn": ["http.submit_ms", "http.fetch_ms", "result_cache.hits",
                   "session.prepare_calls", "analysis.calls", "parse.calls",
                   "chain.calls", "exact.calls", "cache.lookups"],
}
IDLE = {
    "cold-exact": ["sample.calls", "http.submit_ms", "http.fetch_ms",
                   "result_cache.hit_ratio", "result_cache.hits", "session.prepare_calls",
                   "cache.lookups", "supervisor.calls"],
    "warm-sample": ["cli.calls", "http.submit_ms", "http.fetch_ms", "result_cache.hits",
                    "session.prepare_calls", "partition.calls", "sparse.calls",
                    "chain.calls"],
    "http-churn": ["cli.calls", "sample.calls", "sparse.calls", "supervisor.calls",
                   "kernel.step_calls"],
}

#: Counts that must repeat exactly across two runs with one seed.
DETERMINISTIC = ["chain.states", "sample.samples", "session.prepare_calls",
                 "cache.lookups", "result_cache.hits"]

_ALWAYS_IMPORT = [
    "repro.cli", "repro.service.service", "repro.service.client",
    "repro.service.http", "repro.runtime.degradation", "repro.perf.parallel",
    "repro.sparse.evaluate", "repro.markov.lumping",
]


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.caches: list = []
        self.supervisors = 0
        #: Spans that dispatched work to supervisor workers.
        self.dispatching: set[int] = set()
        self._cache_base: dict[int, dict] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()

    def start(self) -> None:
        """Begin the timed region: counters from here on, caches as deltas."""
        self._cache_base = {id(cache): cache.stats() for cache in self.caches}
        self.set_request(None)
        self.active = True

    def cache_deltas(self) -> list[dict]:
        """Each transition cache's counters over the timed region."""
        zero = {"hits": 0, "misses": 0, "evictions": 0}
        out = []
        for cache in self.caches:
            now, base = cache.stats(), self._cache_base.get(id(cache), zero)
            out.append({key: now[key] - base[key] for key in zero})
        return out

    # -- request ids ---------------------------------------------------

    def set_request(self, request_id: str | None) -> None:
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, on_result=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            if not recorder.active or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else None
            if layer == "supervisor":
                recorder.dispatching.update(span for span, _ in stack)
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((
                    span_id, parent, layer, name, start, end,
                    getattr(recorder._local, "request", None),
                    threading.get_ident(),
                ))
            if on_result is not None:
                counter, amount = on_result
                value = amount(result)
                recorder.count(counter, value)
                if span_id in recorder.dispatching:
                    recorder.count(counter + ".dispatched", value)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.active:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start


def _replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    replaced = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls (for the rest of this process)."""
    for name in _ALWAYS_IMPORT:
        importlib.import_module(name)
    # Work counts read off a call's result: function -> (counter, amount).
    results = {
        "build_state_chain": ("chain.states", lambda chain: chain.size),
        "assemble_sparse_chain": ("sparse.states", lambda chain: chain.size),
        "solve_long_run": ("sparse.iterations", lambda out: out[1].iterations),
        "evaluate_partitioned": (
            "partition.components", lambda out: len(out.details["components"])),
        "evaluate_forever_mcmc": ("sample.samples", lambda out: out.samples),
        "evaluate_inflationary_sampling": ("sample.samples", lambda out: out.samples),
    }
    for layer, functions in FUNCTIONS.items():
        for module_name, attr in functions:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = recorder.wrap(layer, attr, original, results.get(attr))
            if not _replace_everywhere(original, wrapper):
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
    for layer, methods in METHODS.items():
        for module_name, class_name, attr in methods:
            cls = getattr(importlib.import_module(module_name), class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(recorder.wrap(layer, attr, raw.__func__)))
            else:
                setattr(cls, attr, recorder.wrap(layer, attr, raw))
    _install_counters(recorder)
    gc.callbacks.append(recorder._on_gc)


def _install_counters(recorder: Recorder) -> None:
    """Counted calls that are too frequent or too small for spans."""
    from repro.perf.cache import TransitionCache
    from repro.perf.supervisor import WorkerSupervisor
    from repro.service.result_cache import ResultCache
    from repro.service.service import QueryService

    row, cache_init = TransitionCache.row, TransitionCache.__init__

    def counted_row(self, state):
        if recorder.active:
            recorder.count("cache.lookups")
        return row(self, state)

    def registered_init(self, *args, **kwargs):
        cache_init(self, *args, **kwargs)
        recorder.caches.append(self)

    TransitionCache.row = counted_row
    TransitionCache.__init__ = registered_init

    get = ResultCache.get

    def counted_get(self, key):
        payload = get(self, key)
        if recorder.active:
            recorder.count("result_cache.lookups")
            recorder.count("result_cache.hits", payload is not None)
        return payload

    ResultCache.get = counted_get

    supervisor_init = WorkerSupervisor.__init__

    def counted_supervisor(self, *args, **kwargs):
        if recorder.active:
            recorder.supervisors += 1
        supervisor_init(self, *args, **kwargs)

    WorkerSupervisor.__init__ = counted_supervisor

    # Admission runs on the caller's thread (an HTTP handler thread on
    # http-churn) and execution on a scheduler thread: both take the
    # request id from the submit call or the job record.
    submit, execute = QueryService.submit, QueryService.__dict__["_execute"]

    def tagged_submit(self, request, request_id=None):
        previous = getattr(recorder._local, "request", None)
        recorder.set_request(request_id or previous)
        try:
            return submit(self, request, request_id=request_id)
        finally:
            recorder.set_request(previous)

    def tagged_execute(self, job):
        recorder.set_request(job.request_id)
        try:
            return execute(self, job)
        finally:
            recorder.set_request(None)

    QueryService.submit = tagged_submit
    QueryService._execute = tagged_execute


def _self_times(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """Per layer: calls, inclusive seconds, self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span_id, _, layer, _, start, end, _, _ in spans:
        calls[layer] += 1
        inclusive[layer] += end - start
        own[layer] += end - start - child_time[span_id]
    return calls, inclusive, own


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_ms(src: Path, launches: int = 3) -> float:
    """Median wall time of ``import repro.cli`` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()) * 1e3)
    return statistics.median(times)


def _pool_counters(service) -> tuple[int, int]:
    if service is None:
        return 0, 0
    stats = service.sessions.stats()
    return stats["hits"], stats["misses"]


def layer_metrics(recorder: Recorder, outcomes, session_hit_ratio: float,
                  supervisor_restarts: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass (zero for an idle layer)."""
    calls, inclusive, own = _self_times(recorder.spans)
    # Samples drawn in this process: not those of calls that handed
    # their draws to supervisor workers (their time is supervisor.ms).
    _, _, own_here = _self_times(
        [span for span in recorder.spans if span[0] not in recorder.dispatching]
    )
    ms = 1e3
    counts = recorder.counts
    jobs = [o.job for o in outcomes if o.job is not None]
    ok = [o for o in outcomes if o.error is None]
    caches = recorder.cache_deltas()
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    samples = counts["sample.samples"]
    samples_here = samples - counts["sample.samples.dispatched"]
    http = {
        name: sorted(end - start for _, _, layer, _, start, end, _, _ in recorder.spans
                     if layer == name)
        for name in ("http.submit", "http.fetch")
    }
    latency_by_job = {o.job["id"]: o.latency_s for o in ok if o.job is not None}
    metrics = {
        "cli.calls": calls["cli"],
        "cli.ms": inclusive["cli"] * ms,
        "parse.calls": calls["parse"],
        "parse.self_ms": own["parse"] * ms,
        "analysis.calls": calls["analysis"],
        "analysis.self_ms": own["analysis"] * ms,
        "interp.step_calls": calls["interp"],
        "interp.step_self_ms": own["interp"] * ms,
        "kernel.compile_calls": calls["kernel.compile"],
        "kernel.compile_ms": inclusive["kernel.compile"] * ms,
        "kernel.step_calls": calls["kernel.step"],
        "kernel.step_self_ms": own["kernel.step"] * ms,
        "cache.lookups": counts["cache.lookups"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": sum(c["evictions"] for c in caches),
        "chain.calls": calls["chain"],
        "chain.states": counts["chain.states"],
        "chain.self_ms": own["chain"] * ms,
        "exact.calls": calls["exact"],
        "exact.self_ms": own["exact"] * ms,
        "solve.calls": calls["solve"],
        "solve.self_ms": own["solve"] * ms,
        "sparse.calls": calls["sparse.solve"],
        "sparse.states": counts["sparse.states"],
        "sparse.iterations": counts["sparse.iterations"],
        "sparse.assemble_ms": inclusive["sparse.assemble"] * ms,
        "sparse.solve_ms": inclusive["sparse.solve"] * ms,
        "partition.calls": calls["partition"],
        "partition.components": counts["partition.components"],
        "partition.self_ms": own["partition"] * ms,
        "sample.calls": calls["sample"],
        "sample.samples": samples,
        "sample.self_ms": own["sample"] * ms,
        "sample.us_per_sample": (
            own_here["sample"] * 1e6 / samples_here if samples_here else 0.0
        ),
        "supervisor.calls": calls["supervisor"],
        "supervisor.ms": inclusive["supervisor"] * ms,
        "supervisor.oneshot_pools": recorder.supervisors,
        "supervisor.restarts": supervisor_restarts,
        "session.hit_ratio": session_hit_ratio,
        "session.prepare_calls": calls["session.prepare"],
        "session.prepare_ms": inclusive["session.prepare"] * ms,
        "session.evaluate_self_ms": own["session.evaluate"] * ms,
        "scheduler.queue_wait_p50_ms": _quantile([j["queue_s"] * ms for j in jobs], 50),
        "scheduler.queue_wait_p90_ms": _quantile([j["queue_s"] * ms for j in jobs], 90),
        "scheduler.overhead_ms": _quantile(
            [(latency_by_job[j["id"]] - j["run_s"]) * ms
             for j in jobs if j["id"] in latency_by_job], 50),
        "scheduler.shed": sum(j["shed"] for j in jobs),
        "scheduler.retries": sum(max(0, j["attempts"] - 1) for j in jobs),
        "result_cache.hit_ratio": (
            counts["result_cache.hits"] / counts["result_cache.lookups"]
            if counts["result_cache.lookups"] else 0.0
        ),
        "result_cache.hits": counts["result_cache.hits"],
        "http.submit_ms": _quantile([s * ms for s in http["http.submit"]], 50),
        "http.fetch_ms": _quantile([s * ms for s in http["http.fetch"]], 50),
        "obs.trace_records_per_job": (
            statistics.mean(j["trace_records"] for j in jobs) if jobs else 0.0
        ),
        "obs.trace_dropped": sum(j["trace_dropped"] for j in jobs),
        "gc.collections": recorder.gc_collections,
        "gc.pause_ms": recorder.gc_pause_s * ms,
    }
    return {name: float(value) for name, value in metrics.items()}


#: Units of the per-layer metrics, by name suffix.
def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith("ratio") or name == "error_rate":
        return "ratio"
    return "count"


def coverage_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers that should be loaded but recorded nothing, and the reverse."""
    problems = [f"{name} is 0 but {workload} loads that layer"
                for name in LOADED[workload] if not metrics[name]]
    problems += [f"{name} = {metrics[name]} but {workload} leaves that layer idle"
                 for name in IDLE[workload] if metrics[name]]
    for name in ("scheduler.shed", "scheduler.retries",
                 "supervisor.oneshot_pools", "supervisor.restarts"):
        if metrics[name]:
            problems.append(f"{name} = {metrics[name]}: the work depended on timing")
    return problems


def write_spans(path: Path, recorder: Recorder) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, layer, name, start, end, request, thread in recorder.spans:
            handle.write(json.dumps({
                "span": span_id, "parent": parent, "layer": layer, "call": name,
                "start": start, "end": end, "request": request, "thread": thread,
            }) + "\n")


def traced_run(workload: str, traffic, workdir: Path, src: Path, spans_path: Path) -> dict:
    """Untraced pass, traced pass, per-layer metrics and coverage checks."""
    import runners
    from repro.perf.supervisor import warm_pool_stats

    _, plain, plain_wall = runners.run_pass(workload, traffic, workdir, "plain")
    runners.pool_sampled(traffic.timed, plain)
    recorder = Recorder()
    install(recorder)
    runner, _ = runners.set_up(workload, traffic, workdir)
    service = getattr(runner, "service", None)
    before = _pool_counters(service)
    restarts = warm_pool_stats()["restarts"]
    recorder.start()
    try:
        traced, traced_wall = runners.run_paced(
            _Tagging(runner, recorder), traffic.timed, "traced", collect_jobs=True
        )
    finally:
        recorder.active = False
        runner.teardown()
    runners.pool_sampled(traffic.timed, traced)
    after = _pool_counters(service)
    lookups = (after[0] - before[0]) + (after[1] - before[1])
    session_hit_ratio = (after[0] - before[0]) / lookups if lookups else 0.0
    metrics = layer_metrics(recorder, traced, session_hit_ratio,
                            warm_pool_stats()["restarts"] - restarts)
    metrics["cli.import_ms"] = import_ms(src)
    metrics["trace.overhead_ratio"] = traced_wall.reference_s / plain_wall.reference_s
    attempted, failed, failures = runners.summarize(plain + traced)
    metrics["error_rate"] = failed / attempted
    for line in failures[:20]:
        print(f"FAILED {line}")
    problems = coverage_violations(workload, metrics)
    for line in problems:
        print(f"COVERAGE {line}")
    write_spans(spans_path, recorder)
    print(f"spans: {len(recorder.spans)}")
    for name in sorted(metrics):
        print(f"{name:<30} {metrics[name]:14.4f} {unit_of(name)}")
    print("counts: " + json.dumps({name: metrics[name] for name in DETERMINISTIC},
                                  sort_keys=True))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }


class _Tagging:
    """A runner proxy that tags the client thread with the request id."""

    def __init__(self, runner, recorder: Recorder):
        self.name = runner.name
        self.clients = runner.clients
        self._runner = runner
        self._recorder = recorder

    def send(self, request, client, request_id):
        self._recorder.set_request(request_id)
        try:
            return self._runner.send(request, client, request_id)
        finally:
            self._recorder.set_request(None)
