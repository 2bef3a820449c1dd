"""The three closed-loop runners and the client loop they share.

Each runner owns one workload's set-up, the call that sends one request
through the system's public entry points, and the tear-down:

* ``cold-exact`` calls ``repro.cli.main([..., "--json"])`` in-process,
  one client, a fresh parse and evaluation per call;
* ``warm-sample`` submits to an in-process ``QueryService`` with the
  defaults ``repro serve`` ships and blocks in ``QueryService.wait``,
  two clients (the ``repro loadgen`` path);
* ``http-churn`` puts the same service behind ``make_server`` in this
  process; two clients ``ServiceClient.submit``, block in
  ``QueryService.wait`` (``ServiceClient.wait`` polls in 100 ms steps),
  then fetch the record with ``ServiceClient.job``.

The clients sample the host's speed as they go (``pace``), so every
time is also known at reference speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import instances
import pace
from traffic import Request

#: Longest a request may take before it counts as failed.
REQUEST_TIMEOUT = 120.0

#: Speed samples taken before each set-up step and after the last.
SETUP_SAMPLES = 3

#: The CPUs this process was given, before ``pin_threads``.
CPUS = frozenset(os.sched_getaffinity(0))


class RequestFailed(Exception):
    """A request errored, was refused, timed out or answered wrongly."""


@dataclass
class Outcome:
    """What one timed request did."""

    index: int
    cls: str
    client: int
    latency_s: float
    error: str | None
    #: When the request finished, in seconds from the start of the run.
    end_s: float = 0.0
    #: The scheduler's record of the job, when collected (traced pass).
    job: dict | None = None
    #: ``time.perf_counter()`` when the request was sent.
    started: float = 0.0
    #: ``latency_s`` at reference speed (``pace``).
    reference_s: float = 0.0
    #: A sampled answer's estimate and sample count (pooled check).
    estimate: float | None = None
    samples: int = 0


def job_facts(job) -> dict:
    """The scheduler and tracing facts of one finished job."""
    trace = job.trace or []
    dropped = sum(r.get("dropped_events", 0) for r in trace if r.get("type") == "run")
    return {
        "id": job.id,
        "queue_s": job.queue_seconds() or 0.0,
        "run_s": job.run_seconds() or 0.0,
        "shed": len(job.shed),
        "attempts": job.attempts,
        "cache_hit": job.cache_hit,
        "trace_records": len(trace),
        "trace_dropped": dropped,
    }


def _answer(request: Request, payload: dict) -> dict:
    verdict = request.check.verdict(payload)
    if verdict is not None:
        raise RequestFailed(f"wrong answer ({request.cls}): {verdict}")
    return payload


class ColdExact:
    """In-process CLI calls; input files are written before set-up."""

    name = "cold-exact"
    clients = 1

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._argv: dict[int, list[str]] = {}

    def materialize(self, requests: list[Request]) -> None:
        """Write each request's program and database once, by content."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for request in requests:
            suffix = ".dl" if request.semantics == "datalog" else ".ra"
            program = self._write(request.program, suffix)
            database = self._write(json.dumps(request.database), ".json")
            self._argv[id(request)] = [
                request.semantics, str(program), "--db", str(database),
                "--event", request.event, *request.flags, "--json",
            ]

    def _write(self, text: str, suffix: str) -> Path:
        path = self.workdir / (hashlib.sha256(text.encode()).hexdigest()[:20] + suffix)
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        return path

    def start(self) -> None:
        pass

    def send(self, request: Request, client: int, request_id: str | None):
        import repro.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = repro.cli.main(self._argv[id(request)])
        if code != 0:
            raise RequestFailed(f"exit {code}: {err.getvalue().strip()[:300]}")
        return None, _answer(request, json.loads(out.getvalue()))

    def teardown(self) -> None:
        pass


class WarmSample:
    """A default ``QueryService`` driven through ``submit`` + ``wait``."""

    name = "warm-sample"
    clients = 2

    def __init__(self) -> None:
        self.service = None

    def start(self) -> None:
        from repro.perf.supervisor import prewarm
        from repro.service import QueryService

        self.service = QueryService()
        self.service.start()
        prewarm(2)

    def send(self, request: Request, client: int, request_id: str | None):
        from repro.service.request import QueryRequest

        job = self.service.submit(QueryRequest.from_json(request.body()),
                                  request_id=request_id)
        job = self.service.wait(job.id, timeout=REQUEST_TIMEOUT)
        if job.state != "done":
            raise RequestFailed(f"job {job.state}: {job.error}")
        return job, _answer(request, job.result)

    def teardown(self) -> None:
        self.service.shutdown()


class HttpChurn:
    """The same service behind its HTTP front-end, in this process."""

    name = "http-churn"
    clients = 2

    def __init__(self) -> None:
        self.service = None
        self.server = None
        self._thread = None
        self._clients: list = []

    def start(self) -> None:
        from repro.service import QueryService
        from repro.service.client import ServiceClient
        from repro.service.http import make_server

        self.service = QueryService()
        self.service.start()
        self.server = make_server(self.service)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http", daemon=True
        )
        self._thread.start()
        host, port = self.server.server_address[:2]
        # No client-side retries: a refused or dropped call is a failure.
        self._clients = [
            ServiceClient(f"http://{host}:{port}", timeout=REQUEST_TIMEOUT, retry=None)
            for _ in range(self.clients)
        ]

    def send(self, request: Request, client: int, request_id: str | None):
        http = self._clients[client]
        record = http.submit(request.body(), request_id=request_id)
        job = self.service.wait(record["id"], timeout=REQUEST_TIMEOUT)
        record = http.job(record["id"])
        if record["state"] != "done":
            raise RequestFailed(f"job {record['state']}: {record['error']}")
        return job, _answer(request, record["result"])

    def teardown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)
        self.service.shutdown()


def make_runner(workload: str, workdir: Path):
    if workload == "cold-exact":
        return ColdExact(workdir)
    if workload == "warm-sample":
        return WarmSample()
    return HttpChurn()


class _Dispatcher:
    """Hands the fixed request list out in order; pinned requests wait
    for their client, unpinned ones go to whichever client is free."""

    def __init__(self, requests: list[Request]):
        self._requests = requests
        self._taken = [False] * len(requests)
        self._low = 0
        self._lock = threading.Lock()

    def next_for(self, client: int) -> tuple[int, Request] | None:
        with self._lock:
            for index in range(self._low, len(self._requests)):
                request = self._requests[index]
                if not self._taken[index] and request.pin in (None, client):
                    self._taken[index] = True
                    while self._low < len(self._taken) and self._taken[self._low]:
                        self._low += 1
                    return index, request
            return None


def run_closed_loop(
    runner, requests: list[Request], tag: str, collect_jobs: bool = False,
    sampler: pace.Sampler | None = None,
) -> tuple[list[Outcome], float]:
    """Send ``requests`` from ``runner.clients`` closed-loop clients.

    Returns every request's outcome and the wall time of the whole run.
    A request's latency runs from its first call into the program until
    its answer has been checked.  ``collect_jobs`` keeps each job's
    scheduler facts (the traced pass reads them).  With a ``sampler``,
    each client samples the host's speed before a request, at most
    every ``pace.EVERY_S``; the sample is not part of the latency.
    """
    dispatcher = _Dispatcher(requests)
    outcomes: list[Outcome] = []
    lock = threading.Lock()

    def client(number: int) -> None:
        while True:
            item = dispatcher.next_for(number)
            if item is None:
                return
            index, request = item
            if sampler is not None:
                sampler.sample(number)
            error = job = payload = None
            start = time.perf_counter()
            try:
                job, payload = runner.send(request, number, f"{tag}-{index}")
            except Exception as failure:  # every failure is counted, none hidden
                error = f"{type(failure).__name__}: {failure}"
            end = time.perf_counter()
            outcome = Outcome(index, request.cls, number, end - start, error,
                              end - begin, started=start)
            if collect_jobs and job is not None:
                outcome.job = job_facts(job)
            if payload is not None and request.check.kind == "sampled":
                outcome.estimate = float(payload["estimate"])
                outcome.samples = int(payload["samples"])
            with lock:
                outcomes.append(outcome)

    threads = [
        threading.Thread(target=client, args=(n,), name=f"perfbench-client-{n}")
        for n in range(runner.clients)
    ]
    begin = time.perf_counter()  # read by the clients once they start
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes, wall


def pin_threads() -> None:
    """Keep every thread of this process on one CPU; new threads inherit it.

    A process runs one Python thread at a time, so this costs the
    workload little parallelism; but a hand-off between two threads then
    never waits for the host to wake an idle virtual CPU, a wait that
    depends on the host's load rather than on the program.  Processes
    started before (the supervised pool's workers) keep every CPU.
    """
    cpu = min(CPUS)
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:  # the thread ended since the listing
            pass


@dataclass
class Timing:
    """Wall seconds of a stretch of work, raw and at reference speed."""

    raw_s: float
    reference_s: float
    sampler: pace.Sampler


def set_up(workload: str, traffic, workdir: Path):
    """A fresh runner, set up; returns it and the set-up's ``Timing``.

    Set-up is the runner's start and one warm-up pass from one client.
    The host's speed is sampled before each step and after the last;
    the samples are not part of the set-up time.  Input files are
    written before the clock starts: making inputs is the benchmark's
    work, not the program's.
    """
    runner = make_runner(workload, workdir)
    if hasattr(runner, "materialize"):
        runner.materialize(traffic.warmup + traffic.timed)
    sampler = pace.Sampler(workload)

    def pause() -> float:
        for _ in range(SETUP_SAMPLES):
            sampler.sample(force=True)
        return time.perf_counter()

    start = pause()
    runner.start()
    raw = time.perf_counter() - start
    pin_threads()
    for index, request in enumerate(traffic.warmup):
        start = pause()
        runner.send(request, 0, f"warm-up-{index}")
        raw += time.perf_counter() - start
    pause()
    return runner, Timing(raw, raw * sampler.factor(), sampler)


def run_paced(runner, requests: list[Request], tag: str, collect_jobs: bool = False):
    """``run_closed_loop`` with the host's speed sampled as it goes.

    Returns the outcomes, each with its latency at reference speed, and
    the timed region's ``Timing``.
    """
    sampler = pace.Sampler(runner.name)
    sampler.sample(force=True)
    outcomes, wall = run_closed_loop(runner, requests, tag, collect_jobs, sampler)
    sampler.sample(force=True)
    for outcome in outcomes:
        outcome.reference_s = outcome.latency_s * sampler.factor_at(
            outcome.started, outcome.started + outcome.latency_s
        )
    return outcomes, Timing(wall, wall * sampler.factor(), sampler)


def run_pass(workload: str, traffic, workdir: Path, tag: str):
    """Set up a fresh runner, run the timed list once, tear down.

    Returns the set-up's ``Timing``, the outcomes and the timed region's
    ``Timing``.
    """
    runner, setup = set_up(workload, traffic, workdir)
    try:
        outcomes, wall = run_paced(runner, traffic.timed, tag)
    finally:
        runner.teardown()
    return setup, outcomes, wall


def pool_sampled(requests: list[Request], outcomes: list[Outcome]) -> list[str]:
    """Judge each class's sampled answers together; returns the failures.

    The per-request envelope is wide at a few hundred samples, so an
    estimate that is always a little off passes it.  The draws of
    distinct requests are independent Bernoulli variables with known
    means, so ``sum(estimate * n)`` over a class must lie within the
    Hoeffding envelope of ``sum(reference * n)`` over all its draws.  A
    class outside it fails as a whole: each of its requests is marked
    failed.
    """
    classes: dict[str, list[tuple[Outcome, Request]]] = {}
    for outcome in outcomes:
        request = requests[outcome.index]
        if outcome.error is None and outcome.estimate is not None:
            classes.setdefault(outcome.cls, []).append((outcome, request))
    failures = []
    for cls, members in sorted(classes.items()):
        verdict = instances.pooled_verdict(
            [(request.check, outcome.estimate, outcome.samples)
             for outcome, request in members]
        )
        if verdict is None:
            continue
        failures.append(f"{cls}: {verdict}")
        for outcome, _ in members:
            outcome.error = f"pooled check of class {cls} failed: {verdict}"
    return failures


def summarize(outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    """Attempted and failed counts, and one line per failure."""
    failures = [f"#{o.index} {o.cls}: {o.error}" for o in outcomes if o.error]
    return len(outcomes), len(failures), failures
