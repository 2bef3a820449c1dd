"""Command-line interface.

Evaluate queries of the paper's languages directly from files::

    python -m repro datalog program.dl --db db.json --event 'c(w)'
    python -m repro datalog program.dl --db db.json --event 'c(w)' --samples 2000 --seed 7
    python -m repro forever kernel.ra --db db.json --event 'C(a)'
    python -m repro forever kernel.ra --db db.json --event 'C(a)' --mcmc --epsilon 0.1
    python -m repro inflationary kernel.ra --db db.json --event 'C(b)'
    python -m repro chain kernel.ra --db db.json        # structure + mixing report

* ``program.dl`` — probabilistic datalog (see :mod:`repro.datalog.parser`);
* ``kernel.ra`` — an interpretation in the algebra syntax
  (see :mod:`repro.relational.parser`): one ``Name := expression`` per line;
* ``db.json`` — a database in the :mod:`repro.io` JSON format;
* ``--event`` — a ground atom ``relation(value, ...)``; values parse
  like datalog constants (numbers exact, ``'quoted strings'``, barewords).

Exact evaluation is the default; pass ``--samples`` or
``--epsilon/--delta`` for the sampling evaluators (Theorems 4.3 / 5.6).
``--json`` switches the output to machine-readable JSON.

``forever``, ``inflationary`` and ``datalog`` build the request body
``repro submit`` sends and evaluate it in-process on an
:class:`~repro.service.EngineSession`, so they pick the same rung and
print the same payload as the service; the payload keys (``kind``,
``method``, ...) are tabled in ``docs/service.md``.  Parameters are
validated the same way too: a bad ``--samples``/``--epsilon``/... value
is one ``error:`` line and exit code 2.

Resource limits (see ``docs/robustness.md``): every subcommand accepts
``--timeout SECONDS`` (wall-clock deadline) and ``--max-steps N``
(transition-step budget); exceeding either aborts with a one-line
message and exit code 2.  ``forever`` additionally supports

* ``--fallback {none,lumped,mcmc,auto}`` — degrade gracefully when the
  explicit chain outgrows ``--max-states`` instead of failing
  (exact → lumped → MCMC; each downgrade is reported);
* ``--checkpoint PATH`` — persist Theorem 5.6 sampler progress on
  interruption (budget, Ctrl-C) so nothing is lost;
* ``--resume PATH`` — continue an interrupted sampler run
  bit-identically from its checkpoint.

Performance knobs (see ``docs/performance.md``): the sampling
subcommands accept ``--workers N`` (multi-core trials with
deterministic per-worker seeds; ``--workers 1`` reproduces the
sequential sampler bit-identically) and ``--cache-size N`` (memoize up
to N exact transition rows).  With ``--fallback``, both knobs apply to
the MCMC rung of the degradation ladder.

Observability (see ``docs/observability.md``): every evaluation
subcommand accepts ``--trace PATH`` to write a JSONL trace of spans
(``parse`` → ``chain-build`` → ``solve`` / ``sample``) and bounded step
events; ``repro report trace.jsonl`` pretty-prints it — phase
breakdown, convergence sparkline, event counts::

    python -m repro forever kernel.ra --db db.json --event 'C(a)' \
        --mcmc --seed 7 --trace run.jsonl
    python -m repro report run.jsonl

Serving (see ``docs/service.md``): ``repro serve`` runs the HTTP query
service (persistent engine sessions, bounded job queue, result cache);
``--log-level`` controls the ``repro.service`` logger on stderr.
``repro submit`` and ``repro jobs`` are its client — submit a query,
poll/cancel jobs, fetch traces, scrape ``/v1/metrics``::

    python -m repro serve --port 8352 --workers 4 --default-timeout 60
    python -m repro submit forever kernel.ra --db db.json --event 'C(a)' --url http://127.0.0.1:8352
    python -m repro jobs --metrics --url http://127.0.0.1:8352

Exit codes: 0 success, 2 any library/input error, 130 interrupted
(Ctrl-C; a configured ``--checkpoint`` is flushed first, and a
``serve`` process shuts its workers down).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import __version__
from repro.core import ForeverQuery, build_state_chain, evaluate_forever_mcmc
from repro.core.events import parse_event
from repro.errors import ReproError
from repro.io import load_database
from repro.obs.schema import TraceSchemaError
from repro.markov import classify, is_ergodic, is_irreducible, mixing_time
from repro.relational.parser import parse_interpretation
from repro.runtime import Budget, RunContext

def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _add_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, help="fixed Monte-Carlo sample count")
    parser.add_argument("--epsilon", type=float, help="additive accuracy target")
    parser.add_argument("--delta", type=float, default=0.05, help="failure probability (default 0.05)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; exceeding it aborts with exit code 2",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="total transition-step budget across the whole run",
    )


def _add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sampling evaluators (1 = the "
        "historical sequential sampler, bit-identical; N > 1 is "
        "seed-stable for fixed N)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="memoize up to N exact transition rows (LRU); hit/miss "
        "counters are reported — see docs/performance.md for when "
        "this is safe",
    )


def _add_backend_argument(
    parser: argparse.ArgumentParser, default: str, sparse: bool = False
) -> None:
    choices = ("frozenset", "columnar", "sparse") if sparse else (
        "frozenset", "columnar"
    )
    extra = (
        "; 'sparse' (forever only) answers through the certified CSR "
        "solver first, falling back down the ladder when the answer "
        "cannot be certified"
        if sparse
        else ""
    )
    parser.add_argument(
        "--backend",
        choices=choices,
        default=None,
        help=f"execution backend (default: {default}): 'columnar' runs the "
        "program compiled to the vectorized integer-ID array kernel, "
        "'frozenset' on the interpreter (answers and seeded draws are "
        "identical; a program the kernel cannot express stays on "
        "'frozenset' with a recorded reason — see 'repro lint' hint "
        "PH005)" + extra,
    )


def _add_partition_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--partition",
        choices=("auto", "off"),
        default="off",
        help="statically decompose the program into provenance-independent "
        "components ('repro lint' finding PP001), evaluate each on its own "
        "cheapest rung, and recombine the event probability by independence; "
        "falls back to whole-program evaluation when the planner finds a "
        "single component or the event does not decompose",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL evaluation trace here "
        "(inspect with 'repro report PATH')",
    )


def _build_context(args: argparse.Namespace) -> RunContext:
    """A run context from the subcommand's budget/trace flags."""
    tracer = None
    trace_path = getattr(args, "trace", None)
    # ``jobs --trace`` is a boolean flag fetching a *service* trace, not
    # a path to write one to.
    if isinstance(trace_path, str) and trace_path:
        from repro.obs import JsonlSink, Tracer

        tracer = Tracer(JsonlSink.open(trace_path))
    return RunContext(
        Budget(
            wall_clock=getattr(args, "timeout", None),
            max_steps=getattr(args, "max_steps", None),
        ),
        tracer=tracer,
    )


def _finalize_trace(context: RunContext | None, payload: dict | None) -> None:
    """Write the closing ``run`` record and flush the trace file.

    Runs on every exit path (success, budget abort, Ctrl-C) so a traced
    run always ends with its report — outcome, per-phase timings, spent
    budget — even when the evaluation itself died.
    """
    if context is None or not context.tracer.enabled:
        return
    if payload is not None:
        # A handler that returned is a successful run; error paths leave
        # the outcome the context recorded (budget_exceeded, cancelled).
        context.finish()
    report = context.report().as_dict()
    fields: dict = {"outcome": report["outcome"], "report": report}
    if isinstance(payload, dict):
        for key in ("kind", "method", "estimate", "probability", "samples"):
            if key in payload:
                fields[key] = payload[key]
    context.tracer.run_record(**fields)
    context.tracer.close()


def _command_evaluate(args: argparse.Namespace, context: RunContext) -> dict:
    """``repro forever|inflationary|datalog``: build the request body
    ``repro submit`` would send, and evaluate it in-process.

    Rung selection and the payload (keys tabled in ``docs/service.md``)
    are :meth:`EngineSession.evaluate <repro.service.EngineSession.evaluate>`'s;
    this command only reads the files and reports.
    """
    from repro.service.request import QueryRequest
    from repro.service.session import EngineSession

    with context.phase("parse"):
        request = QueryRequest.from_json(_submit_body(args))
        session = EngineSession.from_request(request)
    return session.evaluate(
        request,
        context,
        checkpoint_path=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", None),
    )


def _load_kernel_and_event(args: argparse.Namespace, context: RunContext):
    with context.phase("parse"):
        with open(args.kernel, encoding="utf-8") as handle:
            kernel = parse_interpretation(handle.read())
        db = load_database(args.db)
        event = parse_event(args.event)
    return kernel, db, event


def _command_chain(args: argparse.Namespace, context: RunContext) -> dict:
    with context.phase("parse"):
        with open(args.kernel, encoding="utf-8") as handle:
            kernel = parse_interpretation(handle.read())
        db = load_database(args.db)
    columnar = False
    if args.backend != "frozenset":
        from repro.kernel import lower_kernel

        compiled, db = lower_kernel(kernel, db, context)
        columnar, kernel = compiled is not kernel, compiled
    with context.phase("chain-build") as scope:
        chain = build_state_chain(
            kernel, db, max_states=args.max_states, context=context
        )
        scope.annotate(states=chain.size)
    with context.phase("solve"):
        summary: dict = dict(classify(chain))
        if is_irreducible(chain) and is_ergodic(chain):
            summary["mixing_time_0.25"] = mixing_time(
                chain, epsilon=0.25, context=context
            )
            summary["mixing_time_0.05"] = mixing_time(
                chain, epsilon=0.05, context=context
            )
    if columnar:
        summary["backend"] = "columnar"
    return summary


def _command_report(args: argparse.Namespace, context: RunContext) -> dict:
    """Pretty-print a JSONL trace: phases, convergence curve, events."""
    from repro.obs import load_summary, render_summary

    if getattr(args, "flame", False):
        from repro.obs import render_flame
        from repro.obs.schema import validate_trace_file

        print(render_flame(validate_trace_file(args.trace_file)), end="")
        return {}
    summary = load_summary(args.trace_file)
    if args.json:
        return summary.as_dict()
    print(render_summary(summary), end="")
    return {}


def _command_profile(args: argparse.Namespace, context: RunContext) -> dict:
    """EXPLAIN-ANALYZE for one run: span tree and exclusive phase totals.

    The target is either a local JSONL trace file (written by
    ``--trace``) or a job id on a running service (``--url``).
    """
    import os

    from repro.obs import profile_from_trace, render_flame, render_profile

    if os.path.exists(args.target):
        from repro.obs.schema import validate_trace_file

        records = validate_trace_file(args.target)
        if args.flame:
            print(render_flame(records), end="")
            return {}
        payload = profile_from_trace(records)
    else:
        from repro.service import ServiceClient

        payload = ServiceClient(args.url).profile(args.target)
        if args.flame:
            for line in payload.get("folded") or []:
                print(line)
            return {}
    if args.json:
        return payload
    print(render_profile(payload), end="")
    return {}


def _infer_semantics(path: str, source: str) -> str:
    """Pick the language for ``lint`` when --semantics is ``auto``:
    by extension first (.dl / .ra), then by shape (``:=`` lines are
    kernels)."""
    lowered = path.lower()
    if lowered.endswith(".dl"):
        return "datalog"
    if lowered.endswith(".ra"):
        return "forever"
    return "forever" if ":=" in source else "datalog"


def _command_lint(args: argparse.Namespace, context: RunContext) -> dict:
    """Statically analyze a program without evaluating it.

    Exit codes: 1 when error-level diagnostics are found (warnings and
    hints alone keep exit 0), 2 for I/O problems as usual.
    """
    from repro.analysis import analyze_source

    with open(args.program, encoding="utf-8") as handle:
        source = handle.read()
    semantics = args.semantics
    if semantics == "auto":
        semantics = _infer_semantics(args.program, source)
    database = None
    if args.db:
        with open(args.db, encoding="utf-8") as handle:
            database = json.load(handle)
    pc_tables = None
    if args.pc:
        with open(args.pc, encoding="utf-8") as handle:
            pc_tables = json.load(handle)
    result = analyze_source(
        semantics, source, database=database, pc_tables=pc_tables, event=args.event
    )
    if result.report.has_errors:
        args._exit_code = 1
    if args.sarif:
        from repro.analysis import sarif_report

        print(
            json.dumps(
                sarif_report(
                    result, artifact_uri=args.program, tool_version=__version__
                ),
                indent=2,
                sort_keys=True,
            )
        )
        return {}
    if args.json:
        payload = result.as_dict()
        payload["program"] = args.program
        return payload
    for line in result.report.render_lines(args.program):
        print(line)
    if result.partition is not None:
        for line in result.partition.render_lines():
            print(line)
    report = result.report
    summary: dict = {
        "semantics": semantics,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "hints": len(report.hints),
    }
    if result.hints is not None:
        summary["plan_hints"] = ", ".join(
            f"{key}={value}" for key, value in result.hints.as_dict().items()
        )
    return summary


def _command_serve(args: argparse.Namespace, context: RunContext) -> dict:
    """Run the HTTP query service until interrupted (Ctrl-C -> 130)."""
    from repro.service import QueryService, ServiceConfig, make_server

    default_budget = None
    if args.default_timeout is not None or args.default_max_steps is not None:
        default_budget = Budget(
            wall_clock=args.default_timeout, max_steps=args.default_max_steps
        )
    from repro.obs.logs import configure_service_logging

    configure_service_logging(args.log_level)
    if args.fault_plan:
        # Chaos mode: install the plan here (and export it through the
        # environment so supervised worker processes inherit it).
        import os as _os

        from repro import faults

        _os.environ[faults.FAULT_PLAN_ENV] = args.fault_plan
        faults.install_from_env()
    config = ServiceConfig(
        workers=args.workers,
        queue_size=args.queue_size,
        default_budget=default_budget,
        session_pool_size=args.session_pool_size,
        result_cache_size=args.result_cache_size,
        trace_events=args.trace_events,
        load_shedding=not args.no_load_shedding,
    )
    service = QueryService(config)
    supervise_stats = None
    if args.supervise:
        from repro.perf.supervisor import prewarm

        supervise_stats = prewarm(args.supervise)
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    startup = {
        "serving": url, "workers": args.workers, "queue_size": args.queue_size,
    }
    if supervise_stats is not None:
        startup["supervised_workers"] = supervise_stats["alive"]
    # The startup line is printed (and flushed) before serving so a
    # parent process can parse the bound address, ephemeral port included.
    _emit(startup, args.json)
    sys.stdout.flush()

    # Non-interactive shells start background jobs with SIGINT ignored,
    # in which case Python never installs its KeyboardInterrupt handler
    # and `kill -INT` would be a silent no-op.  The documented contract
    # (graceful shutdown, exit 130) must hold regardless of how the
    # server was launched, and SIGTERM gets the same graceful path.
    import signal

    def _request_stop(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    service.start()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        service.shutdown(wait=False, cancel_running=True)
    return {"stopped": url}


def _command_chaos(args: argparse.Namespace, context: RunContext) -> dict:
    """Run seeded fault-injection scenarios against the real samplers.

    Each scenario runs the same seeded Theorem 5.6 evaluation as a clean
    baseline, installs a deterministic :class:`~repro.faults.FaultPlan`,
    and checks the run *recovers to the bit-identical estimate* — crashes
    through supervisor restarts, hangs through heartbeat stall detection,
    transient faults through chunk retries, and torn checkpoint writes
    through the crash-safe rename protocol plus resume.  Exit code 1
    when any scenario fails its check.
    """
    import os
    import tempfile

    from repro import faults
    from repro.faults import (
        SITE_CHECKPOINT_WRITE,
        SITE_SAMPLER_SAMPLE,
        SITE_SUPERVISOR_TASK,
        FaultPlan,
        FaultSpec,
    )
    from repro.perf import ParallelConfig
    from repro.perf.supervisor import HEARTBEAT_TIMEOUT_ENV

    kernel, db, event = _load_kernel_and_event(args, context)
    query = ForeverQuery(kernel, event)
    samples = args.samples
    seed = args.seed
    workers = max(2, args.workers)
    parallel = ParallelConfig(workers=workers)

    def run(parallel_config=None, checkpoint=None, resume=None):
        ctx = RunContext(Budget(
            wall_clock=getattr(args, "timeout", None),
            max_steps=getattr(args, "max_steps", None),
        ))
        result = evaluate_forever_mcmc(
            query,
            db,
            samples=samples,
            burn_in=args.burn_in,
            rng=seed,
            context=ctx,
            parallel=parallel_config,
            checkpoint_path=checkpoint,
            resume=resume,
        )
        return result, ctx

    chosen = (
        ("crash", "hang", "transient", "torn-checkpoint")
        if args.scenario == "all" else (args.scenario,)
    )
    pool_scenarios = [name for name in chosen if name != "torn-checkpoint"]
    baseline_pool = run(parallel)[0] if pool_scenarios else None
    baseline_seq = run(None)[0] if "torn-checkpoint" in chosen else None

    def recovery(name: str, plan: FaultPlan, heartbeat: float | None = None) -> dict:
        if heartbeat is not None:
            os.environ[HEARTBEAT_TIMEOUT_ENV] = str(heartbeat)
        faults.install(plan)
        try:
            result, ctx = run(parallel)
        finally:
            faults.uninstall()
            if heartbeat is not None:
                os.environ.pop(HEARTBEAT_TIMEOUT_ENV, None)
        events = ctx.report().events
        return {
            "scenario": name,
            "ok": result.estimate == baseline_pool.estimate,
            "estimate": result.estimate,
            "expected": baseline_pool.estimate,
            "recovery_events": [
                line for line in events
                if "restart" in line or "retry" in line or "stale" in line
            ],
        }

    def torn_checkpoint() -> dict:
        interrupt_at = max(2, samples // 2)
        checkpoint = os.path.join(
            tempfile.mkdtemp(prefix="repro-chaos-"), "run.ckpt"
        )
        interrupt = FaultSpec(
            SITE_SAMPLER_SAMPLE, "raise", after=interrupt_at, transient=False
        )
        # First interruption: the snapshot write itself is torn mid-way.
        # The rename protocol must leave no (partial) checkpoint behind.
        faults.install(FaultPlan([
            interrupt, FaultSpec(SITE_CHECKPOINT_WRITE, "torn-write"),
        ], seed=seed))
        died = False
        try:
            run(None, checkpoint=checkpoint)
        except ReproError:
            died = True
        finally:
            faults.uninstall()
        torn_ok = died and not os.path.exists(checkpoint)
        # Second interruption, healthy disk: the checkpoint must land.
        faults.install(FaultPlan([interrupt], seed=seed))
        try:
            run(None, checkpoint=checkpoint)
        except ReproError:
            pass
        finally:
            faults.uninstall()
        saved_ok = os.path.exists(checkpoint)
        resumed = run(None, checkpoint=checkpoint, resume=checkpoint)[0]
        return {
            "scenario": "torn-checkpoint",
            "ok": (
                torn_ok and saved_ok
                and resumed.estimate == baseline_seq.estimate
            ),
            "torn_write_left_no_checkpoint": torn_ok,
            "checkpoint_saved_on_retry": saved_ok,
            "estimate": resumed.estimate,
            "expected": baseline_seq.estimate,
        }

    plans = {
        "crash": (FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "crash", generation=0)], seed=seed
        ), None),
        "hang": (FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "hang", generation=0)], seed=seed
        ), 2.0),
        "transient": (FaultPlan(
            [FaultSpec(SITE_SUPERVISOR_TASK, "raise", times=2)], seed=seed
        ), None),
    }
    records = []
    for name in chosen:
        if name == "torn-checkpoint":
            records.append(torn_checkpoint())
        else:
            plan, heartbeat = plans[name]
            records.append(recovery(name, plan, heartbeat))
    all_ok = all(record["ok"] for record in records)
    if not all_ok:
        args._exit_code = 1
    return {
        "ok": all_ok,
        "workers": workers,
        "samples": samples,
        "seed": seed,
        "scenarios": records,
    }


def _submit_body(args: argparse.Namespace) -> dict:
    """The request body for ``repro submit``, and for ``repro
    forever|inflationary|datalog``, which evaluate it in-process."""
    with open(args.program, encoding="utf-8") as handle:
        program_text = handle.read()
    with open(args.db, encoding="utf-8") as handle:
        database = json.load(handle)
    body: dict = {
        "semantics": getattr(args, "semantics", args.command),
        "program": program_text,
        "database": database,
        "event": args.event,
        "priority": getattr(args, "priority", "normal"),
    }
    if getattr(args, "pc", None):
        with open(args.pc, encoding="utf-8") as handle:
            body["pc_tables"] = json.load(handle)
    params = {
        key: getattr(args, key, None)
        for key in (
            "samples", "epsilon", "delta", "seed", "max_states", "burn_in",
            "workers", "cache_size", "backend", "partition", "fallback",
        )
        if getattr(args, key, None) is not None
    }
    for flag in ("mcmc", "lumped"):
        if getattr(args, flag, False):
            params[flag] = True
    if params:
        body["params"] = params
    budget = {
        key: getattr(args, key)
        for key in ("timeout", "max_steps")
        if getattr(args, key) is not None
    }
    if budget:
        body["budget"] = budget
    return body


def _command_submit(args: argparse.Namespace, context: RunContext) -> dict:
    """Submit one query to a running service; wait unless --no-wait."""
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    record = client.submit(_submit_body(args))
    if args.no_wait:
        return record
    return client.wait(record["id"], timeout=args.wait_timeout)


def _command_loadgen(args: argparse.Namespace, context: RunContext) -> dict:
    """Hammer an in-process service and report latency/QPS."""
    from repro.service.loadgen import default_corpus, run_loadgen

    corpus = default_corpus(
        args.requests,
        samples=args.samples,
        burn_in=args.burn_in,
        backend=args.backend,
    )
    report = run_loadgen(
        corpus, concurrency=args.concurrency, timeout=args.wait_timeout
    )
    payload = report.as_dict()
    if args.backend:
        payload["backend"] = args.backend
    return payload


def _command_jobs(args: argparse.Namespace, context: RunContext) -> dict:
    """List/poll/cancel jobs on a running service; scrape its metrics."""
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.metrics:
        return client.metrics()
    if args.prometheus:
        print(client.metrics_prometheus(), end="")
        return {}
    if args.health:
        return client.healthz()
    if args.job_id is None:
        return {"jobs": client.jobs()}
    if args.cancel:
        return client.cancel(args.job_id)
    if args.trace:
        return {"job_id": args.job_id, "trace": client.trace(args.job_id)}
    return client.job(args.job_id)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic fixpoint / Markov chain query languages (PODS 2010)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    # --json is accepted both before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--json", action="store_true", help="JSON output")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datalog = subparsers.add_parser(
        "datalog", help="evaluate a probabilistic datalog query", parents=[common]
    )
    datalog.add_argument("program", help="datalog program file")
    datalog.add_argument("--db", required=True, help="database JSON file")
    datalog.add_argument("--event", required=True, help="ground event atom, e.g. 'c(w)'")
    datalog.add_argument("--pc", help="pc-table database JSON (Definition 2.1)")
    datalog.add_argument("--max-states", type=int, default=100_000)
    _add_sampling_arguments(datalog)
    _add_budget_arguments(datalog)
    _add_trace_argument(datalog)
    datalog.set_defaults(handler=_command_evaluate)

    forever = subparsers.add_parser(
        "forever", help="evaluate a non-inflationary (forever) query", parents=[common]
    )
    forever.add_argument(
        "program", metavar="kernel",
        help="interpretation file (Name := expression lines)",
    )
    forever.add_argument("--db", required=True)
    forever.add_argument("--event", required=True)
    forever.add_argument("--mcmc", action="store_true", help="force the Theorem 5.6 sampler")
    forever.add_argument(
        "--lumped",
        action="store_true",
        help="evaluate exactly on the event-respecting lumped quotient",
    )
    forever.add_argument("--burn-in", type=int, default=None)
    forever.add_argument("--max-states", type=int, default=20_000)
    forever.add_argument(
        "--fallback",
        choices=("none", "sparse", "lumped", "mcmc", "auto"),
        default="none",
        help="degrade exact -> sparse -> lumped -> MCMC when the chain "
        "outgrows --max-states or a certified solve refuses, instead of "
        "failing (downgrades are reported)",
    )
    _add_partition_argument(forever)
    forever.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write sampler progress here on interruption (budget or Ctrl-C)",
    )
    forever.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume an interrupted Theorem 5.6 run from its checkpoint",
    )
    _add_sampling_arguments(forever)
    _add_budget_arguments(forever)
    _add_perf_arguments(forever)
    _add_backend_argument(forever, "columnar", sparse=True)
    _add_trace_argument(forever)
    forever.set_defaults(handler=_command_evaluate)

    inflationary = subparsers.add_parser(
        "inflationary", help="evaluate an inflationary query", parents=[common]
    )
    inflationary.add_argument("program", metavar="kernel")
    inflationary.add_argument("--db", required=True)
    inflationary.add_argument("--event", required=True)
    inflationary.add_argument("--max-states", type=int, default=100_000)
    _add_partition_argument(inflationary)
    _add_sampling_arguments(inflationary)
    _add_budget_arguments(inflationary)
    _add_perf_arguments(inflationary)
    _add_backend_argument(inflationary, "frozenset")
    _add_trace_argument(inflationary)
    inflationary.set_defaults(handler=_command_evaluate)

    chain = subparsers.add_parser(
        "chain", help="analyse the induced database-state chain", parents=[common]
    )
    chain.add_argument("kernel")
    chain.add_argument("--db", required=True)
    chain.add_argument("--max-states", type=int, default=20_000)
    _add_budget_arguments(chain)
    _add_backend_argument(chain, "columnar")
    _add_trace_argument(chain)
    chain.set_defaults(handler=_command_chain)

    lint = subparsers.add_parser(
        "lint",
        help="statically analyze a program without evaluating it "
        "(see docs/analysis.md)",
        parents=[common],
    )
    lint.add_argument("program", help="program file (.dl datalog, .ra kernel)")
    lint.add_argument(
        "--semantics",
        choices=("auto", "datalog", "forever", "inflationary"),
        default="auto",
        help="language/semantics to check against (auto: by file extension)",
    )
    lint.add_argument(
        "--db",
        default=None,
        help="database JSON; enables schema, arity, and weight-type checks",
    )
    lint.add_argument("--pc", default=None, help="pc-table database JSON")
    lint.add_argument(
        "--event",
        default=None,
        help="query event; enables dead-rule/reachability checks",
    )
    lint.add_argument(
        "--sarif",
        action="store_true",
        help="emit the report as a SARIF 2.1.0 document (for code-scanning "
        "UIs; takes precedence over --json)",
    )
    lint.set_defaults(handler=_command_lint)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP query service (see docs/service.md)",
        parents=[common],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8352, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="scheduler worker threads"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded queue capacity; submissions beyond it get HTTP 429",
    )
    serve.add_argument(
        "--default-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for jobs that do not set one",
    )
    serve.add_argument(
        "--default-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="transition-step budget for jobs that do not set one",
    )
    serve.add_argument(
        "--session-pool-size",
        type=int,
        default=32,
        help="resident prepared programs (LRU beyond this)",
    )
    serve.add_argument(
        "--result-cache-size",
        type=int,
        default=1024,
        help="retained deterministic results (LRU beyond this)",
    )
    serve.add_argument(
        "--trace-events",
        type=int,
        default=2048,
        metavar="N",
        help="per-job trace event bound served by GET /v1/jobs/<id>/trace "
        "(0 disables job tracing)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="repro.service logger verbosity (stderr, job-id correlated)",
    )
    serve.add_argument(
        "--supervise",
        type=int,
        default=0,
        metavar="N",
        help="pre-warm N supervised sampler worker processes at startup "
        "so the first workers>1 job skips spawn latency (0 = lazy)",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="install a fault-injection plan (inline JSON or @path) for "
        "chaos testing; exported to worker processes via "
        "REPRO_FAULT_PLAN — see docs/robustness.md",
    )
    serve.add_argument(
        "--no-load-shedding",
        action="store_true",
        help="disable the admission-time degradation ladder (overloaded "
        "queues then reject with 429 only)",
    )
    serve.set_defaults(handler=_command_serve)

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection scenarios against the real samplers "
        "(crash, hang, transient, torn-checkpoint; see docs/robustness.md)",
        parents=[common],
    )
    chaos.add_argument("kernel", help="interpretation file (Name := expression lines)")
    chaos.add_argument("--db", required=True)
    chaos.add_argument("--event", required=True)
    chaos.add_argument(
        "--scenario",
        choices=("all", "crash", "hang", "transient", "torn-checkpoint"),
        default="all",
        help="which fault scenario to run (default: all of them)",
    )
    chaos.add_argument("--samples", type=int, default=24)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--burn-in", type=int, default=None)
    chaos.add_argument(
        "--workers", type=int, default=2,
        help="supervised sampler workers for the pool scenarios (min 2)",
    )
    _add_budget_arguments(chaos)
    chaos.set_defaults(handler=_command_chaos)

    submit = subparsers.add_parser(
        "submit",
        help="submit one query to a running service",
        parents=[common],
    )
    submit.add_argument(
        "semantics", choices=("forever", "inflationary", "datalog")
    )
    submit.add_argument("program", help="program/kernel file")
    submit.add_argument("--db", required=True, help="database JSON file")
    submit.add_argument("--event", required=True)
    submit.add_argument("--url", default="http://127.0.0.1:8352")
    submit.add_argument("--pc", help="pc-table database JSON (datalog only)")
    submit.add_argument("--priority", choices=("normal", "high"), default="normal")
    submit.add_argument("--samples", type=int, default=None)
    submit.add_argument("--epsilon", type=float, default=None)
    submit.add_argument("--delta", type=float, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--max-states", type=int, default=None)
    submit.add_argument("--mcmc", action="store_true")
    submit.add_argument("--lumped", action="store_true")
    submit.add_argument(
        "--fallback", choices=("sparse", "lumped", "mcmc", "auto"), default=None
    )
    submit.add_argument("--burn-in", type=int, default=None)
    submit.add_argument("--workers", type=int, default=None)
    submit.add_argument("--cache-size", type=int, default=None)
    submit.add_argument(
        "--backend", choices=("frozenset", "columnar", "sparse"), default=None,
        help="execution backend (forever/inflationary; 'sparse' is "
        "forever-only)",
    )
    submit.add_argument(
        "--partition", choices=("auto", "off"), default=None,
        help="ask the service to evaluate provenance-independent components "
        "separately and recombine by independence (forever/inflationary)",
    )
    submit.add_argument("--timeout", type=float, default=None, help="per-job wall-clock budget")
    submit.add_argument("--max-steps", type=int, default=None, help="per-job step budget")
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the accepted job record instead of polling for the result",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up polling after this long",
    )
    submit.set_defaults(handler=_command_submit)

    jobs = subparsers.add_parser(
        "jobs",
        help="list, poll, or cancel jobs on a running service",
        parents=[common],
    )
    jobs.add_argument("job_id", nargs="?", default=None)
    jobs.add_argument("--url", default="http://127.0.0.1:8352")
    jobs.add_argument("--cancel", action="store_true", help="cancel the given job")
    jobs.add_argument("--metrics", action="store_true", help="scrape /v1/metrics")
    jobs.add_argument(
        "--prometheus",
        action="store_true",
        help="scrape /v1/metrics?format=prometheus (raw text)",
    )
    jobs.add_argument("--health", action="store_true", help="probe /v1/healthz")
    jobs.add_argument(
        "--trace",
        action="store_true",
        help="fetch the given job's trace records",
    )
    jobs.set_defaults(handler=_command_jobs)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive N concurrent submits through an in-process service "
        "and report p50/p99 latency and QPS",
        parents=[common],
    )
    loadgen.add_argument(
        "--requests", type=int, default=48, help="total requests (default 48)"
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="closed-loop client threads = service workers (default 4)",
    )
    loadgen.add_argument(
        "--samples", type=int, default=40, help="MCMC samples per request"
    )
    loadgen.add_argument(
        "--burn-in", type=int, default=5, help="MCMC burn-in per request"
    )
    loadgen.add_argument(
        "--wait-timeout", type=float, default=120.0, help="per-job wait timeout"
    )
    loadgen.add_argument(
        "--backend",
        choices=("frozenset", "columnar"),
        default=None,
        help="evaluation backend for every generated request (default: "
        "the session's, which runs these forever-queries compiled)",
    )
    loadgen.set_defaults(handler=_command_loadgen)

    report = subparsers.add_parser(
        "report",
        help="pretty-print a JSONL evaluation trace (phases, convergence)",
        parents=[common],
    )
    report.add_argument(
        "trace_file", metavar="trace", help="trace file written by --trace"
    )
    report.add_argument(
        "--flame",
        action="store_true",
        help="emit folded-stack lines (flamegraph.pl / speedscope input) "
        "instead of the summary",
    )
    report.set_defaults(handler=_command_report)

    profile = subparsers.add_parser(
        "profile",
        help="EXPLAIN-ANALYZE one run: span tree with exclusive timings "
        "and per-phase totals",
        parents=[common],
    )
    profile.add_argument(
        "target",
        help="a local trace file written by --trace, or a job id on a "
        "running service",
    )
    profile.add_argument("--url", default="http://127.0.0.1:8352")
    profile.add_argument(
        "--flame",
        action="store_true",
        help="emit folded-stack lines instead of the tree",
    )
    profile.set_defaults(handler=_command_profile)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The process's parser for :func:`main`, built on first use:
    building the tree costs more than many evaluations, and parsing
    leaves it unchanged."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_arg_parser()
    return _PARSER


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 on success; 2 for any :class:`ReproError` (including
    budget exhaustion) or input problem, printed as one line on stderr;
    130 when interrupted with Ctrl-C (the samplers flush a checkpoint
    first when ``--checkpoint`` is configured).
    """
    args = _parser().parse_args(argv)
    context = None
    payload = None
    try:
        context = _build_context(args)
        payload = args.handler(args, context)
    except KeyboardInterrupt:
        message = "interrupted"
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint:
            message += f" (progress saved to {checkpoint})"
        print(message, file=sys.stderr)
        return 130
    except (ReproError, OSError, json.JSONDecodeError, TraceSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        _finalize_trace(context, payload)
    _emit(payload, args.json)
    # ``lint`` signals error-level diagnostics with exit 1 (distinct
    # from exit 2, which means the run itself failed).
    return getattr(args, "_exit_code", 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
