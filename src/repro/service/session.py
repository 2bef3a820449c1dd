"""Persistent engine sessions: parse once, keep the kernel warm.

A one-shot CLI run pays the full bill on every invocation: parse the
program, decode the database, build the chain or walk it cold.  An
:class:`EngineSession` is the long-lived alternative — the parsed
kernel (or datalog program), the decoded initial :class:`Database`, one
warm :class:`~repro.perf.cache.TransitionCache` and the exact rung's
solutions (a :class:`~repro.core.evaluation.results.SolutionStore`)
live as long as the session does, so repeated queries against the same
program (different events, seeds, ε/δ, modes) skip everything but the
actual evaluation: samplers draw memoized transition rows, and an exact
event is read off the long-run or fixpoint distribution the session
solved for its first exact request.

:meth:`EngineSession.evaluate` is also the one place that turns a
:class:`~repro.service.request.QueryRequest` into an evaluator call and
the result into a payload (its keys are tabled in ``docs/service.md``).
The service evaluates on sessions from :meth:`EngineSession.prepare`
(admission analysis, warm cache); ``repro forever|inflationary|datalog``
evaluate the same request on a session from
:meth:`EngineSession.from_request` (no analysis, no cache unless the
request's ``cache_size`` param asks for one), so both answer alike.

Sessions are immutable after preparation apart from the cache, the
stored solutions and the served-request counters, all thread-safe, so
one session may serve concurrent scheduler workers.  A
:class:`SessionPool` bounds how many prepared programs stay resident
(LRU beyond ``maxsize``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

from repro.analysis import AnalysisResult, DiagnosticReport, PlanHints, analyze_source
from repro.analysis.datalog import check_rules
from repro.analysis.kernel import check_kernel
from repro.analysis.partition import compute_partition_plan
from repro.core import (
    ForeverQuery,
    InflationaryQuery,
    evaluate_forever_exact,
    evaluate_forever_lumped,
    evaluate_forever_mcmc,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
)
from repro.core.evaluation.results import SolutionStore
from repro.core.events import parse_event
from repro.datalog import evaluate_datalog_exact, evaluate_datalog_sampling, parse_program
from repro.errors import InvalidRequestError, ProgramRejectedError, ReproError
from repro.io import database_from_json, pc_database_from_json
from repro.perf.cache import TransitionCache
from repro.relational.parser import parse_interpretation
from repro.runtime import (
    DegradationPolicy,
    RunContext,
    can_partition,
    ensure_context,
    evaluate_forever_resilient,
    evaluate_partitioned,
)
from repro.service.request import QueryRequest

#: Default capacity of a session's warm transition cache.
DEFAULT_TRANSITION_CACHE_SIZE = 4096

#: Default number of resident sessions in a pool.
DEFAULT_SESSION_POOL_SIZE = 32


def _exact_payload(result) -> dict:
    payload = {
        "kind": "exact",
        "method": result.method,
        "probability": str(result.probability),
        "probability_float": float(result.probability),
        "states_explored": result.states_explored,
    }
    for key in ("backend", "irreducible", "full_states", "quotient_states"):
        if result.details.get(key) is not None:
            payload[key] = result.details[key]
    return payload


def _sampling_payload(result) -> dict:
    payload = {
        "kind": "sampling",
        "method": result.method,
        "estimate": result.estimate,
        "samples": result.samples,
        "positive": result.positive,
        "epsilon": result.epsilon,
        "delta": result.delta,
    }
    for key in ("burn_in", "workers", "backend", "resumed_at"):
        if result.details.get(key) is not None:
            payload[key] = result.details[key]
    if result.details.get("cache"):
        payload["transition_cache"] = dict(result.details["cache"])
    return payload


def _sparse_payload(result) -> dict:
    lo, hi = result.interval
    payload = {
        "kind": "sparse",
        "method": result.method,
        "probability_float": result.probability,
        "interval": [lo, hi],
        "certificate": result.certificate.as_dict(),
        "states_explored": result.states_explored,
    }
    for key in ("backend", "sccs", "leaf_sccs", "irreducible"):
        if result.details.get(key) is not None:
            payload[key] = result.details[key]
    return payload


def result_payload(result) -> dict:
    """JSON-friendly rendering of an evaluator result."""
    # Certified results also expose .probability (a float), so the
    # certificate check must come first.
    if hasattr(result, "certificate"):
        return _sparse_payload(result)
    if hasattr(result, "probability"):
        return _exact_payload(result)
    return _sampling_payload(result)


def _param(params: Mapping[str, Any], key: str, default: Any = None) -> Any:
    """``params[key]``, or ``default`` when it is absent or null."""
    value = params.get(key)
    return default if value is None else value


def _wants_sampling(params: Mapping[str, Any]) -> bool:
    return (
        bool(params.get("mcmc"))
        or params.get("samples") is not None
        or params.get("epsilon") is not None
    )


def _parallel_config(workers: int):
    """A ParallelConfig for ``workers`` (None when sequential)."""
    if workers <= 1:
        return None
    from repro.perf import ParallelConfig

    return ParallelConfig(workers=workers)


def _policy(params: Mapping[str, Any], mcmc_workers: int = 1) -> DegradationPolicy:
    """The degradation ladder a request's params describe."""
    return DegradationPolicy(
        mode=_param(params, "fallback", "none"),
        sparse_epsilon=_param(params, "epsilon", 1e-6),
        mcmc_epsilon=_param(params, "epsilon", 0.1),
        mcmc_delta=_param(params, "delta", 0.05),
        mcmc_samples=params.get("samples"),
        mcmc_burn_in=params.get("burn_in"),
        mcmc_workers=mcmc_workers,
        # cache_size 0 opts out of caching, as on every other path.
        mcmc_cache_size=params.get("cache_size") or None,
    )


def _decode_inputs(request: QueryRequest) -> tuple:
    """The request's database and pc-tables (or ``None``), decoded."""
    pc = request.pc_tables
    return (
        database_from_json(dict(request.database)),
        pc_database_from_json(dict(pc)) if pc is not None else None,
    )


def _rejection(report: DiagnosticReport) -> ProgramRejectedError:
    """A 400-mapped error carrying the analyzer's findings.

    The rejecting codes are the error-level ones when any exist;
    otherwise (event admission promotes ``DD002``) every reported code.
    """
    primary = report.errors or list(report)
    summary = primary[0].message if primary else "program rejected"
    codes = list(report.error_codes()) or list(report.codes())
    return ProgramRejectedError(
        f"program rejected by static analysis: {summary}",
        details={
            "diagnostics": [d.as_dict() for d in report],
            "codes": codes,
        },
    )


class EngineSession:
    """A prepared program: parsed artifacts, a warm transition cache and
    the exact rung's stored solutions.

    Build one with :meth:`prepare` (admission analysis, for the service)
    or :meth:`from_request` (parsing only, for the CLI); evaluate any
    number of requests that share its
    :meth:`~repro.service.request.QueryRequest.session_key` with
    :meth:`evaluate`.

    Examples
    --------
    >>> request = QueryRequest.from_json({
    ...     "semantics": "forever",
    ...     "program": "C := rename[J->I](project[J](repair-key[I@P](C join E)))",
    ...     "database": {"relations": {
    ...         "C": {"columns": ["I"], "rows": [["a"]]},
    ...         "E": {"columns": ["I", "J", "P"],
    ...               "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]]}}},
    ...     "event": "C(b)",
    ... })
    >>> session = EngineSession.prepare(request)
    >>> session.evaluate(request)["probability"]
    '1/3'
    >>> session.requests_served
    1
    """

    def __init__(
        self,
        key: str,
        semantics: str,
        kernel=None,
        program=None,
        database=None,
        pc_tables=None,
        cache_size: int | None = DEFAULT_TRANSITION_CACHE_SIZE,
        analysis: AnalysisResult | None = None,
    ):
        self.key = key
        self.semantics = semantics
        self.kernel = kernel
        self.program = program
        self.database = database
        self.pc_tables = pc_tables
        self.analysis = analysis
        # Admission analysis supplies both; without it they are derived
        # on first use (see ``hints`` and ``_partition_plan``).
        self._hints = analysis.hints if analysis is not None else None
        self._partition = analysis.partition if analysis is not None else None
        self.created_at = time.time()
        self.requests_served = 0
        self._served_lock = threading.Lock()
        # None or 0: no transition cache, on either kernel.
        self._cache_size = cache_size
        # (CompiledKernel, ColumnarDatabase, TransitionCache or None):
        # the kernel a ``backend: columnar`` request lowers onto,
        # compiled on first use and shared by every such request.
        self._columnar: "tuple | None" = None
        self._columnar_lock = threading.Lock()
        self._cache: TransitionCache | None = None
        if kernel is not None and cache_size:
            memo_kernel = kernel
            if semantics == "inflationary":
                # The inflationary fixpoint check enumerates the pc-free
                # kernel; memoize that one (see evaluate_inflationary_sampling).
                memo_kernel = kernel.without_pc_tables()
            self._cache = TransitionCache(memo_kernel, maxsize=cache_size)
        # The default exact rung's solution, one per kernel (frozenset,
        # compiled or datalog program), kept while its support fits in
        # cache_size states.
        self._solutions = SolutionStore(cache_size) if cache_size else None

    @classmethod
    def prepare(
        cls,
        request: QueryRequest,
        cache_size: int | None = DEFAULT_TRANSITION_CACHE_SIZE,
    ) -> "EngineSession":
        """Parse, statically analyze, and compile a request's program once.

        The full analyzer (:mod:`repro.analysis`) runs here, at admission
        time; a program with error-level diagnostics never becomes a
        session — :class:`~repro.errors.ProgramRejectedError` carries the
        diagnostic list (rendered as HTTP 400 by the service).  Event-
        dependent checks are *not* run here (a session is shared across
        events); see :meth:`check_event`.
        """
        database, pc = _decode_inputs(request)
        analysis = analyze_source(
            request.semantics, request.program, database=database, pc_tables=pc
        )
        if analysis.report.has_errors:
            raise _rejection(analysis.report)
        return cls(
            key=request.session_key(),
            semantics=request.semantics,
            kernel=analysis.kernel,
            program=analysis.program,
            database=database,
            pc_tables=pc,
            cache_size=cache_size,
            analysis=analysis,
        )

    @classmethod
    def from_request(cls, request: QueryRequest) -> "EngineSession":
        """A session that only parses the request's program and database.

        The one-shot path of ``repro forever|inflationary|datalog``: no
        admission analysis runs (its partition planner costs more than
        many queries do), and there is no transition cache unless the
        request's ``cache_size`` param asks for one.  Parse and
        evaluation errors surface as they would without a service.
        """
        database, pc = _decode_inputs(request)
        kernel = program = None
        if request.semantics == "datalog":
            program = parse_program(request.program)
        else:
            kernel = parse_interpretation(request.program)
        return cls(
            key=request.session_key(),
            semantics=request.semantics,
            kernel=kernel,
            program=program,
            database=database,
            pc_tables=pc,
            cache_size=request.params.get("cache_size"),
        )

    # -- introspection --------------------------------------------------

    @property
    def cache(self) -> TransitionCache | None:
        """The session's warm transition cache (``None`` for datalog and
        for a session built without one)."""
        return self._cache

    @property
    def solutions(self) -> SolutionStore | None:
        """The exact rung's stored solutions (``None`` for a session
        built without a cache)."""
        return self._solutions

    @property
    def hints(self) -> PlanHints:
        """The program's :class:`~repro.analysis.hints.PlanHints`: the
        analyzer's, or derived here on first use (PH001/PH006 need them)."""
        if self._hints is None:
            self._hints = (
                PlanHints.for_program(self.program, self.pc_tables)
                if self.semantics == "datalog"
                else PlanHints.for_kernel(self.kernel, semantics=self.semantics)
            )
        return self._hints

    def _partition_plan(self):
        """The §5.1 partition plan: admission's, or planned on first use
        (without state bounds: only the analyzer's PP002 reads them)."""
        if self._partition is None and self.analysis is None:
            self._partition = compute_partition_plan(
                self.kernel, semantics=self.semantics
            )
        return self._partition

    def check_event(self, event_text: str) -> DiagnosticReport:
        """Run the event-dependent checks for one request.

        Sessions are shared across events, so :meth:`prepare` cannot run
        these.  Returns the report (warnings like dead rules included);
        raises :class:`~repro.errors.ProgramRejectedError` when the event
        itself is broken (``PE002``) or provably constant-false against
        this program (``DD002``/``DD003`` are error-level here: evaluating
        would silently return probability 0 for a typo).
        """
        report = DiagnosticReport()
        try:
            event = parse_event(event_text)
        except ReproError as error:
            report.add("PE002", f"cannot parse the query event: {error}")
            raise _rejection(report)
        if self.program is not None:
            full = check_rules(
                list(self.program.rules),
                database=self.database,
                pc_tables=self.pc_tables,
                event=event,
            )
        else:
            full = check_kernel(
                self.kernel,
                database=self.database,
                event=event,
                semantics=self.semantics,
            )
        event_codes = {"DD001", "DD002", "DD003", "DD004", "PH003"}
        for diagnostic in full:
            if diagnostic.code in event_codes:
                report.extend([diagnostic])
        if any(d.code in ("DD002", "DD003") for d in report):
            raise _rejection(report)
        return report

    def _lower(self, query, context: RunContext):
        """``query`` lowered for a ``backend: columnar`` request:
        ``(query, initial, cache)``, the cache being the one that
        matches the kernel the query holds.

        The kernel compiles once per session and each request's event
        on its own; a program that cannot lower stays on the
        interpreter, with one recorded fallback per request.
        """
        from repro.kernel.lowering import lower, lower_kernel

        with self._columnar_lock:
            if self._columnar is None:
                compiled, initial = lower_kernel(self.kernel, self.database, context)
                if compiled is self.kernel:
                    return query, self.database, self._cache
                cache = (
                    TransitionCache(compiled, maxsize=self._cache_size)
                    if self._cache_size
                    else None
                )
                self._columnar = (compiled, initial, cache)
        compiled, initial, cache = self._columnar
        query, initial = lower(query.__class__(compiled, query.event), initial, context)
        return query, initial, cache if query.kernel is compiled else self._cache

    def stats(self) -> dict:
        """JSON-friendly session snapshot for the metrics endpoint."""
        columnar = self._columnar
        if columnar is not None:
            cache = columnar[2]
            columnar = {
                "compiled": True,
                "transition_cache": cache.stats() if cache else None,
            }
        return {
            "key": self.key,
            "semantics": self.semantics,
            "created_at": self.created_at,
            "requests_served": self.requests_served,
            "transition_cache": self._cache.stats() if self._cache else None,
            "plan_hints": self.hints.as_dict(),
            "columnar": columnar,
        }

    # -- evaluation -----------------------------------------------------

    def evaluate(
        self,
        request: QueryRequest,
        context: RunContext | None = None,
        *,
        checkpoint_path: str | None = None,
        resume: str | None = None,
    ) -> dict:
        """Evaluate one request on this prepared engine.

        Returns the JSON-friendly result payload.  Raises any
        :class:`~repro.errors.ReproError` the evaluators raise —
        budget exhaustion and cancellation included — unchanged, so the
        scheduler can classify the failure.

        ``checkpoint_path`` / ``resume`` reach the Theorem 5.6 sampler
        (directly, or as the fallback ladder's MCMC rung); ``resume``
        also asks for that sampler.  They are arguments rather than
        request params because a request must never name a file on the
        server: only the CLI passes them.
        """
        if request.session_key() != self.key:
            raise InvalidRequestError(
                "request does not belong to this session "
                f"(session {self.key[:12]}…, request {request.session_key()[:12]}…)"
            )
        # The payload reports downgrades, so a run always has a context.
        context = ensure_context(context)
        kernel_ops_before = self._op_timings_snapshot()
        if self.semantics == "datalog":
            payload = self._evaluate_datalog(request, context)
        else:
            payload = self._evaluate_kernel(
                request, context, checkpoint_path, resume
            )
        if context.downgrades:
            payload["downgrades"] = [d.as_dict() for d in context.downgrades]
        self._record_kernel_ops(context, kernel_ops_before)
        with self._served_lock:
            self.requests_served += 1
        return payload

    def _op_timings_snapshot(self) -> "dict[str, dict[str, float]] | None":
        columnar = self._columnar
        return columnar[0].op_timings() if columnar is not None else None

    def _record_kernel_ops(
        self,
        context: RunContext,
        before: "dict[str, dict[str, float]] | None",
    ) -> None:
        """Attribute this request's share of the compiled kernel's
        cumulative per-operator timings to the run's resource ledger.

        The session's compiled kernel is shared, so the counters only
        ever grow; the request's share is the delta across ``evaluate``.
        A request that triggered the compile has no *before* snapshot —
        the whole total is its share.
        """
        columnar = self._columnar
        if columnar is None:
            return
        after = columnar[0].op_timings()
        prior = before or {}
        delta: dict[str, dict[str, float]] = {}
        for op, stats in after.items():
            base = prior.get(op, {"calls": 0, "seconds": 0.0})
            calls = stats["calls"] - base["calls"]
            seconds = stats["seconds"] - base["seconds"]
            if calls > 0 or seconds > 0:
                delta[op] = {"calls": calls, "seconds": seconds}
        if delta:
            context.ledger.record_kernel_ops(delta)

    def _evaluate_partitioned(
        self,
        query,
        initial,
        params: Mapping[str, Any],
        max_states: int,
        context: RunContext,
    ) -> dict | None:
        """The ``partition: "auto"`` path (``PP001``).

        Executes the partition plan: each independent component on its
        own rung, recombined by independence.  Returns ``None`` when the
        plan does not apply (single component, event does not
        decompose) — the caller evaluates whole-program.
        """
        from repro.kernel.lowering import source_query

        plan = self._partition_plan()
        if plan is None or not can_partition(plan, source_query(query).event):
            context.record_event(
                "partition requested but the program does not split; "
                "using whole-program evaluation"
            )
            return None
        result = evaluate_partitioned(
            query,
            initial,
            plan,
            max_states=max_states,
            policy=None if self.semantics == "inflationary" else _policy(params),
            context=context,
            seed=params.get("seed"),
            prefer_sparse=params.get("backend") == "sparse",
            workers=_param(params, "workers", 1),
        )
        payload = result_payload(result)
        payload["partition"] = {
            "components": len(plan.components),
            "evaluated": len(result.details["components"]),
            "pruned": list(result.details["pruned"]),
        }
        return payload

    def _evaluate_kernel(
        self,
        request: QueryRequest,
        context: RunContext,
        checkpoint_path: str | None,
        resume: str | None,
    ) -> dict:
        """Forever- and inflationary-queries: pick the rung, run it."""
        params = request.params
        forever = self.semantics == "forever"
        query_cls = ForeverQuery if forever else InflationaryQuery
        query = query_cls(self.kernel, parse_event(request.event))
        initial, cache = self.database, self._cache
        backend = params.get("backend")
        if backend == "columnar":
            # Lowered once, here: every rung below runs the kernel the
            # query holds, with the cache that matches it.
            query, initial, cache = self._lower(query, context)
        max_states = _param(params, "max_states", 20_000 if forever else 100_000)
        workers = _param(params, "workers", 1)
        if params.get("partition") == "auto":
            partitioned = self._evaluate_partitioned(
                query, initial, params, max_states, context
            )
            if partitioned is not None:
                return partitioned
        # cache_size 0 opts the request out of the session cache; any
        # other value keeps it — per-request sizes would defeat sharing.
        opted_out = params.get("cache_size") == 0
        if opted_out:
            cache = None
        ladder = forever and (
            _param(params, "fallback", "none") != "none" or backend == "sparse"
        )
        sampling = _wants_sampling(params) or resume is not None
        # PH001: the kernel makes no probabilistic choice — a requested
        # estimate would converge on a number one exact run computes.
        shortcut = sampling and not ladder and self.hints.deterministic
        solutions = None if opted_out else self._solutions

        def exact():
            if forever:
                return evaluate_forever_exact(
                    query, initial, max_states=max_states,
                    context=context, cache=cache, solutions=solutions,
                )
            return evaluate_inflationary_exact(
                query, initial, max_states=max_states, context=context,
                solutions=solutions,
            )

        if ladder:
            result = evaluate_forever_resilient(
                query,
                initial,
                max_states=max_states,
                policy=_policy(params, mcmc_workers=workers),
                context=context,
                rng=params.get("seed"),
                checkpoint_path=checkpoint_path,
                resume=resume,
                cache=cache,
                hints=self.hints,
                prefer_sparse=backend == "sparse",
            )
            payload = result_payload(result)
        elif shortcut:
            payload = result_payload(exact())
            payload["hint_applied"] = "PH001"
        elif sampling and forever:
            result = evaluate_forever_mcmc(
                query,
                initial,
                epsilon=_param(params, "epsilon", 0.1),
                delta=_param(params, "delta", 0.05),
                samples=params.get("samples"),
                burn_in=params.get("burn_in"),
                rng=params.get("seed"),
                context=context,
                checkpoint_path=checkpoint_path,
                resume=resume,
                # A resumed run replays the interrupted run's cache
                # setting, which its checkpoint records.
                cache=None if resume is not None else cache,
                parallel=_parallel_config(workers),
            )
            payload = result_payload(result)
        elif sampling:
            result = evaluate_inflationary_sampling(
                query,
                initial,
                epsilon=_param(params, "epsilon", 0.05),
                delta=_param(params, "delta", 0.05),
                samples=params.get("samples"),
                rng=params.get("seed"),
                context=context,
                cache=cache,
                parallel=_parallel_config(workers),
            )
            payload = result_payload(result)
        elif forever and params.get("lumped"):
            result = evaluate_forever_lumped(
                query, initial, max_states=max_states,
                context=context, cache=cache,
            )
            payload = result_payload(result)
        else:
            payload = result_payload(exact())
        return payload

    def _evaluate_datalog(self, request: QueryRequest, context: RunContext) -> dict:
        params = request.params
        event = parse_event(request.event)
        sampling = _wants_sampling(params)
        if sampling and not self.hints.deterministic:
            result = evaluate_datalog_sampling(
                self.program,
                self.database,
                event,
                pc_tables=self.pc_tables,
                epsilon=_param(params, "epsilon", 0.05),
                delta=_param(params, "delta", 0.05),
                samples=params.get("samples"),
                rng=params.get("seed"),
                context=context,
            )
            return result_payload(result)
        result = evaluate_datalog_exact(
            self.program,
            self.database,
            event,
            pc_tables=self.pc_tables,
            max_states=_param(params, "max_states", 100_000),
            context=context,
            solutions=self._solutions,
        )
        payload = result_payload(result)
        payload["pc_worlds"] = result.details.get("pc_worlds", 1)
        if sampling:
            payload["hint_applied"] = "PH001"
        return payload


class SessionPool:
    """A bounded, thread-safe LRU pool of :class:`EngineSession`.

    ``get_or_create`` is the only entry point: the pool either returns
    the resident session for the request's
    :meth:`~repro.service.request.QueryRequest.session_key` (a *hit* —
    parse work and cache warmth are reused) or prepares a fresh one,
    evicting the least-recently-used session beyond ``maxsize``.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_SESSION_POOL_SIZE,
        transition_cache_size: int = DEFAULT_TRANSITION_CACHE_SIZE,
    ):
        if maxsize < 1:
            raise ReproError(f"session pool maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.transition_cache_size = transition_cache_size
        self._sessions: OrderedDict[str, EngineSession] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def get_or_create(self, request: QueryRequest) -> EngineSession:
        """The resident session for the request, preparing it on miss."""
        key = request.session_key()
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                self._sessions.move_to_end(key)
                return session
            self.misses += 1
        # Prepare outside the lock: parsing can be slow and two racing
        # requests for the same program at worst parse twice.
        session = EngineSession.prepare(
            request, cache_size=self.transition_cache_size
        )
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            self._sessions[key] = session
            if len(self._sessions) > self.maxsize:
                self._sessions.popitem(last=False)
                self.evictions += 1
        return session

    def stats(self) -> dict:
        """JSON-friendly pool snapshot for the metrics endpoint.

        Counters and the session list are read in one critical section,
        so a concurrent eviction can't pair a new size with stale
        counters; per-session stats are rendered outside the lock (they
        take the sessions' own locks).
        """
        with self._lock:
            sessions = list(self._sessions.values())
            hits, misses, evictions = self.hits, self.misses, self.evictions
        total = hits + misses
        return {
            "size": len(sessions),
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": (hits / total) if total else None,
            "sessions": [session.stats() for session in sessions],
        }
