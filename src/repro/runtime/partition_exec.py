"""Partitioned evaluation: executing a :class:`PartitionPlan` (Section 5.1).

The planner (:mod:`repro.analysis.partition`) proves, before evaluation
starts, that a program splits into components sharing no repair-key
provenance and no pc-table variables: sets of relations (relation-level
plans) or classes of tuples (tuple-level plans).  This module is the
one executor for both.  Each component runs *independently* — on its
own cheapest rung via the existing
:class:`~repro.runtime.degradation.DegradationPolicy` ladder — and the
event probability is recombined by independence:

    P(e₁ ∧ ... ∧ eₖ) = Π P(eᵢ)        P(e₁ ∨ ... ∨ eₖ) = 1 − Π (1 − P(eᵢ))

where each ``eᵢ`` is the conjunction/disjunction of the event factors
confined to component ``i`` (factors inside one component keep their
intra-component dependence — only *cross-component* independence is
used, and that is exactly what the plan certifies).  Components no event
factor touches cannot influence the answer and are pruned outright
(``PP005``).

A factor belongs to the component that can change it: the one holding
its relation (relation level), or the one class that can derive its
tuple (tuple level; a tuple two classes could derive has already merged
them).  A factor no component can change is decided on the initial
database, and a factor two components can change is refused.  A
relation-level component runs its own queries on its footprint; a
tuple-level component runs the whole kernel on its own tuples.

Soundness
---------

* Cross-component independence is structural: a repair-key choice made
  by one component's queries is invisible to every other component, and
  pc-tables sharing variables were merged into one component by the
  planner.
* For forever semantics the recombination additionally needs each
  component's own Cesàro limit to exist (always true for aperiodic
  chains, e.g. lazy kernels), as the paper's Section 5.1 assumes.  The
  parity suite (``tests/runtime/test_partition_exec.py``), ablation A1
  and ``bench_partition`` gate this bit-identically against
  whole-program evaluation.
* When a component answers with an estimate, the combined error is
  bounded by the sum of the per-component errors (for values in
  ``[0, 1]``, ``|Πp − Πp̂| ≤ Σ|pᵢ − p̂ᵢ|``) and the failure probability
  by the union bound — both are reported on the combined result.

``workers > 1`` dispatches components onto the fault-tolerant
:func:`~repro.perf.supervisor.supervised_run` pool; exact probabilities
cross the process boundary as ``"p/q"`` strings, so the parallel path is
bit-identical to the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.analysis.hints import PlanHints
from repro.analysis.partition import (
    ComponentFacts,
    PartitionPlan,
    compute_partition_plan,
    compute_tuple_plan,
)
from repro.core.chain_builder import DEFAULT_MAX_STATES
from repro.core.evaluation.results import ExactResult, SamplingResult
from repro.core.events import (
    AndEvent,
    ExpressionEvent,
    NotEvent,
    OrEvent,
    QueryEvent,
    RelationNonEmpty,
    TupleIn,
)
from repro.core.interpretation import Interpretation
from repro.core.queries import ForeverQuery, InflationaryQuery
from repro.errors import EvaluationError
from repro.obs.trace import phase_scope
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.runtime.context import RunContext, ensure_context
from repro.runtime.degradation import DegradationPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.ctables.pctable import PCDatabase
    from repro.kernel.compile import CompiledKernel


@dataclass(frozen=True)
class ComponentOutcome:
    """One component's contribution to a partitioned answer."""

    name: str
    members: tuple[str, ...]
    probability: Fraction | float
    exact: bool
    method: str
    states: int
    samples: int = 0
    epsilon: float = 0.0
    delta: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "members": list(self.members),
            "probability": str(self.probability),
            "exact": self.exact,
            "method": self.method,
            "states": self.states,
            "samples": self.samples,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class _EventSplit:
    """The query event, decomposed along the plan's components.

    ``mode`` is how the per-component groups recombine (``"and"`` /
    ``"or"``); ``groups`` maps component name → the sub-event confined
    to it; ``constant`` folds every factor that touches no dynamic
    relation (its truth never changes along a run).
    """

    mode: str
    groups: dict[str, QueryEvent]
    static_factors: tuple[QueryEvent, ...]


def can_partition(plan: PartitionPlan | None, event: QueryEvent) -> bool:
    """Whether partitioned evaluation applies: a splittable plan and an
    event that decomposes along its components."""
    if plan is None or not plan.splittable:
        return False
    try:
        _split_event(plan, event)
    except EvaluationError:
        return False
    return True


def evaluate_partitioned(
    query: ForeverQuery,
    initial: Database,
    plan: PartitionPlan | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    policy: DegradationPolicy | None = None,
    context: RunContext | None = None,
    seed: int | None = None,
    prefer_sparse: bool = False,
    workers: int = 1,
) -> ExactResult | SamplingResult:
    """Evaluate a forever/inflationary query through a partition plan.

    ``plan`` defaults to the relation-level plan when that splits, and
    otherwise, for forever-queries, to the tuple-level plan;
    :class:`~repro.errors.EvaluationError` is raised when the plan is
    not splittable or the event does not decompose along it (callers
    that want a silent fallback check :func:`can_partition` first).

    Each component is evaluated on the rung its own facts merit —
    :func:`~repro.runtime.degradation.evaluate_forever_resilient` under
    ``policy`` for forever semantics, the Proposition 4.4 evaluator for
    inflationary — and the answers recombine by independence.  The
    result is an :class:`ExactResult` when every component answered
    exactly, otherwise a :class:`SamplingResult` carrying the summed
    error/failure bounds.

    A lowered query (:func:`repro.kernel.lower`) is planned and split on
    its source program, and each component runs on a kernel cut from
    the compiled one, over the same symbol table: nothing is compiled
    again.
    """
    from repro.kernel.lowering import lowered, source_database, source_query

    semantics = "inflationary" if isinstance(query, InflationaryQuery) else "forever"
    context = ensure_context(context)
    compiled = query.kernel if lowered(query) else None
    query, initial = source_query(query), source_database(initial)
    kernel = query.kernel

    with phase_scope(context, "partition-plan") as scope:
        if plan is None:
            # No ``database``: the executor reads no state bound.
            plan = compute_partition_plan(
                kernel,
                event=query.event if isinstance(query.event, TupleIn) else None,
                semantics=semantics,
            )
            if not plan.splittable and semantics == "forever":
                plan = compute_tuple_plan(kernel, initial)
        if not plan.splittable:
            raise EvaluationError(
                "partitioned evaluation needs a splittable plan; "
                f"the planner found {len(plan.components)} component(s)"
            )
        split = _split_event(plan, query.event)
        scope.annotate(
            components=len(plan.components),
            evaluated=len(split.groups),
            mode=split.mode,
        )

    evaluated = sorted(split.groups)
    pruned = [c.name for c in plan.components if c.name not in split.groups]
    metrics = getattr(context, "metrics", None)
    if metrics is not None:
        metrics.counter(
            "repro_partition_runs_total",
            "Partitioned evaluations started",
        ).inc(semantics=semantics)
        metrics.counter(
            "repro_partition_components_total",
            "Components evaluated independently by partitioned runs",
        ).inc(len(evaluated))
        if pruned:
            metrics.counter(
                "repro_partition_pruned_total",
                "Components pruned because no event factor touches them",
            ).inc(len(pruned))
    context.record_event(
        f"partition: {len(plan.components)} component(s), evaluating "
        f"{len(evaluated)}, pruned {len(pruned)}"
    )

    outcomes = _solve_components(
        kernel,
        initial,
        plan,
        split,
        semantics=semantics,
        max_states=max_states,
        policy=policy,
        context=context,
        seed=seed,
        compiled=compiled,
        prefer_sparse=prefer_sparse,
        workers=workers,
    )

    return _combine(split, outcomes, pruned, semantics, initial, context)


# -- event decomposition ------------------------------------------------------


def _flatten(event: QueryEvent, kind: type) -> list[QueryEvent]:
    if isinstance(event, kind):
        return _flatten(event.left, kind) + _flatten(event.right, kind)
    return [event]


def _event_relations(event: QueryEvent) -> set[str]:
    if isinstance(event, (TupleIn, RelationNonEmpty)):
        return {event.relation}
    if isinstance(event, ExpressionEvent):
        from repro.analysis.graph import expression_references

        return {ref for ref, _pos, _prob in expression_references(event.expression)}
    if isinstance(event, NotEvent):
        return _event_relations(event.inner)
    if isinstance(event, (AndEvent, OrEvent)):
        return _event_relations(event.left) | _event_relations(event.right)
    raise EvaluationError(
        f"cannot analyze event {event!r} for partitioned evaluation"
    )


def _owners(plan: PartitionPlan, event: QueryEvent) -> set[str]:
    """The components whose runs can change ``event``'s truth value."""
    if isinstance(event, TupleIn):
        return plan.owners(event.relation, event.row)
    if isinstance(event, NotEvent):
        return _owners(plan, event.inner)
    if isinstance(event, (AndEvent, OrEvent)):
        return _owners(plan, event.left) | _owners(plan, event.right)
    owners: set[str] = set()
    for relation in _event_relations(event):
        owners |= plan.owners(relation)
    return owners


def _split_event(plan: PartitionPlan, event: QueryEvent) -> _EventSplit:
    """Decompose the event into per-component factor groups.

    Top-level disjunctions split by ``or``, everything else (including a
    single atomic event) by ``and``.  A factor that two components can
    change cannot be decomposed — the plan's independence claim says
    nothing about a *joint* test across components.
    """
    if isinstance(event, OrEvent):
        mode, factors = "or", _flatten(event, OrEvent)
    elif isinstance(event, AndEvent):
        mode, factors = "and", _flatten(event, AndEvent)
    else:
        mode, factors = "and", [event]

    groups: dict[str, QueryEvent] = {}
    constants: list[QueryEvent] = []
    for factor in factors:
        touched = _owners(plan, factor)
        if not touched:
            # No component can change what the factor reads: its truth
            # value is the same in every reachable state.
            constants.append(factor)
        elif len(touched) == 1:
            name = touched.pop()
            previous = groups.get(name)
            if previous is None:
                groups[name] = factor
            else:
                groups[name] = (
                    OrEvent(previous, factor)
                    if mode == "or"
                    else AndEvent(previous, factor)
                )
        else:
            raise EvaluationError(
                f"event factor {factor!r} spans components "
                f"{sorted(touched)}; partitioned evaluation cannot "
                "decompose a joint test across independent components"
            )
    return _EventSplit(
        mode=mode, groups=groups, static_factors=tuple(constants)
    )


# -- per-component solving ----------------------------------------------------


def _restrict_pc(
    pc_tables: "PCDatabase | None",
    names: Iterable[str],
    keep: Callable[[str, tuple[Any, ...]], bool] = lambda _name, _row: True,
) -> "PCDatabase | None":
    """The pc-tables called ``names``, each with the entries ``keep``
    accepts and only the variables those mention; ``None`` when no
    table is left.  A table keeps its place even with no entry left,
    so its relation is still rewritten every step."""
    if pc_tables is None:
        return None
    from repro.ctables.pctable import CTable, PCDatabase

    tables = {
        name: CTable(
            pc_tables.tables[name].columns,
            [(row, c) for row, c in pc_tables.tables[name].entries if keep(name, row)],
        )
        for name in names
        if name in pc_tables.tables
    }
    if not tables:
        return None
    used: set[str] = set()
    for table in tables.values():
        used |= table.variables()
    return PCDatabase(tables, {v: pc_tables.variables[v] for v in sorted(used)})


def _component_problem(
    kernel: Interpretation,
    initial: Database,
    plan: PartitionPlan,
    component: ComponentFacts,
    group_event: QueryEvent,
) -> tuple[Interpretation, Database]:
    """The component's own kernel and database.

    Relation level: the member queries on the footprint-restricted
    database.  Tuple level: every query, on the component's own tuples
    (static relations included) and pc-table entries.
    """
    if plan.level == "tuple":
        keep = set(component.tuples)
        sub_db = Database(
            {
                name: Relation(
                    initial[name].columns,
                    [row for row in initial[name] if (name, row) in keep],
                )
                for name in initial.names()
            }
        )
        pc_tables = _restrict_pc(
            kernel.pc_tables,
            kernel.pc_relation_names(),
            lambda name, row: (name, row) in keep,
        )
        return Interpretation(kernel.queries, pc_tables=pc_tables), sub_db
    members = component.members
    queries = {m: kernel.queries[m] for m in members if m in kernel.queries}
    sub_kernel = Interpretation(
        queries, pc_tables=_restrict_pc(kernel.pc_tables, members)
    )
    relations = set(component.footprint) | _event_relations(group_event)
    sub_db = initial.restrict(sorted(relations & set(initial.names())))
    return sub_kernel, sub_db


def _cut(
    compiled: "CompiledKernel", plan: PartitionPlan, query: Any, database: Database
) -> tuple[Any, Any]:
    """A component's ``(query, database)`` on the compiled kernel: its
    member plans (relation level) or the whole kernel (tuple level),
    with its event compiled and its start state interned into the
    kernel's table."""
    from repro.kernel.columnar import intern_database
    from repro.kernel.compile import compile_event

    kernel = compiled
    if plan.level != "tuple":
        kernel = compiled.restricted_to(query.kernel, database.schema())
    event = compile_event(query.event, kernel)
    return query.__class__(kernel, event), intern_database(database, compiled.table)


def _solve_one(task: Mapping[str, Any]) -> ComponentOutcome:
    """Evaluate one component (shared by the serial and pooled paths)."""
    from repro.probability.rng import make_rng

    query = task["query"]
    if task["semantics"] == "inflationary":
        from repro.core.evaluation.exact_inflationary import (
            evaluate_inflationary_exact,
        )

        result: Any = evaluate_inflationary_exact(
            query,
            task["database"],
            max_states=task["max_states"],
            context=task.get("context"),
        )
    else:
        from repro.runtime.degradation import evaluate_forever_resilient

        result = evaluate_forever_resilient(
            query,
            task["database"],
            max_states=task["max_states"],
            policy=task.get("policy"),
            context=task.get("context"),
            rng=make_rng(task.get("seed")),
            hints=task["hints"],
            prefer_sparse=bool(task.get("prefer_sparse", False)),
        )
    return _outcome_of(task["name"], task["members"], result)


def _outcome_of(name: str, members: tuple[str, ...], result: Any) -> ComponentOutcome:
    if isinstance(result, ExactResult):
        return ComponentOutcome(
            name=name,
            members=tuple(members),
            probability=result.probability,
            exact=True,
            method=result.method,
            states=result.states_explored,
        )
    if isinstance(result, SamplingResult):
        # A samples-driven run reports epsilon/delta as None; the union
        # bound then degrades to "no certified bound", i.e. 1.
        return ComponentOutcome(
            name=name,
            members=tuple(members),
            probability=result.estimate,
            exact=False,
            method=result.method,
            states=0,
            samples=result.samples,
            epsilon=1.0 if result.epsilon is None else float(result.epsilon),
            delta=1.0 if result.delta is None else float(result.delta),
        )
    # Sparse rung: a CertifiedResult's bound is deterministic (no
    # failure probability), so delta stays 0.
    return ComponentOutcome(
        name=name,
        members=tuple(members),
        probability=result.probability,
        exact=False,
        method=result.method,
        states=result.states_explored,
        epsilon=float(result.certificate.bound),
    )


def _pool_worker(task: dict) -> dict:
    """Module-level (picklable) pool entry: solve, serialise the outcome.

    Exact probabilities travel as ``"p/q"`` strings so the parallel path
    round-trips bit-identically to the sequential one.  Under profiling
    the component is solved inside a worker-local span buffer whose
    records ship back with the payload, so the parent trace shows
    component → rung work attributed to the worker that ran it.
    """
    context = None
    if task.get("profile"):
        from repro.obs.profile import worker_tracer
        from repro.perf.parallel import WorkerContext

        context = WorkerContext(tracer=worker_tracer(task))
        task = dict(task)
        task["context"] = context
    if context is not None:
        with context.phase(
            "component-solve", component=task["name"],
            semantics=task["semantics"],
        ) as scope:
            outcome = _solve_one(task)
            scope.annotate(**_span_attrs(outcome))
    else:
        outcome = _solve_one(task)
    payload = outcome.as_dict()
    payload["members"] = list(outcome.members)
    if not outcome.exact:
        payload["probability_float"] = float(outcome.probability)
    if context is not None:
        from repro.obs.profile import drain_worker_spans

        spans = drain_worker_spans(context.tracer)
        if spans:
            payload["spans"] = spans
    return payload


def _span_attrs(outcome: ComponentOutcome) -> dict[str, Any]:
    """What the span that solved a component records about it: the
    rung that answered, its states and samples, and its (ε, δ)."""
    return {
        "rung": outcome.method,
        "states": outcome.states,
        "samples": outcome.samples,
        "epsilon": outcome.epsilon,
        "delta": outcome.delta,
    }


def _outcome_from_payload(payload: Mapping[str, Any]) -> ComponentOutcome:
    exact = bool(payload["exact"])
    probability: Fraction | float
    if exact:
        probability = Fraction(payload["probability"])
    else:
        probability = float(payload["probability_float"])
    return ComponentOutcome(
        name=str(payload["name"]),
        members=tuple(payload["members"]),
        probability=probability,
        exact=exact,
        method=str(payload["method"]),
        states=int(payload["states"]),
        samples=int(payload["samples"]),
        epsilon=float(payload["epsilon"]),
        delta=float(payload["delta"]),
    )


def _solve_components(
    kernel: Interpretation,
    initial: Database,
    plan: PartitionPlan,
    split: _EventSplit,
    *,
    semantics: str,
    max_states: int,
    policy: DegradationPolicy | None,
    context: RunContext,
    seed: int | None,
    compiled: "CompiledKernel | None",
    prefer_sparse: bool,
    workers: int,
) -> list[ComponentOutcome]:
    query_cls = InflationaryQuery if semantics == "inflationary" else ForeverQuery
    tasks: list[dict[str, Any]] = []
    for component in plan.components:
        group_event = split.groups.get(component.name)
        if group_event is None:
            continue
        sub_kernel, sub_db = _component_problem(
            kernel, initial, plan, component, group_event
        )
        hints: PlanHints | None = None
        if semantics == "forever":
            hints = PlanHints.for_kernel(
                sub_kernel,
                event=group_event if isinstance(group_event, TupleIn) else None,
                semantics="forever",
            )
        sub_query = query_cls(sub_kernel, group_event)
        if compiled is not None:
            sub_query, sub_db = _cut(compiled, plan, sub_query, sub_db)
        tasks.append(
            {
                "name": component.name,
                "members": component.members,
                "query": sub_query,
                "database": sub_db,
                "hints": hints,
                "semantics": semantics,
                "max_states": max_states,
                "policy": policy,
                "seed": None if seed is None else seed + component.index,
                "prefer_sparse": prefer_sparse,
            }
        )

    if workers > 1 and len(tasks) > 1:
        from repro.perf.parallel import ParallelConfig
        from repro.perf.supervisor import supervised_run

        if context.tracer.enabled:
            for task in tasks:
                task["profile"] = True
        with phase_scope(context, "partition-solve", workers=workers):
            payloads = supervised_run(
                _pool_worker,
                tasks,
                ParallelConfig(workers=min(workers, len(tasks))),
                context,
            )
        return [_outcome_from_payload(payload) for payload in payloads]

    outcomes = []
    for task in tasks:
        task["context"] = context
        with phase_scope(
            context, "partition-solve", component=task["name"]
        ) as scope:
            outcome = _solve_one(task)
            scope.annotate(**_span_attrs(outcome))
        outcomes.append(outcome)
    return outcomes


# -- recombination ------------------------------------------------------------


def _static_constant(split: _EventSplit, initial: Database) -> Fraction:
    """The contribution of factors that read only static relations.

    Their truth never changes along a run, so they are decided on the
    initial state.  Returns the mode's neutral element when there are
    none: ``1`` for ``and`` (an empty conjunction holds), ``0`` for
    ``or`` (an empty disjunction does not).
    """
    held = [factor.holds(initial) for factor in split.static_factors]
    if split.mode == "or":
        return Fraction(1) if any(held) else Fraction(0)
    return Fraction(1) if all(held) else Fraction(0)


def _combine(
    split: _EventSplit,
    outcomes: list[ComponentOutcome],
    pruned: list[str],
    semantics: str,
    initial: Database,
    context: RunContext,
) -> ExactResult | SamplingResult:
    all_exact = all(outcome.exact for outcome in outcomes)
    constant = _static_constant(split, initial)

    if split.mode == "and":
        combined: Fraction | float = constant
        for outcome in outcomes:
            combined = combined * outcome.probability
    else:
        miss: Fraction | float = 1 - constant
        for outcome in outcomes:
            miss = miss * (1 - outcome.probability)
        combined = 1 - miss

    states = sum(outcome.states for outcome in outcomes)
    details: dict[str, Any] = {
        "mode": split.mode,
        "components": [outcome.as_dict() for outcome in outcomes],
        "pruned": pruned,
        "semantics": semantics,
    }
    if split.static_factors:
        details["static_factor"] = str(constant)

    if all_exact:
        result: ExactResult | SamplingResult = ExactResult(
            probability=Fraction(combined),
            states_explored=states,
            method="partition-exact",
            details=details,
        )
    else:
        # |Π p − Π p̂| ≤ Σ |p_i − p̂_i| on [0, 1]; failure by union bound.
        epsilon = min(1.0, sum(outcome.epsilon for outcome in outcomes))
        delta = min(1.0, sum(outcome.delta for outcome in outcomes))
        samples = max(1, sum(outcome.samples for outcome in outcomes))
        estimate = min(1.0, max(0.0, float(combined)))
        result = SamplingResult(
            estimate=estimate,
            samples=samples,
            positive=round(estimate * samples),
            epsilon=epsilon,
            delta=delta,
            method="partition-mixed",
            details=details,
        )
    context.finish(method=result.method)
    return result
