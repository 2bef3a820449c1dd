"""Partition planner: program decomposition (Section 5.1).

The paper's provenance-based partitioning observes that a forever-query
over independent sub-programs factorizes: the induced Markov chain is a
*product* chain, so the event probability can be computed per component
and recombined by independence instead of exploring the product state
space.  This module decides, **before evaluation starts**, how a
program splits; :mod:`repro.runtime.partition_exec` runs the result.
It builds two kinds of :class:`PartitionPlan`:

relation level (:func:`compute_partition_plan`)
    An analysis over the kernel's dependency structure whose components
    are sets of relations.  It is event-independent, so lint and service
    admission report it (``PP0xx``).

tuple level (:func:`compute_tuple_plan`)
    The paper's own granularity: components are classes of base tuples
    that share no provenance, discovered by running the kernel
    inflationarily on the database (see :func:`compute_tuple_plan` for
    the coupling rules).  It splits programs the relation level cannot,
    such as several walkers in one relation on disjoint graphs.

Both read one semi-naive discovery pass over the database: its classes
are the tuple level's components, and its support gives the relation
level's state bounds.

Relation level
--------------

dynamic relation
    A relation the kernel actually rewrites: a non-identity query
    (``R := R`` lines are documentation, not work) or an attached
    pc-table relation (re-instantiated every step).

component
    A connected component of the undirected coupling graph over dynamic
    relations.  Two dynamic relations couple when one's query references
    the other (any polarity — a negative reference correlates values
    just as a positive one does) or when their pc-tables share random
    variables.  *Static* relations never couple components: a shared
    read-only input is the same constant in every world.

Every claim the relation-level planner makes is checkable statically:

* components share no repair-key provenance by construction (a
  repair-key choice made inside one component's queries is invisible to
  the other components' queries);
* the per-component state bound is a sound over-approximation of the
  reachable sub-chain (see ``_state_bounds``); bounds are off
  (``bounded`` false) when a query references a dynamic relation
  negatively, where reading a difference as its left side would leave
  them too loose to use;
* recombination by independence is exact for the product chain whenever
  each component's own Cesàro limit exists (always for aperiodic
  components, e.g. lazy kernels); the parity gates in
  ``tests/runtime/test_partition_exec.py`` and ``bench_partition``
  enforce bit-identity against whole-program evaluation.

Findings are published as ``PP0xx`` diagnostics (catalogue in
``docs/analysis.md``); the machine-facing summary rides on
:class:`~repro.analysis.hints.PlanHints` into ``repro lint --json`` and
the service admission stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    TypeVar,
)

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.graph import coupling_edges, expression_references
from repro.errors import AlgebraError, EvaluationError
from repro.probability.distribution import as_fraction
from repro.relational.algebra import (
    Difference,
    Expression,
    ExtendedProject,
    Literal,
    NaturalJoin,
    Product,
    Project,
    RelationRef,
    Rename,
    RepairKey,
    Select,
    Union,
)
from repro.relational.ordering import row_key

if TYPE_CHECKING:
    from repro.core.events import QueryEvent, TupleIn
    from repro.core.interpretation import Interpretation
    from repro.relational.database import Database

#: Default exact-rung state budget the planner judges bounds against —
#: the CLI's ``forever --max-states`` default (``DEFAULT_MAX_STATES``).
DEFAULT_EXACT_BUDGET = 20_000

#: State bounds larger than this are reported as ``None`` (effectively
#: unbounded: no exact budget in this codebase comes anywhere near it).
_BOUND_CAP = 10**15

#: A relation whose support exceeds this many rows gets no subset bound
#: (``2**n`` would blow past :data:`_BOUND_CAP` anyway).
_SUBSET_BOUND_MAX_ROWS = 50

#: The discovery pass gives up past this many tuples.
_SUPPORT_MAX_ROWS = 100_000

#: Safety cap on the rounds of the discovery pass.
MAX_DISCOVERY_ROUNDS = 10_000

#: Cap on the weight sums the discovery pass enumerates for rows a
#: repair-key merges (there are up to ``2**k - 1`` for ``k`` rows).
MAX_MERGED_WEIGHTS = 4096

#: A tuple of some relation: ``(relation name, row)``.
TupleId = tuple[str, tuple[Any, ...]]


@dataclass(frozen=True)
class ComponentFacts:
    """Abstract facts about one independent component of a program.

    All facts are derived statically; ``state_bound`` additionally needs
    the initial database (``None`` means the planner could not bound the
    component — never that the component is small).  A tuple-level
    component also lists the base tuples it owns in ``tuples``; its
    kernel facts are the whole kernel's, since it runs every query.
    """

    index: int
    name: str
    members: tuple[str, ...]
    footprint: tuple[str, ...]
    repair_keys: int
    deterministic: bool
    pc_free: bool
    sparse_eligible: bool
    columnar_eligible: bool
    state_bound: int | None
    contains_event: bool | None = None
    tuples: tuple[TupleId, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "members": list(self.members),
            "footprint": list(self.footprint),
            "repair_keys": self.repair_keys,
            "deterministic": self.deterministic,
            "pc_free": self.pc_free,
            "sparse_eligible": self.sparse_eligible,
            "columnar_eligible": self.columnar_eligible,
            "state_bound": self.state_bound,
        }
        if self.contains_event is not None:
            payload["contains_event"] = self.contains_event
        return payload


@dataclass(frozen=True)
class PartitionSummary:
    """The event-independent distillation of a plan for ``PlanHints``.

    Deliberately excludes everything the query event contributes, so the
    summary a ``repro lint --json`` run reports matches the one service
    admission (which sees no event) attaches to its stats bit-for-bit.
    """

    components: int
    splittable: bool
    bounded: bool
    exact_components: int
    oversized_components: int
    max_state_bound: int | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "components": self.components,
            "splittable": self.splittable,
            "bounded": self.bounded,
            "exact_components": self.exact_components,
            "oversized_components": self.oversized_components,
            "max_state_bound": self.max_state_bound,
        }


@dataclass(frozen=True)
class PartitionPlan:
    """The planner's full output for one program.

    ``level`` is ``"relation"`` or ``"tuple"``; a tuple-level plan maps
    every tuple some component can hold, base or derived, to that
    component's name in ``owner``.
    """

    semantics: str
    components: tuple[ComponentFacts, ...]
    exact_budget: int
    bounded: bool
    negation_bridges: tuple[tuple[str, str], ...] = ()
    pc_couplings: tuple[tuple[str, str], ...] = ()
    event_relation: str | None = None
    event_component: str | None = None
    level: str = "relation"
    owner: Mapping[TupleId, str] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def splittable(self) -> bool:
        return len(self.components) >= 2

    def component_of(self, relation: str) -> ComponentFacts | None:
        """The component whose *members* include ``relation``."""
        for component in self.components:
            if relation in component.members:
                return component
        return None

    def owners(self, relation: str, row: tuple[Any, ...] | None = None) -> set[str]:
        """Names of the components whose runs can put ``row`` (any row,
        when ``None``) into ``relation``; empty when none can, i.e. the
        relation (or the tuple) never changes along a run."""
        if self.level == "relation":
            component = self.component_of(relation)
            return set() if component is None else {component.name}
        if row is not None:
            owner = self.owner.get((relation, row))
            return set() if owner is None else {owner}
        return {name for (held, _row), name in self.owner.items() if held == relation}

    def summary(self) -> PartitionSummary:
        bounds = [c.state_bound for c in self.components]
        known = [b for b in bounds if b is not None]
        return PartitionSummary(
            components=len(self.components),
            splittable=self.splittable,
            bounded=self.bounded,
            exact_components=sum(
                1 for b in bounds if b is not None and b <= self.exact_budget
            ),
            oversized_components=sum(
                1 for b in bounds if b is not None and b > self.exact_budget
            ),
            max_state_bound=max(known) if known and len(known) == len(bounds) else None,
        )

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "semantics": self.semantics,
            "splittable": self.splittable,
            "exact_budget": self.exact_budget,
            "bounded": self.bounded,
            "components": [c.as_dict() for c in self.components],
        }
        if self.negation_bridges:
            payload["negation_bridges"] = [list(pair) for pair in self.negation_bridges]
        if self.pc_couplings:
            payload["pc_couplings"] = [list(pair) for pair in self.pc_couplings]
        if self.event_relation is not None:
            payload["event_relation"] = self.event_relation
            payload["event_component"] = self.event_component
        return payload

    def render_lines(self) -> list[str]:
        """Human-readable plan, one line per component, for lint output."""
        lines = [
            f"partition: {len(self.components)} component(s), "
            f"splittable={str(self.splittable).lower()}, "
            f"exact budget {self.exact_budget}"
        ]
        for component in self.components:
            bound = (
                str(component.state_bound)
                if component.state_bound is not None
                else "unknown"
            )
            flags = []
            if component.deterministic:
                flags.append("deterministic")
            if component.sparse_eligible:
                flags.append("sparse")
            if component.columnar_eligible:
                flags.append("columnar")
            if component.contains_event:
                flags.append("event")
            lines.append(
                f"  {component.name}: members={','.join(component.members)} "
                f"bound={bound} repair_keys={component.repair_keys}"
                + (f" [{','.join(flags)}]" if flags else "")
            )
        return lines


def compute_partition_plan(
    kernel: "Interpretation",
    *,
    database: "Database | None" = None,
    event: "QueryEvent | None" = None,
    semantics: str = "forever",
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> PartitionPlan:
    """Statically decompose ``kernel`` into independent components.

    ``database`` enables the conservative per-component state bound (the
    discovery pass needs the initial instance); ``event`` marks the
    component that contains the event relation.  Neither changes the
    partition itself.

    Only a single-atom event names *the* event component; a compound
    event may span several components (the executor splits it per
    component at run time), so it contributes no component marking.
    """
    from repro.core.events import TupleIn

    if not isinstance(event, TupleIn):
        event = None
    queries = kernel.queries
    pc_names = set(kernel.pc_relation_names())
    dynamic = {
        name
        for name, expression in queries.items()
        if not _is_identity(name, expression)
    } | pc_names

    uf = _UnionFind(dynamic)
    for edge in coupling_edges(queries, dynamic):
        uf.union(edge.src, edge.dst)

    # pc-tables sharing random variables are correlated even without any
    # query-level dependency; record the pairs that merge otherwise
    # separate groups (PP004) before folding them into the partition.
    pc_couplings: list[tuple[str, str]] = []
    if kernel.pc_tables is not None:
        variables_of = {
            name: table.variables() for name, table in kernel.pc_tables.tables.items()
        }
        for left, right in combinations(sorted(variables_of), 2):
            if variables_of[left] & variables_of[right]:
                if uf.find(left) != uf.find(right):
                    pc_couplings.append((left, right))
                uf.union(left, right)

    groups = uf.groups()

    # PP003: would ignoring negative couplings split the program finer?
    uf_positive = _UnionFind(dynamic)
    for edge in coupling_edges(queries, dynamic):
        if edge.positive:
            uf_positive.union(edge.src, edge.dst)
    for left, right in pc_couplings:
        uf_positive.union(left, right)
    negation_bridges: list[tuple[str, str]] = []
    if len(uf_positive.groups()) > len(groups):
        seen: set[tuple[str, str]] = set()
        for edge in coupling_edges(queries, dynamic):
            if edge.positive:
                continue
            if uf_positive.find(edge.src) != uf_positive.find(edge.dst):
                pair = (edge.src, edge.dst)
                if pair not in seen:
                    seen.add(pair)
                    negation_bridges.append(pair)

    bounds, bounded = _state_bounds(kernel, dynamic, pc_names, database)

    components: list[ComponentFacts] = []
    event_component: str | None = None
    for index, members in enumerate(groups):
        name = f"c{index}"
        facts = _component_facts(
            index,
            name,
            members,
            kernel,
            pc_names,
            bounds,
            event=event,
            semantics=semantics,
        )
        if facts.contains_event:
            event_component = name
        components.append(facts)

    return PartitionPlan(
        semantics=semantics,
        components=tuple(components),
        exact_budget=exact_budget,
        bounded=bounded,
        negation_bridges=tuple(negation_bridges),
        pc_couplings=tuple(pc_couplings),
        event_relation=event.relation if event is not None else None,
        event_component=event_component,
    )


def partition_diagnostics(plan: PartitionPlan, report: DiagnosticReport) -> None:
    """Append the plan's ``PP0xx`` findings to ``report``."""
    if plan.splittable:
        preview = "; ".join(
            f"{c.name}={{{','.join(c.members)}}}" for c in plan.components
        )
        report.add(
            "PP001",
            f"the program splits into {len(plan.components)} independent "
            f"components that share no repair-key provenance ({preview}); "
            "each can be evaluated on its own cheapest rung and the event "
            "probability recombined by independence",
            suggestion="evaluate with --partition auto to run components "
            "independently",
        )
    for component in plan.components:
        if component.state_bound is not None and component.state_bound > plan.exact_budget:
            report.add(
                "PP002",
                f"component {component.name} "
                f"({','.join(component.members)}) has a conservative state "
                f"bound of {component.state_bound}, above the exact budget "
                f"of {plan.exact_budget}; its exact rung will overflow",
                subject=component.name,
                suggestion="raise --max-states or let the degradation "
                "ladder pick the sparse/lumped/mcmc rung for this component",
            )
    if plan.negation_bridges:
        bridges = ", ".join(f"{src} -> {dst}" for src, dst in plan.negation_bridges)
        report.add(
            "PP003",
            "cross-component negation prevents a finer split: the only "
            f"couplings between otherwise independent groups are negative "
            f"references ({bridges}), and difference correlates values "
            "just as a join does",
            suggestion="stratify: compute the subtracted relation in a "
            "separate phase so the components decouple",
        )
    if plan.pc_couplings:
        pairs = ", ".join(f"{a}~{b}" for a, b in plan.pc_couplings)
        report.add(
            "PP004",
            "pc-tables sharing random variables couple otherwise "
            f"independent components ({pairs}): their instantiations are "
            "correlated, so the groups cannot be evaluated separately",
            suggestion="give the pc-tables disjoint variable sets if "
            "independence is intended",
        )
    if plan.splittable and plan.event_component is not None:
        others = len(plan.components) - 1
        report.add(
            "PP005",
            f"the event relation {plan.event_relation!r} is confined to "
            f"component {plan.event_component}; the other {others} "
            "component(s) cannot influence the answer and are pruned by "
            "partitioned evaluation",
            subject=plan.event_relation,
            suggestion="run with --partition auto to skip the pruned "
            "components entirely",
        )


# -- component facts ----------------------------------------------------------


def _component_facts(
    index: int,
    name: str,
    members: tuple[str, ...],
    kernel: "Interpretation",
    pc_names: set[str],
    bounds: Mapping[str, int | None],
    *,
    event: "TupleIn | None",
    semantics: str,
) -> ComponentFacts:
    queries = kernel.queries
    footprint = set(members)
    repair_keys = 0
    deterministic = True
    for member in members:
        if member in pc_names:
            table = kernel.pc_tables.tables[member] if kernel.pc_tables else None
            if table is not None and table.variables():
                deterministic = False
            continue
        expression = queries[member]
        footprint.update(ref for ref, _pos, _prob in expression_references(expression))
        repair_keys += sum(
            1 for node in _walk_expression(expression) if isinstance(node, RepairKey)
        )
        if not expression.is_deterministic():
            deterministic = False

    pc_members = [m for m in members if m in pc_names]
    pc_free = not any(
        kernel.pc_tables is not None
        and kernel.pc_tables.tables[m].variables()
        for m in pc_members
    )

    if pc_members:
        columnar_eligible = False
    else:
        from repro.core.interpretation import Interpretation
        from repro.kernel import kernel_ineligibility

        sub_kernel = Interpretation({m: queries[m] for m in members})
        columnar_eligible = not kernel_ineligibility(sub_kernel)

    state_bound: int | None = None
    if not pc_members:
        state_bound = _product([bounds.get(m) for m in members])

    return ComponentFacts(
        index=index,
        name=name,
        members=members,
        footprint=tuple(sorted(footprint)),
        repair_keys=repair_keys,
        deterministic=deterministic,
        pc_free=pc_free,
        sparse_eligible=semantics == "forever" and not deterministic,
        columnar_eligible=columnar_eligible,
        state_bound=state_bound,
        contains_event=(event.relation in members) if event is not None else None,
    )


# -- conservative state bounds ------------------------------------------------


def _state_bounds(
    kernel: "Interpretation",
    dynamic: set[str],
    pc_names: set[str],
    database: "Database | None",
) -> tuple[dict[str, int | None], bool]:
    """Per-relation bounds on the number of values each dynamic relation
    can take along any run, read off the discovery pass (see
    :func:`compute_tuple_plan`).

    Soundness: the pass reads every operator monotonically (repair-key
    keeps every row and every footnote-1 weight sum, a difference keeps
    its whole left side), so its final state, the *support*, holds every
    row a run can hold.  Every reachable value of a relation ``R`` is a
    subset of its support, which gives the generic subset bound
    ``2**|support|``; a repair-key node sharpens it to the product over
    its key groups of ``candidates + 1`` (each group contributes one
    chosen row or nothing), the candidates being the rows the pass met
    there.  Returns ``({}, False)`` when no bound can be computed.
    """
    targets = {name for name in dynamic if name not in pc_names}
    if database is None or not targets:
        return {}, False
    for name in targets:
        for ref, positive, _prob in expression_references(kernel.queries[name]):
            if not positive and ref in dynamic:
                # Sound but too loose to use: read as its left side, a
                # difference leaves only the subset bound of its support,
                # so the 3x4 reach DAG would get a bound of 16,384 and
                # larger DAGs a PP002 their chains do not earn.
                return {}, False
    try:
        run = _Discovery(kernel, database)
    except Exception:
        # A malformed query (caught separately by the schema checks) or a
        # pass past its caps yields no bound; the planner never raises.
        return {}, False
    bounds: dict[str, int | None] = {}
    for name in targets:
        found = (
            _value_bound(kernel.queries[name], (name,), run, dynamic),
            _subset_bound(run, name),
        )
        bounds[name] = min((b for b in found if b is not None), default=None)
    return bounds, True


def _value_bound(
    expression: Expression,
    at: "_Path",
    run: "_Discovery",
    dynamic: set[str],
) -> int | None:
    """Bound on the number of distinct values ``expression``, at plan
    position ``at``, can produce across all reachable runtime states
    (``None`` = no bound found)."""
    if isinstance(expression, RelationRef):
        if expression.name in dynamic:
            return _subset_bound(run, expression.name)
        return 1
    if isinstance(expression, Literal):
        return 1
    if isinstance(expression, RepairKey):
        return _product(count + 1 for count in run.candidates.get(at, {}).values())
    # A unary or binary operator: the pass, which ran, knows no others.
    return _product(
        _value_bound(child, at + (index,), run, dynamic)
        for index, child in enumerate(expression.children())
    )


def _subset_bound(run: "_Discovery", name: str) -> int | None:
    support = run.rows.get(name)
    if support is None or len(support) > _SUBSET_BOUND_MAX_ROWS:
        return None
    return 2 ** len(support)


def _product(factors: Iterable[int | None]) -> int | None:
    result = 1
    for factor in factors:
        if factor is None:
            return None
        result *= factor
        if result > _BOUND_CAP:
            return None
    return result


# -- tuple-level discovery ----------------------------------------------------


def compute_tuple_plan(kernel: "Interpretation", database: "Database") -> PartitionPlan:
    """Split the database into provenance-independent tuple classes.

    The paper's Section 5.1 pre-processing for forever-queries: run the
    kernel inflationarily from ``database``, reading repair-key as "keep
    every row" (any of them could be chosen), and couple tuples in one
    union-find over ``(relation, row)`` ids:

    * a derived tuple couples with the tuples it is derived from;
    * the rows of one repair-key group couple with each other (whether
      one is chosen depends on its siblings), through a node of the
      group's own when the rows come from literals alone;
    * a repair-key merges rows equal but for the weight, summing the
      weights of those a state holds, so every such sum is a candidate
      row of the group;
    * every left row of a difference may survive, since the subtracted
      side can lack it in some state, and couples with the same row of
      the subtracted side, which decides whether it does;
    * pc-table entries whose conditions share a variable couple, and
      every entry is a candidate tuple of its relation.

    The run is semi-naive: each round evaluates every query on the
    tuples the previous round added, a join pairing each side's new rows
    with all rows met on the other (``Δ(E ⋈ F) = ΔE ⋈ F ∪ E_old ⋈ ΔF``),
    and a row a plan position meets again couples with its first anchor
    instead of being propagated again.  It stops after a round that adds
    no tuple.  Read this way every operator is monotone, so the final
    state holds every tuple any run can hold.
    Couplings are made where the operator meets its inputs, so a pair a
    later selection drops may still couple: the classes can only come
    out coarser than necessary, never wrongly split.

    Each class becomes one component that owns its base tuples (the
    database's rows plus the pc-table candidates); ``owner`` maps every
    tuple, derived ones included, to its component.  Raises
    :class:`~repro.errors.EvaluationError` when the run does not reach
    a fixpoint within :data:`MAX_DISCOVERY_ROUNDS` rounds, holds more
    than 100,000 tuples, or when a merge of equal-but-for-weight rows
    has more than :data:`MAX_MERGED_WEIGHTS` candidate sums.
    """
    kernel.check_schema(database)
    run = _Discovery(kernel, database)

    pc_names = set(kernel.pc_relation_names())
    dynamic = {
        name
        for name, expression in kernel.queries.items()
        if not _is_identity(name, expression)
    } | pc_names
    whole = _component_facts(
        0, "c0", tuple(sorted(dynamic)), kernel, pc_names, {},
        event=None, semantics="forever",
    )
    components: list[ComponentFacts] = []
    owner: dict[TupleId, str] = {}
    # Choice nodes (negative ids) sort last and are no tuples: drop them,
    # and the classes that hold nothing else.
    classes = [[tid for tid in group if tid >= 0] for group in run.uf.groups()]
    for index, members in enumerate(group for group in classes if group):
        name = f"c{index}"
        tuples = [run.tuples[tid] for tid in members]
        owner.update(dict.fromkeys(tuples, name))
        components.append(
            replace(
                whole,
                index=index,
                name=name,
                members=tuple(sorted({relation for relation, _row in tuples})),
                footprint=tuple(sorted(database.names())),
                tuples=tuple(
                    held for tid, held in zip(members, tuples) if tid < run.base
                ),
            )
        )
    return PartitionPlan(
        semantics="forever",
        components=tuple(components),
        exact_budget=DEFAULT_EXACT_BUDGET,
        bounded=False,
        level="tuple",
        owner=owner,
    )


_Row = tuple[Any, ...]

#: A plan position: the query's name, then the child indices down to
#: the operator (one expression object can occur at several).
_Path = tuple[Any, ...]

#: Rows of an intermediate result, each mapped to its *anchor*: the id
#: of a tuple whose class holds every tuple the row was derived from,
#: or ``None`` for a row derived from literals alone.
_Lineage = dict[_Row, "int | None"]

#: The rows a position yields in one round that it had not met, anchored.
_Delta = list[tuple[_Row, "int | None"]]

#: A join side's rows met so far by join key, each as the part of the
#: row the join output takes from it, with its anchor.
_Buckets = dict[_Row, _Delta]


class _Discovery:
    """The discovery pass of both planners, run to its fixpoint.

    Every tuple met gets a dense integer id, and the union-find holds
    ids: hashing rows that carry ``Fraction`` weights is what a run
    spends most of its time on, so each row is hashed as rarely as
    possible.  ``rows`` is the inflationary state, as row -> id maps;
    ``fresh`` holds the tuples the last round added.  A repair-key group
    whose rows come from literals alone is anchored by a *choice node*,
    which has a negative id (see :meth:`choice`).  What a plan position
    keeps lasts across rounds: the rows it met with their first anchors
    (``met``), a join's rows per side and join key (``sides``), a
    difference's right rows (``subtracted``), and a repair-key's group
    anchors, candidate rows per group and footnote-1 weights and sums.
    """

    def __init__(self, kernel: "Interpretation", database: "Database") -> None:
        self.tuples: list[TupleId] = []
        self.choices: dict[tuple[RepairKey, _Row], int] = {}
        self.uf: _UnionFind[int] = _UnionFind(key=self.order)
        self.columns = database.schema()
        self.rows: dict[str, dict[_Row, int]] = {}
        for name in database.names():
            self.rows[name] = {}
            for row in database[name]:
                self.intern(name, row)
        if kernel.pc_tables is not None:
            first_entry: dict[str, int] = {}
            for name in sorted(kernel.pc_tables.tables):
                for row, cond in kernel.pc_tables.tables[name].entries:
                    tid = self.intern(name, row)
                    for variable in sorted(cond.variables()):
                        self.uf.union(first_entry.setdefault(variable, tid), tid)
        self.base = len(self.tuples)
        self.met: dict[_Path, _Lineage] = {}
        self.sides: dict[_Path, tuple[_Buckets, _Buckets]] = {}
        self.subtracted: dict[_Path, _Lineage] = {}
        self.groups: dict[_Path, dict[_Row, int]] = {}
        self.candidates: dict[_Path, dict[_Row, int]] = {}
        self.weights: dict[_Path, dict[_Row, tuple[list[Any], set[Fraction]]]] = {}
        self.fresh: dict[str, _Delta] = {
            name: list(ids.items()) for name, ids in self.rows.items()
        }
        queries = sorted(kernel.queries.items())
        for _round in range(MAX_DISCOVERY_ROUNDS):
            derived = [(name, self.delta(query, (name,))[1]) for name, query in queries]
            fresh: dict[str, _Delta] = {}
            for name, rows in derived:
                for row, anchor in rows:
                    known = len(self.tuples)
                    tid = self.intern(name, row)
                    if tid >= known:
                        fresh.setdefault(name, []).append((row, tid))
                    if anchor is not None:
                        self.uf.union(tid, anchor)
            if not fresh:
                return
            if len(self.tuples) > _SUPPORT_MAX_ROWS:
                raise EvaluationError(
                    f"tuple-level discovery: more than {_SUPPORT_MAX_ROWS} tuples"
                )
            self.fresh = fresh
        raise EvaluationError(
            f"tuple-level discovery did not reach a fixpoint within "
            f"{MAX_DISCOVERY_ROUNDS} rounds"
        )

    def intern(self, name: str, row: _Row) -> int:
        tid = self.rows[name].setdefault(row, len(self.tuples))
        if tid == len(self.tuples):
            self.tuples.append((name, row))
            self.uf.add(tid)
        return tid

    def choice(self, site: RepairKey, group: _Row) -> int:
        """The node of a repair-key group no tuple anchors: its rows come
        from literals, yet which of them is chosen still couples them.
        Keyed by the operator and the group, so every position of the
        operator meets the same node."""
        node = self.choices.get((site, group))
        if node is None:
            node = self.choices[site, group] = -1 - len(self.choices)
            self.uf.add(node)
        return node

    def order(self, tid: int) -> tuple[Any, ...]:
        """Canonical sort key: tuples by relation and row, then the
        choice nodes."""
        if tid < 0:
            return (1, tid)
        name, row = self.tuples[tid]
        return (0, name, row_key(row))

    def link(self, left: int | None, right: int | None) -> int | None:
        """One anchor for a row that depends on both anchors' classes."""
        if left is None:
            return right
        if right is not None:
            self.uf.union(left, right)
        return left

    def meet(self, met: _Lineage, out: _Delta, row: _Row, anchor: int | None) -> bool:
        """Record that a position derived ``row`` from ``anchor``.  A row
        new there joins ``out``, the position's delta, and so does a row
        derived from literals alone until now; a row met before couples
        with its first anchor.  True if ``row`` is new."""
        known = len(met)
        first = met.setdefault(row, anchor)
        if len(met) > known:
            out.append((row, anchor))
            return True
        if anchor is not None:
            if first is None:
                met[row] = anchor
                out.append((row, anchor))
            else:
                self.uf.union(first, anchor)
        return False

    def delta(self, expression: Expression, at: _Path) -> tuple[tuple[str, ...], _Delta]:
        """The rows ``expression`` yields at plan position ``at`` this
        round that it did not yield before, read with repair-key keeping
        every row, coupling tuples as :func:`compute_tuple_plan` says."""
        link = self.link
        if isinstance(expression, RelationRef):
            return self.columns[expression.name], self.fresh.get(expression.name, [])
        if isinstance(expression, Select):
            columns, rows = self.delta(expression.child, at + (0,))
            predicate = expression.predicate
            return columns, [
                (row, anchor)
                for row, anchor in rows
                if predicate.evaluate(dict(zip(columns, row)))
            ]
        if isinstance(expression, Rename):
            columns, rows = self.delta(expression.child, at + (0,))
            return tuple(expression.mapping.get(c, c) for c in columns), rows
        met = self.met.setdefault(at, {})
        out: _Delta = []
        if isinstance(expression, Literal):
            for row in expression.relation:
                self.meet(met, out, row, None)
            return expression.relation.columns, out
        if isinstance(expression, (Project, ExtendedProject)):
            columns, rows = self.delta(expression.child, at + (0,))
            out_columns, image = _row_image(expression, columns)
            for row, anchor in rows:
                self.meet(met, out, image(row), anchor)
            return out_columns, out
        if isinstance(expression, Union):
            columns, left = self.delta(expression.left, at + (0,))
            for row, anchor in left + self.delta(expression.right, at + (1,))[1]:
                self.meet(met, out, row, anchor)
            return columns, out
        if isinstance(expression, Difference):
            # Every left row may survive (the subtracted side can lack it
            # in some state), and whether it does depends on the same
            # row of the subtracted side, whichever side met it first.
            columns, left = self.delta(expression.left, at + (0,))
            right = self.delta(expression.right, at + (1,))[1]
            subtracted = self.subtracted.setdefault(at, {})
            for row, anchor in right:
                subtracted[row] = anchor
                if row in met:
                    self.meet(met, out, row, anchor)
            for row, anchor in left:
                self.meet(met, out, row, link(anchor, subtracted.get(row)))
            return columns, out
        if isinstance(expression, (Product, NaturalJoin)):
            left_columns, left = self.delta(expression.left, at + (0,))
            right_columns, right = self.delta(expression.right, at + (1,))
            shared = (
                [c for c in left_columns if c in right_columns]
                if isinstance(expression, NaturalJoin)
                else []
            )
            kept = [i for i, c in enumerate(right_columns) if c not in left_columns]
            left_key = [left_columns.index(c) for c in shared]
            right_key = [right_columns.index(c) for c in shared]
            lefts, rights = self.sides.setdefault(at, ({}, {}))
            # E_old ⋈ ΔF, then ΔE ⋈ F with F holding this round's rows too.
            for row, anchor in right:
                key, tail = tuple(row[i] for i in right_key), tuple(row[i] for i in kept)
                rights.setdefault(key, []).append((tail, anchor))
                for head, other in lefts.get(key, ()):
                    self.meet(met, out, head + tail, link(other, anchor))
            for row, anchor in left:
                key = tuple(row[i] for i in left_key)
                lefts.setdefault(key, []).append((row, anchor))
                for tail, other in rights.get(key, ()):
                    self.meet(met, out, row + tail, link(anchor, other))
            return left_columns + tuple(right_columns[i] for i in kept), out
        if isinstance(expression, RepairKey):
            columns, rows = self.delta(expression.child, at + (0,))
            key = [columns.index(c) for c in expression.key]
            groups = self.groups.setdefault(at, {})
            anchors: dict[_Row, int | None] = {}
            for row, anchor in rows:
                group = tuple(row[i] for i in key)
                if group in groups:
                    link(groups[group], anchor)
                else:
                    anchors[group] = link(anchors.get(group), anchor)
            for group, anchor in anchors.items():
                groups[group] = self.choice(expression, group) if anchor is None else anchor
            found = [row for row, _anchor in rows]
            if expression.weight is not None:
                found += self.merge(at, found, columns.index(expression.weight))
            sizes = self.candidates.setdefault(at, {})
            for row in found:
                group = tuple(row[i] for i in key)
                if self.meet(met, out, row, groups[group]):
                    sizes[group] = sizes.get(group, 0) + 1
            return columns, out
        raise AlgebraError(f"cannot track lineage through {expression!r}")

    def merge(self, at: _Path, rows: Iterable[_Row], weight: int) -> list[_Row]:
        """The rows a repair-key makes by merging rows equal but for the
        weight (footnote 1 of the paper) that are new this round: the
        merged weight sums those a state holds, so any nonempty subset's
        sum can occur.  Sums grow by new weights only.  Such rows share
        their key, hence their group's anchor."""
        known = self.weights.setdefault(at, {})
        out: list[_Row] = []
        for row in rows:
            rest = row[:weight] + row[weight + 1 :]
            weights, sums = known.setdefault(rest, ([], set()))
            if row[weight] in weights:
                continue  # met before, derived from literals alone then
            weights.append(row[weight])
            if len(weights) < 2:
                continue
            if not sums:
                sums.add(as_fraction(weights[0]))
            value = as_fraction(row[weight])
            grown = ({value} | {total + value for total in sums}) - sums
            sums |= grown
            if len(sums) > MAX_MERGED_WEIGHTS:
                raise EvaluationError(
                    f"tuple-level discovery: more than {MAX_MERGED_WEIGHTS} "
                    f"merged repair-key weights for row {rest!r}"
                )
            out.extend(rest[:weight] + (total,) + rest[weight:] for total in grown)
        return out


def _row_image(
    expression: Project | ExtendedProject, columns: tuple[str, ...]
) -> tuple[tuple[str, ...], Callable[[tuple[Any, ...]], tuple[Any, ...]]]:
    """Output columns and row map of a row-wise operator."""
    if isinstance(expression, Project):
        indices = [columns.index(c) for c in expression.columns]
        return expression.columns, lambda row: tuple(row[i] for i in indices)
    sources = [
        (True, columns.index(value)) if kind == "col" else (False, value)
        for _name, (kind, value) in expression.outputs
    ]
    return (
        tuple(name for name, _source in expression.outputs),
        lambda row: tuple(row[v] if is_col else v for is_col, v in sources),
    )


# -- helpers ------------------------------------------------------------------


def _is_identity(name: str, expression: Expression) -> bool:
    return isinstance(expression, RelationRef) and expression.name == name


def _walk_expression(expression: Expression) -> Iterator[Expression]:
    yield expression
    for child in expression.children():
        yield from _walk_expression(child)


_Item = TypeVar("_Item", bound=Hashable)


class _UnionFind(Generic[_Item]):
    """Union-find with deterministic grouping: members come out sorted by
    ``key``, and groups by their first member, whatever the insertion
    or union order.  Relation names sort as themselves; tuple-level
    discovery sorts its tuple ids canonically (:meth:`_Discovery.order`),
    so component order, names and per-component seeds never depend on
    ``PYTHONHASHSEED``."""

    def __init__(
        self,
        items: Iterable[_Item] = (),
        key: Callable[[_Item], Any] = lambda item: item,
    ) -> None:
        self._parent: dict[_Item, _Item] = {item: item for item in items}
        self._key = key

    def add(self, item: _Item) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: _Item) -> _Item:
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, left: _Item, right: _Item) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left

    def groups(self) -> list[tuple[_Item, ...]]:
        """Members per component, each sorted, components sorted by
        their first member."""
        by_root: dict[_Item, list[_Item]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        key = self._key
        groups = [tuple(sorted(members, key=key)) for members in by_root.values()]
        return sorted(groups, key=lambda group: key(group[0]))
