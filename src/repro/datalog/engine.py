"""Operational engine for inflationary probabilistic datalog.

This implements the Section 3.3 evaluation loop verbatim::

    Repeat forever {
        In parallel, for each rule r: R(X̄, Ȳ)@P ← B(X̄, Ȳ, Z̄) do {
            newVals[r] := valuations of the body of r on the old state − oldVals[r];
            oldVals[r] := oldVals[r] ∪ newVals[r];
            R := R ∪ repair-key_{X̄@P}(π_{X̄, Ȳ, P}(newVals[r]));
        }
    }

A *machine state* is the database (EDB + IDB) together with the
``oldVals[r]`` bookkeeping relations, embedded as reserved-name
relations so that states stay hashable database snapshots.  Every
computation path reaches a fixpoint (no rule has new valuations) after
polynomially many steps in the active domain — the property the paper
uses for Theorem 4.3 — and the engine's :meth:`is_fixpoint` check is
the cheap syntactic one: *all* ``newVals`` empty.

The engine exposes exact evaluation (through the generic Proposition
4.4 fixpoint pass), the Theorem 4.3 sampler, and evaluation over pc-tables
(valuation chosen once, Section 3.2/3.3).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.evaluation.exact_inflationary import (
    DEFAULT_MAX_STATES,
    fixpoint_masses,
    mix_worlds,
)
from repro.core.evaluation.results import (
    ExactResult,
    ExactSolution,
    SamplingResult,
    SolutionStore,
)
from repro.core.evaluation.sampling_inflationary import (
    DEFAULT_MAX_STEPS,
    sample_fixpoint,
)
from repro.core.events import QueryEvent
from repro.ctables.pctable import PCDatabase
from repro.datalog.ast import Const, Program, Rule
from repro.datalog.compiler import (
    compile_body,
    initial_database,
    oldvals_relation_name,
    program_schema,
    strip_auxiliary,
)
from repro.errors import DatalogError
from repro.obs.trace import phase_scope, tracer_of
from repro.probability.chernoff import hoeffding_sample_count, paper_sample_count
from repro.probability.distribution import Distribution, product_distribution
from repro.probability.rng import RngLike, make_rng
from repro.relational.algebra import Expression, evaluate
from repro.relational.database import Database
from repro.relational.relation import Relation, Row
from repro.relational.repair import repair_distribution, sample_repair

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.context import RunContext


def _head_row(rule: Rule, valuation: dict[str, object]) -> Row:
    """Instantiate the head atom under one body valuation."""
    row = []
    for term in rule.head.terms:
        if isinstance(term, Const):
            row.append(term.value)
        else:
            row.append(valuation[term.name])
    return tuple(row)


class InflationaryDatalogEngine:
    """The Section 3.3 machine for one program over one EDB.

    Examples
    --------
    >>> from repro.datalog.parser import parse_program
    >>> from repro.relational import Relation, Database
    >>> program = parse_program("c(v). c2(X*, Y) :- c(X), e(X, Y). c(Y) :- c2(X, Y).")
    >>> edb = Database({"e": Relation(("I", "J"), [("v", "w"), ("v", "u")])})
    >>> engine = InflationaryDatalogEngine(program, edb)
    >>> engine.transition(engine.initial_state()).support() is not None
    True
    """

    def __init__(self, program: Program, edb: Database):
        self.program = program
        self.edb = edb
        self.schema = program_schema(program, edb.schema())
        self._body_exprs: list[Expression] = [
            compile_body(rule.body, self.schema) for rule in program.rules
        ]
        self._body_columns: list[tuple[str, ...]] = [
            tuple(rule.body_variables()) for rule in program.rules
        ]
        for rule, expr, cols in zip(program.rules, self._body_exprs, self._body_columns):
            if not expr.is_deterministic():
                raise DatalogError(f"rule body of {rule!r} is not deterministic")

    # -- states -----------------------------------------------------------------

    def initial_state(self) -> Database:
        """EDB + empty IDB relations + empty oldVals relations."""
        relations = initial_database(self.program, self.edb).relations()
        for index, columns in enumerate(self._body_columns):
            relations[oldvals_relation_name(index)] = Relation.empty(columns)
        return Database(relations)

    def database_of(self, state: Database) -> Database:
        """The visible database of a machine state (bookkeeping dropped)."""
        return strip_auxiliary(state)

    # -- one step -------------------------------------------------------------------

    def _new_valuations(self, state: Database) -> list[Relation]:
        """Per rule: the body valuations not yet used (newVals[r])."""
        new_vals = []
        for index, expr in enumerate(self._body_exprs):
            valuations = evaluate(expr, state)
            old = state[oldvals_relation_name(index)]
            new_vals.append(valuations.difference(old))
        return new_vals

    def is_fixpoint(self, state: Database) -> bool:
        """True when no rule has a new valuation (the state can never
        change again) — the cheap syntactic fixpoint test."""
        return all(len(new) == 0 for new in self._new_valuations(state))

    def _rule_choices(self, rule: Rule, new_vals: Relation) -> Distribution[frozenset[Row]]:
        """Distribution over the sets of head rows a rule adds this step."""
        columns = new_vals.columns
        needed = list(rule.head_variables())
        weight = rule.weight_variable
        if weight is not None and weight not in needed:
            needed.append(weight)
        indices = [columns.index(name) for name in needed]
        projected = Relation(
            tuple(needed), {tuple(row[i] for i in indices) for row in new_vals}
        )
        key = tuple(sorted(rule.effective_key_variables()))
        repairs = repair_distribution(projected, key=key, weight=weight)
        return repairs.map(
            lambda chosen: frozenset(
                _head_row(rule, dict(zip(chosen.columns, row))) for row in chosen
            )
        )

    def _sample_rule_choice(
        self, rule: Rule, new_vals: Relation, rng
    ) -> frozenset[Row]:
        columns = new_vals.columns
        needed = list(rule.head_variables())
        weight = rule.weight_variable
        if weight is not None and weight not in needed:
            needed.append(weight)
        indices = [columns.index(name) for name in needed]
        projected = Relation(
            tuple(needed), {tuple(row[i] for i in indices) for row in new_vals}
        )
        key = tuple(sorted(rule.effective_key_variables()))
        chosen = sample_repair(projected, rng, key=key, weight=weight)
        return frozenset(
            _head_row(rule, dict(zip(chosen.columns, row))) for row in chosen
        )

    def _apply(
        self, state: Database, new_vals: list[Relation], chosen: list[frozenset[Row]]
    ) -> Database:
        """Build the successor state from per-rule chosen head rows."""
        updates: dict[str, Relation] = {}
        for index, (rule, new) in enumerate(zip(self.program.rules, new_vals)):
            old_name = oldvals_relation_name(index)
            updates[old_name] = updates.get(old_name, state[old_name]).union(new)
            head = rule.head.predicate
            current = updates.get(head, state[head])
            if chosen[index]:
                current = current.with_rows(chosen[index])
            updates[head] = current
        return state.with_relations(updates)

    def transition(self, state: Database) -> Distribution[Database]:
        """The exact one-step distribution of the Section 3.3 loop."""
        new_vals = self._new_valuations(state)
        per_rule = [
            self._rule_choices(rule, new)
            for rule, new in zip(self.program.rules, new_vals)
        ]
        joint = product_distribution(per_rule)
        return joint.map(lambda choices: self._apply(state, new_vals, list(choices)))

    def sample_step(self, state: Database, rng) -> Database:
        """Draw one successor state in polynomial time."""
        new_vals = self._new_valuations(state)
        chosen = [
            self._sample_rule_choice(rule, new, rng)
            for rule, new in zip(self.program.rules, new_vals)
        ]
        return self._apply(state, new_vals, chosen)

    # -- whole-query evaluation ---------------------------------------------------------

    def fixpoint_masses(
        self,
        max_states: int = DEFAULT_MAX_STATES,
        context: "RunContext | None" = None,
    ) -> tuple[dict[Database, Fraction], int]:
        """The exact distribution over final databases (bookkeeping
        stripped) as ``(masses, machine states expanded)``: the Prop 4.4
        fixpoint pass over this machine."""
        finals, states = fixpoint_masses(
            self.transition, self.initial_state(), max_states, context=context
        )
        masses: dict[Database, Fraction] = {}
        for state, mass in finals.items():
            final = self.database_of(state)
            masses[final] = masses.get(final, 0) + mass
        return masses, states

    def fixpoint_distribution(
        self, max_states: int = DEFAULT_MAX_STATES
    ) -> Distribution[Database]:
        """The exact distribution over final databases (fixpoints reached
        with self-loops renormalised away), bookkeeping stripped."""
        masses, _states = self.fixpoint_masses(max_states)
        return Distribution(masses, normalise=False)


def evaluate_datalog_exact(
    program: Program,
    edb: Database,
    event: QueryEvent,
    pc_tables: PCDatabase | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
    solutions: SolutionStore | None = None,
) -> ExactResult:
    """Exact inflationary-datalog evaluation (Prop 4.4 over the
    Section 3.3 machine): the mass of the final-database distribution
    on the databases where ``event`` holds.

    With ``pc_tables``, the probabilistic choice of c-table tuples is
    made once per possible valuation, before iteration (Section 3.3's
    "these rules are fired only once"): the evaluator enumerates the
    valuations and mixes the worlds' distributions.  With
    ``solutions`` (a session's
    :class:`~repro.core.evaluation.results.SolutionStore`) the
    distribution is computed once per program and later events are
    answered from it.
    """
    def world_masses(world_edb: Database) -> tuple[dict, int]:
        engine = InflationaryDatalogEngine(program, world_edb)
        return engine.fixpoint_masses(max_states, context)

    def solve() -> tuple[ExactSolution, ExactResult]:
        with phase_scope(context, "solve") as scope:
            largest = None
            if pc_tables is None:
                masses, states = world_masses(edb)
                worlds = 1
            else:
                masses, states, worlds, largest = mix_worlds(
                    (
                        (edb.with_relations(world.relations()), weight)
                        for world, weight in pc_tables.possible_worlds().items()
                    ),
                    world_masses,
                    context,
                )
                scope.annotate(pc_worlds=worlds)
            scope.annotate(states=states)
            solution = ExactSolution(
                masses, states, "datalog-exact", {"pc_worlds": worlds},
                world_states=largest,
            )
            return solution, solution.answer(event.holds)

    if solutions is None:
        return solve()[1]
    return solutions.answer(program, event.holds, max_states, context, solve)


def evaluate_datalog_sampling(
    program: Program,
    edb: Database,
    event: QueryEvent,
    pc_tables: PCDatabase | None = None,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int | None = None,
    rng: RngLike = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    use_paper_bound: bool = True,
    context: "RunContext | None" = None,
) -> SamplingResult:
    """The Theorem 4.3 sampler specialised to datalog.

    Fixpoint detection is the engine's cheap syntactic check (no new
    valuations), so each sample costs as much as one non-probabilistic
    datalog evaluation plus the random choices — exactly the complexity
    argued in the Theorem 4.3 proof.
    """
    generator = make_rng(rng)
    if samples is None:
        planner = paper_sample_count if use_paper_bound else hoeffding_sample_count
        planned = planner(epsilon, delta)
        recorded_epsilon, recorded_delta = epsilon, delta
    else:
        planned = samples
        recorded_epsilon = recorded_delta = None

    engines: dict[Database, InflationaryDatalogEngine] = {}

    def engine_for(world_edb: Database) -> InflationaryDatalogEngine:
        engine = engines.get(world_edb)
        if engine is None:
            engine = InflationaryDatalogEngine(program, world_edb)
            engines[world_edb] = engine
        return engine

    tracer = tracer_of(context)
    positive = 0
    total_steps = 0
    with phase_scope(context, "sample", planned=planned):
        for index in range(1, planned + 1):
            world_edb = edb
            if pc_tables is not None:
                world = pc_tables.sample_world(generator)
                world_edb = edb.with_relations(world.relations())
            engine = engine_for(world_edb)
            fixpoint, steps = sample_fixpoint(
                lambda state, engine=engine: engine.sample_step(state, generator),
                engine.is_fixpoint,
                engine.initial_state(),
                max_steps=max_steps,
                context=context,
            )
            hit = event.holds(engine.database_of(fixpoint))
            positive += hit
            total_steps += steps
            if tracer.enabled:
                tracer.event(
                    "sample", index=index, hit=bool(hit),
                    positive=positive, steps=steps,
                )

    return SamplingResult(
        estimate=positive / planned,
        samples=planned,
        positive=positive,
        epsilon=recorded_epsilon,
        delta=recorded_delta,
        method="datalog-thm-4.3",
        details={"mean_steps_per_sample": total_steps / planned},
    )
