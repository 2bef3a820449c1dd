"""Parity suite for partitioned evaluation (static-plan executor).

The load-bearing property: for every event shape the splitter accepts,
``evaluate_partitioned`` is **bit-identical** to whole-program exact
evaluation.  The recombination is only sound when the components are
independent — which the plan certifies — so any drift here means either
the planner or the recombination algebra is wrong.

The walkers are *lazy* (self-loops on every node), keeping each
component's chain aperiodic so its Cesàro limit exists — the standing
assumption of Section 5.1 partitioning.  Relation-level plans split
walkers kept in different relations; tuple-level plans also split
walkers that share one relation but walk disjoint graphs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.partition import compute_partition_plan, compute_tuple_plan
from repro.core import ForeverQuery, Interpretation
from repro.core.evaluation import evaluate_forever_exact
from repro.core.evaluation.exact_inflationary import evaluate_inflationary_exact
from repro.core.evaluation.results import ExactResult, SamplingResult
from repro.core.events import (
    AndEvent,
    ExpressionEvent,
    NotEvent,
    OrEvent,
    RelationNonEmpty,
    TupleIn,
)
from repro.core.queries import InflationaryQuery
from repro.ctables import CTable, PCDatabase, var_eq
from repro.errors import EvaluationError
from repro.probability.distribution import Distribution
from repro.relational import (
    Database,
    Relation,
    difference,
    join,
    literal,
    project,
    rel,
    rename,
    repair_key,
    union,
)
from repro.runtime import (
    DegradationPolicy,
    RunContext,
    can_partition,
    evaluate_partitioned,
)
from repro.workloads import two_component_graph

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"


def walk_step(name: str):
    return rename(
        project(repair_key(join(rel(name), rel("E")), ("I",), "P"), "J"), J="I"
    )


@pytest.fixture
def two_walkers():
    """Two independent lazy walkers C and D on a shared static graph E."""
    kernel = Interpretation({"C": walk_step("C"), "D": walk_step("D")})
    db = Database(
        {
            "C": Relation(("I",), [("a",)]),
            "D": Relation(("I",), [("b",)]),
            "E": Relation(
                ("I", "J", "P"),
                [
                    ("a", "a", 1), ("a", "b", 1),
                    ("b", "b", 1), ("b", "a", 1),
                ],
            ),
        }
    )
    return kernel, db


def plan_for(kernel, db, event=None, semantics="forever"):
    plan = compute_partition_plan(
        kernel, database=db, event=event, semantics=semantics
    )
    assert plan.splittable
    return plan


EVENTS = {
    "single": TupleIn("C", ("b",)),
    "and": AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",))),
    "or": OrEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",))),
    "negated": AndEvent(TupleIn("C", ("b",)), NotEvent(TupleIn("D", ("a",)))),
    "static-and": AndEvent(TupleIn("C", ("b",)), RelationNonEmpty("E")),
    "static-or": OrEvent(TupleIn("C", ("b",)), NotEvent(RelationNonEmpty("E"))),
}


class TestForeverParity:
    @pytest.mark.parametrize("name", sorted(EVENTS), ids=sorted(EVENTS))
    def test_bit_identical_to_monolithic(self, two_walkers, name):
        kernel, db = two_walkers
        event = EVENTS[name]
        query = ForeverQuery(kernel, event)
        whole = evaluate_forever_exact(query, db)
        part = evaluate_partitioned(query, db, plan_for(kernel, db))
        assert isinstance(part, ExactResult)
        assert part.probability == whole.probability  # exact Fractions
        assert part.method == "partition-exact"

    def test_pruning_shrinks_the_state_space(self, two_walkers):
        kernel, db = two_walkers
        query = ForeverQuery(kernel, TupleIn("C", ("b",)))
        whole = evaluate_forever_exact(query, db)
        part = evaluate_partitioned(query, db, plan_for(kernel, db))
        assert part.details["pruned"]  # D's component never ran
        assert part.states_explored < whole.states_explored

    def test_known_value(self, two_walkers):
        kernel, db = two_walkers
        result = evaluate_partitioned(
            ForeverQuery(
                kernel, AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
            ),
            db,
            plan_for(kernel, db),
        )
        # Symmetric lazy walkers: each is at either node with Cesàro
        # probability 1/2; independence gives 1/4.
        assert result.probability == Fraction(1, 4)

    def test_context_reports_partition_method(self, two_walkers):
        kernel, db = two_walkers
        context = RunContext()
        evaluate_partitioned(
            ForeverQuery(kernel, TupleIn("C", ("b",))),
            db,
            plan_for(kernel, db),
            context=context,
        )
        report = context.report()
        assert report.outcome == "ok"
        assert report.method == "partition-exact"


class TestInflationaryParity:
    def test_bit_identical_to_monolithic(self, two_walkers):
        _, db = two_walkers
        # Accumulating walkers (Definition 3.4 requires a growing world).
        kernel = Interpretation(
            {
                "C": union(rel("C"), walk_step("C")),
                "D": union(rel("D"), walk_step("D")),
            }
        )
        event = AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        query = InflationaryQuery(kernel, event)
        whole = evaluate_inflationary_exact(query, db)
        part = evaluate_partitioned(
            query, db, plan_for(kernel, db, semantics="inflationary")
        )
        assert isinstance(part, ExactResult)
        assert part.probability == whole.probability


class TestParallelParity:
    def test_pool_path_bit_identical_to_serial(self, two_walkers):
        kernel, db = two_walkers
        query = ForeverQuery(
            kernel, OrEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        )
        plan = plan_for(kernel, db)
        serial = evaluate_partitioned(query, db, plan, workers=1)
        pooled = evaluate_partitioned(query, db, plan, workers=2)
        assert pooled.probability == serial.probability
        assert pooled.details["components"] == serial.details["components"]

    def test_profiled_pool_run_stitches_component_spans(self, two_walkers):
        from repro.obs import MemorySink, Tracer

        kernel, db = two_walkers
        query = ForeverQuery(
            kernel, AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        )
        plan = plan_for(kernel, db)
        serial = evaluate_partitioned(query, db, plan, workers=1)
        context = RunContext(tracer=Tracer(MemorySink()))
        pooled = evaluate_partitioned(
            query, db, plan, workers=2, context=context
        )
        # Profiling never perturbs the answer — still bit-identical.
        assert pooled.probability == serial.probability
        records = context.tracer.sink.records
        spans = {r["span"]: r for r in records if r.get("type") == "span"}
        component_spans = [
            r for r in spans.values() if r["name"] == "component-solve"
        ]
        # One worker-attributed subtree per component, stitched under
        # the dispatching partition-solve span.
        assert {r["attrs"]["component"] for r in component_spans} == {
            "c0", "c1",
        }
        dispatch = next(
            r for r in spans.values() if r["name"] == "partition-solve"
        )
        for record in component_spans:
            assert record["parent"] == dispatch["span"]
            assert "worker_id" in record["attrs"]
            assert record["attrs"]["spawn_generation"] is not None
        # The worker's inner rung phases arrive too, as children.
        inner = {
            r["name"] for r in spans.values()
            if r.get("parent") in {c["span"] for c in component_spans}
        }
        assert "chain-build" in inner

    def test_profiled_pool_run_fills_the_ledger(self, two_walkers):
        """The span that solved each component records its rung,
        states, samples and (ε, δ), as the answer's details do."""
        from repro.obs import MemorySink, Tracer

        kernel, db = two_walkers
        query = ForeverQuery(
            kernel, AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        )
        plan = plan_for(kernel, db)
        context = RunContext(tracer=Tracer(MemorySink()))
        result = evaluate_partitioned(
            query, db, plan, workers=2, context=context
        )
        solved = {
            r["attrs"]["component"]: r["attrs"]
            for r in context.tracer.sink.records
            if r.get("type") == "span" and r["name"] == "component-solve"
        }
        assert set(solved) == {"c0", "c1"}
        for component in result.details["components"]:
            attrs = solved[component["name"]]
            assert "worker_id" in attrs
            assert attrs["rung"] == component["method"] == "prop-5.4"
            assert attrs["states"] == component["states"] >= 1
            for key in ("samples", "epsilon", "delta"):
                assert attrs[key] == component[key]

    def test_serial_run_fills_the_ledger_identically(self, two_walkers):
        """Serial and pooled runs report the same components, in the
        answer and on the spans that solved them."""
        from repro.obs import MemorySink, Tracer

        kernel, db = two_walkers
        query = ForeverQuery(
            kernel, AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        )
        plan = plan_for(kernel, db)
        keys = ("rung", "states", "samples", "epsilon", "delta")

        def component_spans(workers):
            context = RunContext(tracer=Tracer(MemorySink()))
            result = evaluate_partitioned(
                query, db, plan, workers=workers, context=context
            )
            name = "partition-solve" if workers == 1 else "component-solve"
            spans = {
                r["attrs"]["component"]: {key: r["attrs"][key] for key in keys}
                for r in context.tracer.sink.records
                if r.get("type") == "span" and r["name"] == name
                and "component" in r["attrs"]
            }
            return result.details["components"], spans

        serial_components, serial_spans = component_spans(1)
        pooled_components, pooled_spans = component_spans(2)
        assert serial_components == pooled_components
        assert serial_spans == pooled_spans
        assert set(serial_spans) == {"c0", "c1"}
        for component in serial_components:
            assert serial_spans[component["name"]] == {
                "rung": component["method"],
                **{key: component[key] for key in keys[1:]},
            }


class TestRefusals:
    def test_cross_component_factor_is_refused(self, two_walkers):
        kernel, db = two_walkers
        joint = ExpressionEvent(join(rel("C"), rel("D")))
        plan = plan_for(kernel, db)
        assert not can_partition(plan, joint)
        with pytest.raises(EvaluationError, match="spans components"):
            evaluate_partitioned(ForeverQuery(kernel, joint), db, plan)

    def test_unsplittable_program_is_refused(self, two_walkers):
        _, db = two_walkers
        coupled = Interpretation(
            {"C": walk_step("C"), "D": join(rel("D"), project(rel("C"), "I"))}
        )
        plan = compute_partition_plan(coupled, database=db, semantics="forever")
        assert not plan.splittable
        event = TupleIn("C", ("b",))
        assert not can_partition(plan, event)
        with pytest.raises(EvaluationError, match="splittable"):
            evaluate_partitioned(ForeverQuery(coupled, event), db, plan)


class TestMixedRungs:
    def test_degraded_components_sum_error_bounds(self, two_walkers):
        kernel, db = two_walkers
        event = AndEvent(TupleIn("C", ("b",)), TupleIn("D", ("a",)))
        query = ForeverQuery(kernel, event)
        policy = DegradationPolicy(mode="mcmc", mcmc_epsilon=0.2, mcmc_delta=0.1)
        result = evaluate_partitioned(
            ForeverQuery(kernel, event),
            db,
            plan_for(kernel, db),
            max_states=1,  # exact rung cannot fit either component
            policy=policy,
            seed=7,
        )
        assert isinstance(result, SamplingResult)
        assert result.method == "partition-mixed"
        assert abs(result.estimate - 0.25) < 0.2
        # union bound over two degraded components
        assert result.epsilon == pytest.approx(0.4)
        assert result.delta == pytest.approx(0.2)

    def test_seeded_runs_are_reproducible(self, two_walkers):
        kernel, db = two_walkers
        event = TupleIn("C", ("b",))
        policy = DegradationPolicy(mode="mcmc", mcmc_samples=200)
        kwargs = dict(max_states=1, policy=policy, seed=11)
        plan = plan_for(kernel, db)
        first = evaluate_partitioned(ForeverQuery(kernel, event), db, plan, **kwargs)
        second = evaluate_partitioned(ForeverQuery(kernel, event), db, plan, **kwargs)
        assert first.estimate == second.estimate


class TestPlanIntegration:
    def test_analysis_plan_feeds_the_executor(self, two_walkers):
        """The plan lint/admission computes is the plan the executor runs."""
        kernel, db = two_walkers
        analysis = analyze_kernel(kernel, database=db, semantics="forever")
        assert analysis.partition is not None
        event = TupleIn("C", ("b",))
        assert can_partition(analysis.partition, event)
        result = evaluate_partitioned(
            ForeverQuery(kernel, event), db, analysis.partition
        )
        whole = evaluate_forever_exact(ForeverQuery(kernel, event), db)
        assert result.probability == whole.probability

    def test_execution_paths_compute_no_state_bounds(
        self, two_walkers, monkeypatch, capsys
    ):
        """A plan-less ``evaluate_partitioned`` and a CLI session (which
        runs no admission analysis) plan without a database: nothing on
        either path computes a state bound."""
        from repro.analysis import partition
        from repro.cli import main

        state_bounds = partition._state_bounds

        def unread(kernel, dynamic, pc_names, database):
            if database is not None:
                raise AssertionError("state bounds computed for an execution")
            return state_bounds(kernel, dynamic, pc_names, database)

        monkeypatch.setattr(partition, "_state_bounds", unread)
        kernel, db = two_walkers
        query = ForeverQuery(kernel, EVENTS["and"])
        result = evaluate_partitioned(query, db)
        assert result.probability == evaluate_forever_exact(query, db).probability

        assert main([
            "forever", str(EXAMPLES / "two_walkers.ra"),
            "--db", str(EXAMPLES / "two_walkers.db.json"),
            "--event", "C(b) and D(a)", "--partition", "auto", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "partition-exact"
        assert payload["partition"]["components"] == 2


def subtracted_choice():
    """R := project[A](S) minus project[A](repair-key[@P](S)): every
    step drops one of S's five values, so R takes six values, the empty
    start included."""
    kernel = Interpretation({
        "R": difference(
            project(rel("S"), "A"), project(repair_key(rel("S"), (), "P"), "A")
        )
    })
    db = Database({
        "S": Relation(("A", "P"), [(f"a{i}", 1) for i in range(5)]),
        "R": Relation(("A",), []),
    })
    return kernel, db


def merged_weights():
    """W := repair-key[@P](project[A,P](repair-key[K@Q](E))): the outer
    repair-key merges rows equal but for the weight (footnote 1), so W
    holds (x, s) for any sum s of the weights 1, 2, 4 that chose x."""
    inner = project(repair_key(rel("E"), ("K",), "Q"), "A", "P")
    kernel = Interpretation({"W": repair_key(inner, (), "P")})
    db = Database({
        "E": Relation(
            ("K", "A", "P", "Q"),
            [
                (k, x, w, 1)
                for k, w in (("k1", 1), ("k2", 2), ("k3", 4))
                for x in ("a", "b")
            ],
        ),
        "W": Relation(("A", "P"), []),
    })
    return kernel, db


BOUND_PROBES = {"subtracted-choice": subtracted_choice, "merged-weights": merged_weights}


def bound_programs():
    """The probes and the kernel suites' programs, as (kernel, db) builders."""
    from tests.kernel.cases import ALL

    def kernel_of(build):
        query, db = build()
        return query.kernel, db

    programs = dict(BOUND_PROBES)
    for name, build in ALL.items():
        programs[name] = lambda build=build: kernel_of(build)
    return programs


class TestStateBounds:
    """A component's state bound covers the values its members take
    together along the reachable chain."""

    @pytest.mark.parametrize("name", sorted(bound_programs()))
    def test_bound_covers_the_chain(self, name):
        from repro.core.chain_builder import build_state_chain

        kernel, db = bound_programs()[name]()
        plan = compute_partition_plan(kernel, database=db)
        states = build_state_chain(kernel, db).states
        for component in plan.components:
            if component.state_bound is None:
                continue
            values = {tuple(state[m] for m in component.members) for state in states}
            assert len(values) <= component.state_bound, (name, component.name)

    def test_probes_are_bounded(self):
        """The probes' bounds are their chains' sizes, not vacuous."""
        for build, states in ((subtracted_choice, 6), (merged_weights, 15)):
            kernel, db = build()
            plan = compute_partition_plan(kernel, database=db)
            assert plan.bounded
            assert [c.state_bound for c in plan.components] == [states]


# -- tuple-level plans --------------------------------------------------------


def one_relation_walkers(components=2, component_size=3):
    """Independent lazy walkers in one relation C, one per disjoint cycle:
    the relation-level planner sees a single component here."""
    graph = two_component_graph(component_size, components)
    db = Database(
        {
            "C": Relation(("I",), [(f"g{c}_n0",) for c in range(components)]),
            "E": graph.edge_relation(),
        }
    )
    return Interpretation({"C": walk_step("C")}), db


def bernoulli(p):
    return Distribution({0: 1 - p, 1: p})


def pc_kernel(shared=False):
    """A(t) under x ~ Bernoulli(1/3) and A(u) under y ~ Bernoulli(1/4)
    (or under x too, when ``shared``), redrawn every step."""
    table = CTable(
        ("X",),
        [(("t",), var_eq("x", 1)), (("u",), var_eq("x" if shared else "y", 1))],
    )
    variables = {"x": bernoulli(Fraction(1, 3)), "y": bernoulli(Fraction(1, 4))}
    if shared:
        del variables["y"]
    kernel = Interpretation({}, pc_tables=PCDatabase({"A": table}, variables))
    return kernel, Database({"A": Relation(("X",), [])})


class TestTuplePlan:
    def test_disjoint_components_split(self):
        kernel, db = one_relation_walkers()
        assert not compute_partition_plan(kernel, database=db).splittable
        plan = compute_tuple_plan(kernel, db)
        assert plan.level == "tuple"
        assert len(plan.components) == 2
        # each class holds exactly one graph component's tuples, and the
        # order (hence the per-component seeds) is canonical
        for index, component in enumerate(plan.components):
            prefixes = {row[0].split("_")[0] for _name, row in component.tuples}
            assert prefixes == {f"g{index}"}

    def test_single_component_single_class(self, walk_db):
        kernel = Interpretation({"C": walk_step("C")})
        assert len(compute_tuple_plan(kernel, walk_db).components) == 1

    def test_derived_tuples_have_one_owner(self):
        kernel, db = one_relation_walkers()
        plan = compute_tuple_plan(kernel, db)
        assert plan.owners("C", ("g0_n2",)) == {"c0"}
        assert plan.owners("C", ("g1_n2",)) == {"c1"}
        assert plan.owners("C", ("nowhere",)) == set()
        assert plan.owners("C") == {"c0", "c1"}

    def test_pc_variables_decide_the_classes(self):
        kernel, db = pc_kernel()
        assert [c.tuples for c in compute_tuple_plan(kernel, db).components] == [
            (("A", ("t",)),), (("A", ("u",)),),
        ]
        kernel, db = pc_kernel(shared=True)
        assert len(compute_tuple_plan(kernel, db).components) == 1

    def test_layout_and_seeds_do_not_depend_on_hash_seed(self):
        """Component order, names and per-component seeds come from the
        canonical row order, not from set iteration: two interpreters
        with different ``PYTHONHASHSEED`` agree on the plan and on a
        seeded sampled answer."""
        script = (
            "from tests.runtime.test_partition_exec import one_relation_walkers\n"
            "from repro.analysis.partition import compute_tuple_plan\n"
            "from repro.core import ForeverQuery, TupleIn\n"
            "from repro.runtime import DegradationPolicy, evaluate_partitioned\n"
            "kernel, db = one_relation_walkers(components=3, component_size=3)\n"
            "plan = compute_tuple_plan(kernel, db)\n"
            "print([(c.name, c.tuples) for c in plan.components])\n"
            "event = TupleIn('C', ('g0_n1',)) & TupleIn('C', ('g2_n1',))\n"
            "policy = DegradationPolicy(mode='mcmc', mcmc_samples=60, mcmc_burn_in=4)\n"
            "result = evaluate_partitioned(ForeverQuery(kernel, event), db,\n"
            "                              max_states=1, policy=policy, seed=5)\n"
            "print(result.estimate, result.details['components'])\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        outputs = []
        for hash_seed in ("1", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", root, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=env, cwd=root, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "g0_n0" in outputs[0].splitlines()[0]

    def test_discovery_round_cap(self, monkeypatch):
        from repro.analysis import partition

        monkeypatch.setattr(partition, "MAX_DISCOVERY_ROUNDS", 1)
        kernel, db = one_relation_walkers()
        with pytest.raises(EvaluationError, match="fixpoint"):
            compute_tuple_plan(kernel, db)


class TestTupleLevelExecution:
    def test_single_class_is_refused(self, walk_db):
        kernel = Interpretation({"C": walk_step("C")})
        query = ForeverQuery(kernel, TupleIn("C", ("b",)))
        with pytest.raises(EvaluationError, match="splittable"):
            evaluate_partitioned(query, walk_db)

    def test_agrees_with_direct_evaluation(self):
        kernel, db = one_relation_walkers(components=2, component_size=3)
        query = ForeverQuery(kernel, TupleIn("C", ("g1_n1",)))
        direct = evaluate_forever_exact(query, db)
        partitioned = evaluate_partitioned(query, db)
        assert partitioned.probability == direct.probability
        details = partitioned.details
        assert len(details["components"]) + len(details["pruned"]) == 2

    def test_state_space_reduction(self):
        kernel, db = one_relation_walkers(components=2, component_size=4)
        query = ForeverQuery(
            kernel, AndEvent(TupleIn("C", ("g0_n2",)), TupleIn("C", ("g1_n1",)))
        )
        direct = evaluate_forever_exact(query, db)
        partitioned = evaluate_partitioned(query, db)
        assert partitioned.probability == direct.probability
        # joint: 4*4 positions; partitioned: 4+4
        assert direct.states_explored == 16
        assert partitioned.states_explored == 8

    def test_three_components(self):
        kernel, db = one_relation_walkers(components=3, component_size=2)
        query = ForeverQuery(kernel, TupleIn("C", ("g2_n1",)))
        direct = evaluate_forever_exact(query, db)
        partitioned = evaluate_partitioned(query, db)
        assert partitioned.probability == direct.probability

    def test_method_label(self):
        kernel, db = one_relation_walkers()
        query = ForeverQuery(kernel, TupleIn("C", ("g0_n1",)))
        assert evaluate_partitioned(query, db).method == "partition-exact"

    def test_inflationary_queries_keep_relation_level(self):
        _, db = one_relation_walkers()
        kernel = Interpretation({"C": union(rel("C"), walk_step("C"))})
        query = InflationaryQuery(kernel, TupleIn("C", ("g0_n1",)))
        with pytest.raises(EvaluationError, match="splittable"):
            evaluate_partitioned(query, db)


def literal_coins(*faces):
    """C := one fair coin per pair of faces, each over literal rows:
    every step puts exactly one face of each coin in C."""
    coins = [
        project(repair_key(literal(("A", "P"), [(f, 1) for f in pair]), (), "P"), "A")
        for pair in faces
    ]
    query = coins[0]
    for coin in coins[1:]:
        query = union(query, coin)
    return Interpretation({"C": query}), Database({"C": Relation(("A",), [])})


WALKER_EVENTS = {
    "not": (NotEvent(TupleIn("C", ("g0_n1",))), Fraction(2, 3)),
    "and": (
        AndEvent(TupleIn("C", ("g0_n1",)), TupleIn("C", ("g1_n1",))),
        Fraction(1, 9),
    ),
    "or": (
        OrEvent(TupleIn("C", ("g0_n1",)), TupleIn("C", ("g1_n1",))),
        Fraction(5, 9),
    ),
}

COIN_EVENTS = {
    "x-and-y": (AndEvent(TupleIn("C", ("x",)), TupleIn("C", ("y",))), Fraction(0)),
    "x-or-y": (OrEvent(TupleIn("C", ("x",)), TupleIn("C", ("y",))), Fraction(1)),
    "x-and-u": (AndEvent(TupleIn("C", ("x",)), TupleIn("C", ("u",))), Fraction(1, 4)),
}

PC_EVENTS = {
    "and": (AndEvent(TupleIn("A", ("t",)), TupleIn("A", ("u",))), Fraction(1, 12)),
    "not": (NotEvent(TupleIn("A", ("t",))), Fraction(2, 3)),
}


class TestTupleLevelCompoundEvents:
    """Each atom goes to the class that derives its tuple, so compound
    events split and recombine exactly as across relation-level
    components."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(WALKER_EVENTS))
    def test_walkers_in_one_relation(self, name, workers):
        kernel, db = one_relation_walkers()
        event, expected = WALKER_EVENTS[name]
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == expected
        result = evaluate_partitioned(query, db, workers=workers)
        assert isinstance(result, ExactResult)
        assert result.probability == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(PC_EVENTS))
    def test_pc_table_entries(self, name, workers):
        kernel, db = pc_kernel()
        event, expected = PC_EVENTS[name]
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == expected
        result = evaluate_partitioned(query, db, workers=workers)
        assert isinstance(result, ExactResult)
        assert result.probability == expected

    @pytest.mark.parametrize("name", ["x-and-y", "x-or-y"])
    def test_one_literal_coin_is_refused(self, name):
        """No tuple anchors the faces of a coin over literal rows, yet
        they exclude each other: one class, so the event is refused
        rather than recombined as if the faces were independent."""
        kernel, db = literal_coins(("x", "y"))
        event, expected = COIN_EVENTS[name]
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == expected
        with pytest.raises(EvaluationError, match="splittable"):
            evaluate_partitioned(query, db)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(COIN_EVENTS))
    def test_literal_coins_split_by_coin(self, name, workers):
        kernel, db = literal_coins(("x", "y"), ("u", "v"))
        assert len(compute_tuple_plan(kernel, db).components) == 2
        event, expected = COIN_EVENTS[name]
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == expected
        result = evaluate_partitioned(query, db, workers=workers)
        assert isinstance(result, ExactResult)
        assert result.probability == expected

    def test_pc_relation_row_that_is_no_entry(self):
        """A(s) starts in the pc relation but is no entry of its table:
        the first step drops it for good.  Its class keeps the table,
        empty, so the component drops it too."""
        kernel, _ = pc_kernel()
        db = Database({"A": Relation(("X",), [("s",)])})
        assert len(compute_tuple_plan(kernel, db).components) == 3
        event = OrEvent(TupleIn("A", ("s",)), TupleIn("A", ("t",)))
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == Fraction(1, 3)
        assert evaluate_partitioned(query, db).probability == Fraction(1, 3)

    def test_rows_merged_by_weight_are_owned(self):
        """repair-key merges rows equal but for the weight (footnote 1
        of the paper), so C can hold ("a", "b", 3), a row no state of E
        holds: it belongs to the "a" group's class, not to the static
        factors."""
        edges = [
            ("a", "b", 1), ("a", "b", 2), ("a", "c", 1), ("d", "e", 1), ("d", "f", 1),
        ]
        db = Database(
            {
                "C": Relation(("I", "J", "P"), []),
                "E": Relation(("I", "J", "P"), edges),
            }
        )
        kernel = Interpretation({"C": repair_key(rel("E"), ("I",), "P")})
        event = AndEvent(TupleIn("C", ("a", "b", 3)), TupleIn("C", ("d", "e", 1)))
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == Fraction(3, 8)
        result = evaluate_partitioned(query, db)
        assert len(result.details["components"]) == 2
        assert result.probability == Fraction(3, 8)

    @pytest.mark.parametrize(
        "event",
        [
            NotEvent(AndEvent(TupleIn("C", ("g0_n1",)), TupleIn("C", ("g1_n1",)))),
            RelationNonEmpty("C"),
        ],
        ids=["joint-negation", "relation-filled-by-two-classes"],
    )
    def test_event_it_cannot_split_is_refused(self, event):
        kernel, db = one_relation_walkers()
        with pytest.raises(EvaluationError, match="spans components"):
            evaluate_partitioned(ForeverQuery(kernel, event), db)

    def test_subtracted_row_that_can_vanish(self):
        """D := A − B where B holds A's row at the start but not always:
        D's row is derivable and belongs to B's walker, so the answer is
        not the static 0 an inflationary read of the difference gives."""
        graph = two_component_graph(2, 2)
        db = Database(
            {
                "A": Relation(("I",), [("g0_n0",)]),
                "B": Relation(("I",), [("g0_n0",), ("g1_n0",)]),
                "D": Relation(("I",), []),
                "E": graph.edge_relation(),
            }
        )
        kernel = Interpretation(
            {"B": walk_step("B"), "D": difference(rel("A"), rel("B"))}
        )
        event = AndEvent(TupleIn("D", ("g0_n0",)), TupleIn("B", ("g1_n1",)))
        query = ForeverQuery(kernel, event)
        assert evaluate_forever_exact(query, db).probability == Fraction(1, 4)
        result = evaluate_partitioned(query, db)
        assert len(result.details["components"]) == 2
        assert result.probability == Fraction(1, 4)

    def test_tuple_no_class_derives_is_static(self):
        kernel, db = one_relation_walkers()
        event = OrEvent(TupleIn("C", ("g0_n1",)), TupleIn("C", ("nowhere",)))
        query = ForeverQuery(kernel, event)
        result = evaluate_partitioned(query, db)
        assert result.probability == evaluate_forever_exact(query, db).probability
        assert result.details["static_factor"] == "0"
