"""Per-operator coupling rules of the Section 5.1 tuple-level discovery.

Each test runs a one-query kernel ``Q := <expression>`` through
:func:`~repro.analysis.partition.compute_tuple_plan` and checks which
base tuples end up in one class, i.e. which provenance the operator
propagates.
"""

from repro.analysis.partition import compute_tuple_plan
from repro.core import Interpretation
from repro.relational import (
    Database,
    Relation,
    ValueEq,
    difference,
    extended_project,
    join,
    literal,
    product,
    project,
    rel,
    rename,
    repair_key,
    select,
    union,
)


DB = Database(
    {
        "R": Relation(("A", "B"), [(1, "x"), (2, "y")]),
        "S": Relation(("B", "C"), [("x", 10)]),
    }
)


def plan_of(expression, columns, db=DB):
    """The tuple-level plan of ``Q := expression`` over ``db``."""
    kernel = Interpretation({"Q": expression})
    return compute_tuple_plan(kernel, db.with_relation("Q", Relation.empty(columns)))


def classes(plan):
    """The base-tuple classes of ``plan``."""
    return {frozenset(c.tuples) for c in plan.components if c.tuples}


R1, R2, S1 = ("R", (1, "x")), ("R", (2, "y")), ("S", ("x", 10))


class TestLeaves:
    def test_initial_singletons(self):
        # The identity kernel derives nothing new: every base tuple is
        # its own class.
        plan = compute_tuple_plan(Interpretation({"R": rel("R")}), DB)
        assert classes(plan) == {frozenset({R1}), frozenset({R2}), frozenset({S1})}

    def test_relation_ref(self):
        plan = plan_of(rel("R"), ("A", "B"))
        assert plan.owner[("Q", (1, "x"))] == plan.owner[R1]
        assert plan.owner[R1] != plan.owner[R2]

    def test_literal_has_empty_provenance(self):
        plan = plan_of(literal(("A",), [(5,)]), ("A",))
        owner = plan.owner[("Q", (5,))]
        # a class of its own that owns no base tuple
        assert [c.tuples for c in plan.components if c.name == owner] == [()]
        assert classes(plan) == {frozenset({R1}), frozenset({R2}), frozenset({S1})}


class TestOperators:
    def test_select_preserves(self):
        plan = plan_of(select(rel("R"), ValueEq("B", "x")), ("A", "B"))
        assert plan.owner[("Q", (1, "x"))] == plan.owner[R1]
        assert ("Q", (2, "y")) not in plan.owner
        assert frozenset({R1}) in classes(plan)

    def test_project_unions_collisions(self):
        db = Database({"R": Relation(("A", "B"), [(1, "x"), (2, "x")])})
        plan = plan_of(project(rel("R"), "B"), ("B",), db)
        assert classes(plan) == {frozenset({("R", (1, "x")), ("R", (2, "x"))})}

    def test_join_unions_both_sides(self):
        plan = plan_of(join(rel("R"), rel("S")), ("A", "B", "C"))
        assert frozenset({R1, S1}) in classes(plan)
        assert plan.owner[("Q", (1, "x", 10))] == plan.owner[S1]
        assert plan.owner[R2] != plan.owner[S1]

    def test_product_unions_both_sides(self):
        left = project(rel("R"), "A")
        right = project(rel("S"), "C")
        plan = plan_of(product(left, right), ("A", "C"))
        assert plan.owner[("Q", (1, 10))] == plan.owner[R1] == plan.owner[S1]

    def test_union_merges(self):
        expr = union(project(rel("R"), "B"), project(rel("S"), "B"))
        plan = plan_of(expr, ("B",))
        assert plan.owner[("Q", ("x",))] == plan.owner[R1] == plan.owner[S1]
        assert plan.owner[R2] != plan.owner[S1]

    def test_difference_adds_negative_dependencies(self):
        expr = difference(project(rel("R"), "B"), project(rel("S"), "B"))
        plan = plan_of(expr, ("B",))
        # whether x survives depends on its own source AND on the
        # subtracted side's x; y survives whatever the subtracted side
        # holds (it never holds y)
        assert plan.owner[("Q", ("x",))] == plan.owner[R1] == plan.owner[S1]
        assert plan.owner[("Q", ("y",))] == plan.owner[R2] != plan.owner[S1]

    def test_rename_and_extended_project(self):
        plan = plan_of(rename(rel("R"), A="X"), ("X", "B"))
        assert plan.owner[("Q", (1, "x"))] == plan.owner[R1] != plan.owner[R2]
        expr2 = extended_project(rel("R"), [("Z", ("col", "A"))])
        plan2 = plan_of(expr2, ("Z",))
        assert plan2.owner[("Q", (1,))] == plan2.owner[R1] != plan2.owner[R2]


class TestRepairKey:
    def test_keeps_all_rows(self):
        db = Database(
            {"E": Relation(("I", "J", "P"), [("a", "b", 1), ("a", "c", 1)])}
        )
        plan = plan_of(repair_key(rel("E"), ("I",), "P"), ("I", "J", "P"), db)
        assert ("Q", ("a", "b", 1)) in plan.owner
        assert ("Q", ("a", "c", 1)) in plan.owner

    def test_group_members_coupled(self):
        db = Database(
            {
                "E": Relation(
                    ("I", "J", "P"),
                    [("a", "b", 1), ("a", "c", 1), ("z", "z", 1)],
                )
            }
        )
        plan = plan_of(repair_key(rel("E"), ("I",), "P"), ("I", "J", "P"), db)
        # same group ("a") -> one class; a different group stays separate
        assert classes(plan) == {
            frozenset({("E", ("a", "b", 1)), ("E", ("a", "c", 1))}),
            frozenset({("E", ("z", "z", 1))}),
        }

    def test_literal_group_gets_a_node_of_its_own(self):
        # No tuple anchors rows from literals, yet one coin's faces
        # exclude each other: they share a class; another coin does not.
        coin = repair_key(literal(("A", "P"), [(1, 1), (2, 1)]), (), "P")
        other = repair_key(literal(("A", "P"), [(3, 1), (4, 1)]), (), "P")
        plan = plan_of(union(project(coin, "A"), project(other, "A")), ("A",))
        assert plan.owner[("Q", (1,))] == plan.owner[("Q", (2,))]
        assert plan.owner[("Q", (3,))] == plan.owner[("Q", (4,))]
        assert plan.owner[("Q", (1,))] != plan.owner[("Q", (3,))]
        # the group's own node is no tuple: base classes are unchanged
        assert classes(plan) == {frozenset({R1}), frozenset({R2}), frozenset({S1})}

    def test_rows_equal_but_for_the_weight_merge(self):
        # footnote 1: a state holding both ("a", "b", ·) rows merges them
        # into ("a", "b", 3), which belongs to the group's class
        db = Database(
            {"E": Relation(("I", "J", "P"), [("a", "b", 1), ("a", "b", 2)])}
        )
        plan = plan_of(repair_key(rel("E"), ("I",), "P"), ("I", "J", "P"), db)
        assert plan.owner[("Q", ("a", "b", 3))] == plan.owner[("E", ("a", "b", 1))]
        assert ("Q", ("a", "b", 1)) in plan.owner
