"""Per-operator coupling rules of the Section 5.1 tuple-level discovery.

Each test runs a one-query kernel ``Q := <expression>`` through
:func:`~repro.analysis.partition.compute_tuple_plan` and checks which
base tuples end up in one class, i.e. which provenance the operator
propagates.
"""

import pytest

from repro.analysis.partition import _UnionFind, compute_tuple_plan
from repro.core import Interpretation
from repro.probability.distribution import as_fraction
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
from repro.relational.algebra import (
    Difference,
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
from repro.workloads import layered_dag, reachability_query, two_component_graph


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


# -- differential: the semi-naive pass against a full re-evaluation ---------


class ReferenceDiscovery:
    """Tuple-level discovery the slow way, kept as the oracle of the
    semi-naive pass: every round evaluates every query on the whole
    inflationary state and couples every derivation again."""

    def __init__(self, kernel, database):
        self.tuples = []
        self.choices = {}
        self.uf = _UnionFind(key=self.order)
        self.columns = database.schema()
        self.rows = {name: {} for name in database.names()}
        for name in database.names():
            for row in database[name]:
                self.intern(name, row)
        if kernel.pc_tables is not None:
            first_entry = {}
            for name in sorted(kernel.pc_tables.tables):
                for row, cond in kernel.pc_tables.tables[name].entries:
                    tid = self.intern(name, row)
                    for variable in sorted(cond.variables()):
                        self.uf.union(first_entry.setdefault(variable, tid), tid)
        self.base = len(self.tuples)
        queries = sorted(kernel.queries.items())
        while True:
            derived = [(name, self.lineage(query)[1]) for name, query in queries]
            known = len(self.tuples)
            for name, rows in derived:
                for row, anchor in rows.items():
                    tid = self.intern(name, row)
                    if anchor is not None:
                        self.uf.union(tid, anchor)
            if len(self.tuples) == known:
                break

    def intern(self, name, row):
        ids = self.rows[name]
        if row not in ids:
            ids[row] = len(self.tuples)
            self.tuples.append((name, row))
            self.uf.add(ids[row])
        return ids[row]

    def choice(self, site, group):
        if (site, group) not in self.choices:
            self.choices[site, group] = -1 - len(self.choices)
            self.uf.add(self.choices[site, group])
        return self.choices[site, group]

    def order(self, tid):
        if tid < 0:
            return (1, tid)
        name, row = self.tuples[tid]
        return (0, name, row_key(row))

    def link(self, left, right):
        if left is None:
            return right
        if right is not None:
            self.uf.union(left, right)
        return left

    def lineage(self, expression):
        link = self.link
        if isinstance(expression, RelationRef):
            return self.columns[expression.name], dict(self.rows[expression.name])
        if isinstance(expression, Literal):
            return expression.relation.columns, dict.fromkeys(expression.relation)
        if isinstance(expression, Select):
            columns, rows = self.lineage(expression.child)
            return columns, {
                row: anchor
                for row, anchor in rows.items()
                if expression.predicate.evaluate(dict(zip(columns, row)))
            }
        if isinstance(expression, (Project, Rename, ExtendedProject)):
            columns, rows = self.lineage(expression.child)
            if isinstance(expression, Rename):
                out_columns = tuple(expression.mapping.get(c, c) for c in columns)
                image = lambda row: row  # noqa: E731
            elif isinstance(expression, Project):
                out_columns = expression.columns
                indices = [columns.index(c) for c in expression.columns]
                image = lambda row: tuple(row[i] for i in indices)  # noqa: E731
            else:
                out_columns = tuple(name for name, _source in expression.outputs)
                outputs = [source for _name, source in expression.outputs]
                image = lambda row: tuple(  # noqa: E731
                    row[columns.index(value)] if kind == "col" else value
                    for kind, value in outputs
                )
            out = {}
            for row, anchor in rows.items():
                out[image(row)] = link(out.get(image(row)), anchor)
            return out_columns, out
        if isinstance(expression, Union):
            columns, out = self.lineage(expression.left)
            for row, anchor in self.lineage(expression.right)[1].items():
                out[row] = link(out.get(row), anchor)
            return columns, out
        if isinstance(expression, Difference):
            columns, left = self.lineage(expression.left)
            right = self.lineage(expression.right)[1]
            return columns, {
                row: link(anchor, right.get(row)) for row, anchor in left.items()
            }
        if isinstance(expression, (Product, NaturalJoin)):
            left_columns, left = self.lineage(expression.left)
            right_columns, right = self.lineage(expression.right)
            shared = (
                [c for c in left_columns if c in right_columns]
                if isinstance(expression, NaturalJoin)
                else []
            )
            kept = [i for i, c in enumerate(right_columns) if c not in left_columns]
            out = {}
            for row, anchor in left.items():
                for other_row, other in right.items():
                    if all(
                        row[left_columns.index(c)] == other_row[right_columns.index(c)]
                        for c in shared
                    ):
                        out[row + tuple(other_row[i] for i in kept)] = link(anchor, other)
            return left_columns + tuple(right_columns[i] for i in kept), out
        assert isinstance(expression, RepairKey), expression
        columns, rows = self.lineage(expression.child)
        key = [columns.index(c) for c in expression.key]
        groups = {}
        for row, anchor in rows.items():
            group = tuple(row[i] for i in key)
            groups[group] = link(groups.get(group), anchor)
        for group, anchor in groups.items():
            if anchor is None:
                groups[group] = self.choice(expression, group)
        out = {row: groups[tuple(row[i] for i in key)] for row in rows}
        if expression.weight is not None:
            weight = columns.index(expression.weight)
            merged = {}
            for row in out:
                merged.setdefault(row[:weight] + row[weight + 1 :], []).append(row)
            for rest, equal in merged.items():
                if len(equal) < 2:
                    continue
                sums = set()
                for row in equal:
                    value = as_fraction(row[weight])
                    sums |= {value} | {total + value for total in sums}
                for total in sums:
                    out.setdefault(rest[:weight] + (total,) + rest[weight:], out[equal[0]])
        return columns, out


def reference_plan(kernel, db):
    """Components as (name, members, base tuples), and the owner map,
    laid out as :func:`compute_tuple_plan` lays them out."""
    run = ReferenceDiscovery(kernel, db)
    classes = [[tid for tid in group if tid >= 0] for group in run.uf.groups()]
    components, owner = [], {}
    for index, members in enumerate(group for group in classes if group):
        tuples = [run.tuples[tid] for tid in members]
        owner.update(dict.fromkeys(tuples, f"c{index}"))
        components.append((
            f"c{index}",
            tuple(sorted({relation for relation, _row in tuples})),
            tuple(held for tid, held in zip(members, tuples) if tid < run.base),
        ))
    return components, owner


def weight_merge():
    edges = [("a", "b", 1), ("a", "b", 2), ("a", "c", 1), ("d", "e", 1), ("d", "f", 1)]
    db = Database(
        {"C": Relation(("I", "J", "P"), []), "E": Relation(("I", "J", "P"), edges)}
    )
    return Interpretation({"C": repair_key(rel("E"), ("I",), "P")}), db


def late_group_member():
    """Walkers C and D on disjoint cycles; X draws from C's start and
    D's second node, which reaches the keyless group two rounds later:
    the group's anchor must last across rounds to couple the walkers."""
    from tests.runtime.test_partition_exec import walk_step

    graph = two_component_graph(3, 2)
    met = union(
        select(rel("C"), ValueEq("I", "g0_n0")), select(rel("D"), ValueEq("I", "g1_n1"))
    )
    kernel = Interpretation(
        {"C": walk_step("C"), "D": walk_step("D"), "X": repair_key(met, ())}
    )
    db = Database(
        {
            "C": Relation(("I",), [("g0_n0",)]),
            "D": Relation(("I",), [("g1_n0",)]),
            "E": graph.edge_relation(),
            "X": Relation(("I",), []),
        }
    )
    return kernel, db


def differential_corpus():
    """(kernel, db) builders: the kernel suites' programs, the A1
    shapes, the reach DAG, the partition suite's pc-table, coin and
    weight-merge cases, and a repair-key group met over several rounds."""
    from tests.kernel.cases import ALL
    from tests.runtime.test_partition_exec import (
        literal_coins,
        one_relation_walkers,
        pc_kernel,
    )

    def kernel_of(build):
        query, db = build()
        return query.kernel, db

    corpus = {name: lambda build=build: kernel_of(build) for name, build in ALL.items()}
    for components, size in ((2, 3), (2, 4), (3, 3), (4, 5)):
        corpus[f"a1-{components}x{size}"] = (
            lambda c=components, s=size: one_relation_walkers(c, s)
        )
    corpus["reach-dag-3x3"] = lambda: kernel_of(
        lambda: reachability_query(layered_dag(3, 3, rng=1), "v0_0", "sink")
    )
    corpus["pc"] = pc_kernel
    corpus["pc-shared"] = lambda: pc_kernel(shared=True)
    corpus["pc-row-no-entry"] = lambda: (
        pc_kernel()[0], Database({"A": Relation(("X",), [("s",)])})
    )
    corpus["one-coin"] = lambda: literal_coins(("x", "y"))
    corpus["two-coins"] = lambda: literal_coins(("x", "y"), ("u", "v"))
    corpus["weight-merge"] = weight_merge
    corpus["late-group-member"] = late_group_member
    return corpus


@pytest.mark.parametrize("name", sorted(differential_corpus()))
def test_semi_naive_pass_matches_full_reevaluation(name):
    kernel, db = differential_corpus()[name]()
    plan = compute_tuple_plan(kernel, db)
    components, owner = reference_plan(kernel, db)
    assert [(c.name, c.members, c.tuples) for c in plan.components] == components
    assert plan.owner == owner
