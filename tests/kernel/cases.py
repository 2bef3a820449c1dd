"""The programs the kernel suites run on both kernels.

``CASES`` is the workloads corpus; ``EXTRA`` adds hand-built programs
for the corners of the compiled plan: footnote-1 merging into a new
symbol, the rank path, empty repair-key input, keyless and two-column
keys, combined repair-keys, ``ExtendedProject`` constants and static
operands.  Each entry builds a fresh ``(query, database)`` pair.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core import ForeverQuery, Interpretation, TupleIn
from repro.relational import (
    Database,
    Relation,
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
from repro.relational.predicates import ValueNe
from repro.workloads import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    layered_dag,
    pagerank_query,
    random_walk_query,
    reachability_query,
    star_graph,
)

CASES = {
    "walk-cycle": lambda: random_walk_query(cycle_graph(8), "n0", "n3"),
    "walk-complete": lambda: random_walk_query(complete_graph(5), "n0", "n2"),
    "walk-barbell": lambda: random_walk_query(barbell_graph(4), "l0", "r2"),
    "walk-star": lambda: random_walk_query(star_graph(6), "hub", "leaf2"),
    "walk-grid": lambda: random_walk_query(grid_graph(3, 3), "g0_0", "g2_2"),
    "walk-er": lambda: random_walk_query(
        erdos_renyi(8, 0.5, rng=random.Random(13)), "n0", "n5"
    ),
    "pagerank": lambda: pagerank_query(
        complete_graph(5), Fraction(1, 5), "n0", "n2"
    ),
    "pagerank-cycle": lambda: pagerank_query(
        cycle_graph(6), Fraction(1, 4), "n0", "n3"
    ),
    "reach-dag": lambda: reachability_query(
        layered_dag(3, 3, rng=random.Random(7)), "v0_0", "sink"
    ),
}


def _step(current: str = "C", key=("I",), weight: str | None = "P"):
    return rename(project(repair_key(join(rel(current), rel("E")), key, weight), "J"), J="I")


def _graph(edges) -> Relation:
    return Relation(("I", "J", "P"), edges)


def _merge_new_symbol():
    # The weight column sits between the key and J, and (a, b) appears
    # with two weights: footnote 1 sums them to 10/21, a value interned
    # mid-run, so canonical order must go through the rank permutation.
    edges = Relation(
        ("P", "I", "J"),
        [
            (Fraction(1, 3), "a", "b"),
            (Fraction(1, 7), "a", "b"),
            (Fraction(2, 5), "a", "c"),
            (1, "b", "a"),
            (1, "b", "c"),
            (1, "c", "a"),
        ],
    )
    db = Database({"C": Relation(("I",), [("a",)]), "E": edges})
    return ForeverQuery(Interpretation({"C": _step()}), TupleIn("C", ("c",))), db


def _empty_repair():
    # From the sink, repair-key sees no row: the next C is empty, and
    # stays empty.
    edges = _graph([("a", "b", 1), ("a", "sink", 1), ("b", "a", 2), ("b", "sink", 1)])
    db = Database({"C": Relation(("I",), [("a",)]), "E": edges})
    return ForeverQuery(Interpretation({"C": _step()}), TupleIn("C", ("b",))), db


def _keyless():
    edges = _graph([("a", "b", 1), ("a", "c", 3), ("b", "c", 1), ("c", "a", 2), ("c", "b", 1)])
    db = Database({"C": Relation(("I",), [("a",)]), "E": edges})
    kernel = Interpretation({"C": _step(key=())})
    return ForeverQuery(kernel, TupleIn("C", ("a",))), db


def _two_column_key():
    # Two walkers in one relation: W holds (walker, node) rows, the key
    # is (K, I), so each state has one group per walker and its worlds
    # are the product of both walkers' choices.
    moves = Relation(
        ("K", "I", "J", "P"),
        [
            (walker, node, succ, weight)
            for walker in ("x", "y")
            for node, succ, weight in [
                ("a", "a", 1), ("a", "b", 2), ("b", "c", 1), ("b", "a", 1),
                ("c", "a", 1),
            ]
        ],
    )
    step = rename(
        project(repair_key(join(rel("W"), rel("M")), ("K", "I"), "P"), "K", "J"),
        J="I",
    )
    db = Database({"W": Relation(("K", "I"), [("x", "a"), ("y", "b")]), "M": moves})
    return ForeverQuery(Interpretation({"W": step}), TupleIn("W", ("x", "c"))), db


def _combined_repairs():
    # Independent repair-keys met by union, difference, join and
    # product; three queries, so rows multiply across names.
    edges = _graph([("a", "a", 1), ("a", "b", 2), ("b", "a", 1)])

    def choice():
        return repair_key(join(rel("C"), rel("E")), ("I",), "P")

    def node():
        return rename(project(choice(), "J"), J="I")

    queries = {
        "C": node(),
        "X": union(difference(node(), node()), project(join(choice(), choice()), "I")),
        "D": product(node(), rename(node(), I="K")),
    }
    db = Database(
        {
            "C": Relation(("I",), [("a",)]),
            "E": edges,
            "X": Relation(("I",), []),
            "D": Relation(("I", "K"), []),
        }
    )
    return ForeverQuery(Interpretation(queries), TupleIn("X", ("b",))), db


def _extended_constant():
    edges = _graph([("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "a", 1)])
    tagged = extended_project(
        _step(), [("I", ("col", "I")), ("T", ("const", "visited")), ("S", ("const", 7))]
    )
    db = Database(
        {
            "C": Relation(("I",), [("a",)]),
            "E": edges,
            "V": Relation(("I", "T", "S"), []),
        }
    )
    kernel = Interpretation({"C": _step(), "V": tagged})
    return ForeverQuery(kernel, TupleIn("V", ("c", "visited", 7))), db


def _static_operands():
    # Relations no query writes on either side of a binary operator, a
    # selection over per-state rows, and E on the left of the join.
    edges = _graph([("a", "b", 1), ("a", "c", 1), ("b", "c", 1), ("b", "d", 1), ("c", "a", 1), ("d", "a", 1)])
    step = rename(
        project(
            repair_key(select(join(rel("E"), rel("C")), ValueNe("J", "d")), ("I",), "P"),
            "J",
        ),
        J="I",
    )
    db = Database(
        {
            "C": Relation(("I",), [("a",)]),
            "E": edges,
            "B": Relation(("I",), [("c",)]),
            "T": Relation(("T",), [("t1",), ("t2",)]),
            "H": Relation(("I",), []),
            "K": Relation(("T", "I"), []),
        }
    )
    queries = {
        "C": step,
        "H": difference(union(step, rel("B")), rel("B")),
        "K": product(rel("T"), step),
    }
    return ForeverQuery(Interpretation(queries), TupleIn("C", ("c",))), db


def _dynamic_value_order():
    # M keeps the chosen weight, which footnote 1 may have summed to the
    # new symbol 10/21; X then draws uniformly from M and {1/2}, whose
    # canonical order (10/21 first) is not the raw id order.
    edges = _graph(
        [
            ("a", "b", Fraction(1, 3)),
            ("a", "b", Fraction(1, 7)),
            ("a", "c", Fraction(1, 2)),
            ("b", "a", 1),
            ("c", "a", 1),
        ]
    )
    kept = rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "P"), P="V")
    draw = repair_key(union(rel("M"), literal(("V",), [(Fraction(1, 2),)])))
    db = Database(
        {
            "C": Relation(("I",), [("a",)]),
            "E": edges,
            "M": Relation(("V",), []),
            "X": Relation(("V",), []),
        }
    )
    kernel = Interpretation({"C": _step(), "M": kept, "X": draw})
    # The event names no weight: an event value is interned up front.
    return ForeverQuery(kernel, TupleIn("C", ("b",))), db


EXTRA = {
    "merge-new-symbol": _merge_new_symbol,
    "empty-repair": _empty_repair,
    "keyless": _keyless,
    "two-column-key": _two_column_key,
    "combined-repairs": _combined_repairs,
    "extended-constant": _extended_constant,
    "static-operands": _static_operands,
    "dynamic-value-order": _dynamic_value_order,
}
ALL = {**CASES, **EXTRA}
