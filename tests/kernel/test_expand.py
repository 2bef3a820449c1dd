"""Differential tests for ``CompiledKernel.expand``.

``expand`` evaluates the compiled kernel over a batch of states in one
array pass per plan node.  Each state's row must equal the frozenset
interpreter's ``transition`` of that state exactly: the same successors
(externed), in the same first-occurrence order, with equal ``Fraction``
weights, whether the state is expanded alone or inside a batch.  The
sparse rung's CSR assembly, which expands whole batches of the BFS
queue, must reproduce the interpreter's assembly bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core import ForeverQuery, Interpretation, TupleIn
from repro.kernel import compile_query, extern_database, lower
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
from repro.sparse import assemble_sparse_chain

from .test_equivalence import CASES


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

#: States expanded per case (the reachable chain, up to this many).
_LIMIT = 60


def _reachable(kernel, initial, limit=_LIMIT):
    states, seen = [initial], {initial}
    for state in states:
        for successor in kernel.transition(state):
            if successor not in seen and len(states) < limit:
                seen.add(successor)
                states.append(successor)
    return states


def _externed(row):
    return [(extern_database(state), weight) for state, weight in row.items()]


def _check_row(row, source_kernel, state):
    expected = list(source_kernel.transition(extern_database(state)).items())
    assert _externed(row) == expected
    assert all(type(weight) is Fraction for _, weight in row.items())


@pytest.mark.parametrize("name", sorted(ALL), ids=sorted(ALL))
def test_width_one_rows_equal_interpreter(name):
    query, db = ALL[name]()
    compiled = compile_query(query, db)
    for state in _reachable(compiled.kernel, compiled.initial):
        (row,) = compiled.kernel.expand([state])
        _check_row(row, query.kernel, state)


@pytest.mark.parametrize("name", sorted(ALL), ids=sorted(ALL))
def test_batched_rows_equal_interpreter(name):
    query, db = ALL[name]()
    compiled = compile_query(query, db)
    states = _reachable(compiled.kernel, compiled.initial)
    # The whole set, the reverse order, and a batch repeating a state.
    for batch in (states, states[::-1], states[:3] + states[:1]):
        rows = compiled.kernel.expand(batch)
        assert len(rows) == len(batch)
        for state, row in zip(batch, rows):
            _check_row(row, query.kernel, state)


def test_batch_whose_states_differ_in_an_unwritten_relation():
    # E is written by no query; states holding different E objects (or
    # different E contents) must still expand correctly.
    query, db = CASES["walk-cycle"]()
    compiled = compile_query(query, db)
    first = compiled.initial
    other_edges = compile_query(*CASES["walk-cycle"]()).initial["E"]
    assert other_edges is not first["E"]
    shortcut = first.with_relation(
        "E", first["E"].__class__(first["E"].columns, first["E"].data[::2])
    )
    batch = [first, first.with_relation("E", other_edges), shortcut]
    for state, row in zip(batch, compiled.kernel.expand(batch)):
        _check_row(row, query.kernel, state)


@pytest.mark.parametrize("name", ["merge-new-symbol", "dynamic-value-order"])
def test_dynamic_intern_takes_the_rank_path(name):
    query, db = EXTRA[name]()
    compiled = compile_query(query, db)
    assert compiled.table.rank_array() is None
    compiled.kernel.expand(_reachable(compiled.kernel, compiled.initial))
    assert compiled.table.dynamic_count > 0
    assert compiled.table.rank_array() is not None


def test_empty_batch():
    query, db = CASES["walk-cycle"]()
    assert compile_query(query, db).kernel.expand([]) == []


@pytest.mark.parametrize("name", sorted(ALL), ids=sorted(ALL))
def test_sparse_assembly_lowered_equals_source(name):
    query, db = ALL[name]()
    source = assemble_sparse_chain(query.kernel, db, event=query.event.holds)
    lowered_query, initial = lower(query, db)
    compiled = assemble_sparse_chain(
        lowered_query.kernel, initial, event=lowered_query.event.holds
    )
    assert [extern_database(state) for state in compiled.states] == list(source.states)
    assert np.array_equal(compiled.matrix.indptr, source.matrix.indptr)
    assert np.array_equal(compiled.matrix.indices, source.matrix.indices)
    assert compiled.matrix.data.tobytes() == source.matrix.data.tobytes()
    assert np.array_equal(compiled.event_mask, source.event_mask)
