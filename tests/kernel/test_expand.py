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

from repro.kernel import compile_query, extern_database, lower
from repro.sparse import assemble_sparse_chain

from .cases import ALL, CASES, EXTRA

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
