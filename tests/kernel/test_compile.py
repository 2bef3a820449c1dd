"""Unit tests for the columnar compiler: eligibility, lowering, events."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core import ForeverQuery
from repro.core.events import QueryEvent, TupleIn
from repro.core.interpretation import Interpretation
from repro.kernel import (
    ColumnarDatabase,
    CompiledKernel,
    KernelCompileError,
    compile_event,
    compile_kernel,
    compile_query,
    extern_database,
    fallback_total,
    kernel_ineligibility,
    lower,
    lower_kernel,
    lowered,
    source_query,
)
from repro.runtime import RunContext
from repro.relational import Database, Relation, rel
from repro.relational.algebra import Select
from repro.relational.predicates import RowPredicate
from repro.workloads import cycle_graph, random_walk_query


def opaque_kernel():
    return Interpretation(
        {"C": Select(rel("C"), RowPredicate(lambda row: True, ("I",)))}
    )


def test_ineligibility_reports_row_predicates():
    reasons = kernel_ineligibility(opaque_kernel())
    assert reasons and "RowPredicate" in reasons[0]


def test_eligibility_of_workload_kernels():
    query, _ = random_walk_query(cycle_graph(4), "n0", "n2")
    assert kernel_ineligibility(query.kernel) == []


def test_compile_query_raises_on_ineligible_kernel():
    db = Database({"C": Relation(("I",), [("a",)])})
    query = ForeverQuery(opaque_kernel(), TupleIn("C", ("a",)))
    with pytest.raises(KernelCompileError):
        compile_query(query, db)


def test_lower_falls_back_with_counter():
    db = Database({"C": Relation(("I",), [("a",)])})
    query = ForeverQuery(opaque_kernel(), TupleIn("C", ("a",)))
    context = RunContext()
    before = fallback_total()
    out_query, out_db = lower(query, db, context)
    assert out_query is query and out_db is db
    assert not lowered(out_query)
    assert fallback_total() == before + 1
    assert any("columnar backend fallback" in e for e in context.report().events)


def test_lower_kernel_falls_back_with_counter():
    db = Database({"C": Relation(("I",), [("a",)])})
    kernel = opaque_kernel()
    before = fallback_total()
    assert lower_kernel(kernel, db) == (kernel, db)
    assert fallback_total() == before + 1
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    compiled, initial = lower_kernel(query.kernel, db)
    assert isinstance(compiled, CompiledKernel)
    assert isinstance(initial, ColumnarDatabase)


def test_lower_compiles_the_event_onto_a_compiled_kernel():
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    kernel, initial = compile_kernel(query.kernel, db)
    out_query, out_db = lower(ForeverQuery(kernel, query.event), initial)
    assert out_query.kernel is kernel and out_db is initial
    assert out_query.event.source is query.event
    # A foreign event on a compiled kernel falls back to the source pair.
    foreign = ForeverQuery(kernel, QueryEvent())
    before = fallback_total()
    source, source_db = lower(foreign, initial)
    assert source.kernel is query.kernel and source_db == db
    assert fallback_total() == before + 1


def test_lower_passes_lowered_through():
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    lowered_query, initial = lower(query, db)
    assert lowered(lowered_query)
    assert lower(lowered_query, initial) == (lowered_query, initial)
    source = source_query(lowered_query)
    assert source.kernel is query.kernel and source.event is query.event
    assert source_query(query) is query


def test_compile_event_shared_kernel_across_events():
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    kernel, initial = compile_kernel(query.kernel, db)
    event_hit = compile_event(TupleIn("C", ("n2",)), kernel)
    event_miss = compile_event(TupleIn("C", ("n3",)), kernel)
    rng = random.Random(3)
    state = initial
    seen_hit = seen_miss = False
    for _ in range(30):
        state = kernel.sample_transition(state, rng)
        plain = extern_database(state)
        assert event_hit.holds(state) == (("n2",) in plain["C"].rows)
        assert event_miss.holds(state) == (("n3",) in plain["C"].rows)
        seen_hit |= event_hit.holds(state)
        seen_miss |= event_miss.holds(state)
    assert seen_hit and seen_miss


def test_event_constant_outside_universe_is_false():
    # A value never interned can never appear in any state; the event
    # must be constant-false, matching the frozenset semantics.
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    kernel, initial = compile_kernel(query.kernel, db)
    stranger = compile_event(TupleIn("C", ("not-a-node",)), kernel)
    assert stranger.holds(initial) is False


def test_compiled_kernel_duck_type_surface():
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    kernel, initial = compile_kernel(query.kernel, db)
    assert kernel.pc_tables is None
    assert kernel.without_pc_tables() is kernel
    assert kernel.pc_relation_names() == []
    assert kernel.is_deterministic() == query.kernel.is_deterministic()
    assert sorted(kernel.updated_relations()) == sorted(
        query.kernel.updated_relations()
    )
    kernel.check_schema(initial)
    cache = kernel.cached(maxsize=16)
    row = cache.transition(initial)
    assert sum(weight for _, weight in row.items()) == Fraction(1)


def test_op_timings_accumulate():
    query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    compiled = compile_query(query, db)
    rng = random.Random(1)
    state = compiled.initial
    for _ in range(5):
        state = compiled.kernel.sample_transition(state, rng)
    timings = compiled.kernel.op_timings()
    assert "repair-key" in timings and timings["repair-key"]["calls"] >= 5
    assert all(entry["seconds"] >= 0.0 for entry in timings.values())
