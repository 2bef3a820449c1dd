"""Bit-exact equivalence between the frozenset and columnar backends.

The gate for the columnar kernel: over the workloads corpus, the
compiled plans must reproduce the frozenset interpreter *exactly* —
identical transition distributions (exact ``Fraction`` weights),
identical sampled trajectories for a shared seed, an identical RNG
stream afterwards (same number and order of draws), and identical
evaluator answers end-to-end.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core import (
    ForeverQuery,
    evaluate_forever_exact,
    evaluate_forever_lumped,
    evaluate_forever_mcmc,
    evaluate_inflationary_sampling,
)
from repro.kernel import compile_query, extern_database, lower
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


@pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
def test_transition_distribution_identical(name):
    query, db = CASES[name]()
    compiled = compile_query(query, db)
    exact_f = dict(query.kernel.transition(db).items())
    exact_c = {
        extern_database(state): weight
        for state, weight in compiled.kernel.transition(compiled.initial).items()
    }
    assert exact_c == exact_f  # Fraction-exact, not approximate


def _footnote_weights():
    """M keeps the chosen weight: footnote 1 sums the duplicate edges
    a->b to 10/21, a value the compiled kernel interns only when a
    transition first merges them."""
    from repro.core import Interpretation
    from repro.relational import Database, Relation, join, project, rel, rename, repair_key

    step = rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I")
    kept = rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "P"), P="V")
    edges = Relation(("I", "J", "P"), [
        ("a", "b", Fraction(1, 3)), ("a", "b", Fraction(1, 7)),
        ("a", "c", Fraction(1, 2)), ("b", "a", 1), ("c", "a", 1),
    ])
    db = Database({
        "C": Relation(("I",), [("a",)]), "M": Relation(("V",), []), "E": edges,
    })
    return Interpretation({"C": step, "M": kept}), db


@pytest.mark.parametrize("name", sorted(CASES) + ["footnote-weights"])
def test_tuple_events_identical_on_every_state(name):
    """The compiled ``TupleIn`` event agrees with the interpreter's on
    every reachable state: rows that occur, a value never interned, a
    value interned only after the event was compiled, an arity mismatch
    and a relation the database lacks."""
    from repro.core import TupleIn, build_state_chain
    from repro.kernel import compile_event, compile_kernel

    if name == "footnote-weights":
        kernel, db = _footnote_weights()
    else:
        query, db = CASES[name]()
        kernel = query.kernel
    compiled, initial = compile_kernel(kernel, db)
    chain = build_state_chain(kernel, db)
    rows = {
        (relation, row) for state in chain.states
        for relation in state for row in state[relation].rows
    }
    events = [TupleIn(relation, row) for relation, row in sorted(rows, key=repr)]
    events += [
        TupleIn("C", ("not-a-node",)),
        TupleIn("M", (Fraction(10, 21),)),
        TupleIn("M", (Fraction(99, 101),)),
        TupleIn("C", ()),
        TupleIn("C", tuple(sorted(db.active_domain(), key=repr))[:2]),
        TupleIn("Nowhere", ("a",)),
    ]
    # Compiled before any transition: values interned later resolve lazily.
    lowered = [(event, compile_event(event, compiled)) for event in events]
    compiled_chain = build_state_chain(compiled, initial)
    assert [extern_database(state) for state in compiled_chain.states] == list(
        chain.states
    )
    held = 0
    for state, source in zip(compiled_chain.states, chain.states):
        for event, compiled_event in lowered:
            assert compiled_event.holds(state) == event.holds(source), (event, source)
            held += event.holds(source)
    assert held
    if name == "footnote-weights":
        assert any(
            TupleIn("M", (Fraction(10, 21),)).holds(state) for state in chain.states
        )


@pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
def test_sampled_trajectories_and_rng_stream_identical(name):
    query, db = CASES[name]()
    compiled = compile_query(query, db)
    rng_f, rng_c = random.Random(42), random.Random(42)
    state_f, state_c = db, compiled.initial
    for step in range(40):
        state_f = query.kernel.sample_transition(state_f, rng_f)
        state_c = compiled.kernel.sample_transition(state_c, rng_c)
        assert extern_database(state_c) == state_f, f"step {step}"
        assert compiled.event.holds(state_c) == query.event.holds(state_f)
    # Same draws, in the same order: the whole RNG stream must agree.
    assert rng_f.getstate() == rng_c.getstate()


@pytest.mark.parametrize(
    "name", ["walk-cycle", "pagerank", "walk-barbell"], ids=str
)
def test_forever_exact_and_lumped_identical(name):
    query, db = CASES[name]()
    result_f = evaluate_forever_exact(query, db)
    result_c = evaluate_forever_exact(*lower(query, db))
    assert result_c.probability == result_f.probability
    assert result_c.states_explored == result_f.states_explored
    assert result_c.details.get("backend") == "columnar"

    lumped_f = evaluate_forever_lumped(query, db)
    lumped_c = evaluate_forever_lumped(*lower(query, db))
    assert lumped_c.probability == lumped_f.probability
    assert lumped_c.details["quotient_states"] == lumped_f.details["quotient_states"]


def test_forever_mcmc_bit_identical_for_fixed_seed():
    query, db = CASES["walk-cycle"]()
    result_f = evaluate_forever_mcmc(
        query, db, samples=300, burn_in=5, rng=11
    )
    result_c = evaluate_forever_mcmc(
        *lower(query, db), samples=300, burn_in=5, rng=11
    )
    assert result_c.estimate == result_f.estimate
    assert result_c.positive == result_f.positive
    assert result_c.details.get("backend") == "columnar"


def test_inflationary_sampling_bit_identical_for_fixed_seed():
    query, db = CASES["reach-dag"]()
    result_f = evaluate_inflationary_sampling(query, db, samples=150, rng=5)
    result_c = evaluate_inflationary_sampling(
        *lower(query, db), samples=150, rng=5
    )
    assert result_c.estimate == result_f.estimate
    assert result_c.positive == result_f.positive


def test_parallel_workers_match_columnar():
    from repro.perf import ParallelConfig

    query, db = CASES["walk-cycle"]()
    result_f = evaluate_forever_mcmc(
        query, db, samples=48, burn_in=4, rng=9,
        parallel=ParallelConfig(workers=2),
    )
    result_c = evaluate_forever_mcmc(
        *lower(query, db), samples=48, burn_in=4, rng=9,
        parallel=ParallelConfig(workers=2),
    )
    assert result_c.estimate == result_f.estimate
    assert result_c.details.get("backend") == "columnar"


def test_enumerated_transition_matches_repair_distribution():
    # PageRank's keyless weighted repair-key merges rows (footnote 1).
    # Walk its chain: every compiled row equals, in order and weight,
    # the interpreter's, whose repair-key worlds come from
    # repro.relational.repair.repair_distribution via prob_eval.
    query, db = CASES["pagerank"]()
    compiled = compile_query(query, db)
    states, seen = [compiled.initial], {compiled.initial}
    for state in states:
        row = list(compiled.kernel.transition(state).items())
        expected = list(query.kernel.transition(extern_database(state)).items())
        assert [(extern_database(s), w) for s, w in row] == expected
        assert sum(weight for _, weight in row) == Fraction(1)
        for successor, _ in row:
            if successor not in seen:
                seen.add(successor)
                states.append(successor)
    assert len(states) == 5
