"""Bit-exact equivalence between the frozenset and columnar backends.

The gate for the columnar kernel: over the workloads corpus (and, for
draws, the hand-built corner cases of ``cases.EXTRA``), the compiled
plans must reproduce the frozenset interpreter *exactly* —
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
    Interpretation,
    TupleIn,
    evaluate_forever_exact,
    evaluate_forever_lumped,
    evaluate_forever_mcmc,
    evaluate_inflationary_sampling,
)
from repro.errors import ProbabilityError
from repro.kernel import compile_query, extern_database, lower
from repro.relational import Database, Relation, join, project, rel, rename, repair_key

from .cases import ALL, CASES


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


@pytest.mark.parametrize("name", sorted(ALL), ids=sorted(ALL))
def test_sampled_trajectories_and_rng_stream_identical(name):
    query, db = ALL[name]()
    compiled = compile_query(query, db)
    for seed in (42, 7, 2026):
        rng_f, rng_c = random.Random(seed), random.Random(seed)
        state_f, state_c = db, compiled.initial
        for step in range(40):
            state_f = query.kernel.sample_transition(state_f, rng_f)
            state_c = compiled.kernel.sample_transition(state_c, rng_c)
            assert extern_database(state_c) == state_f, f"seed {seed}, step {step}"
            assert compiled.event.holds(state_c) == query.event.holds(state_f)
        # Same draws, in the same order: the whole RNG stream must agree.
        assert rng_f.getstate() == rng_c.getstate(), f"seed {seed}"


def _weighted_walk(bad_weight):
    kernel = Interpretation({
        "C": rename(project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"),
    })
    edges = Relation(("I", "J", "P"), [("a", "b", 1), ("a", "c", bad_weight), ("b", "a", 2)])
    db = Database({"C": Relation(("I",), [("a",)]), "E": edges})
    return ForeverQuery(kernel, TupleIn("C", ("b",))), db


@pytest.mark.parametrize("bad_weight", [0, -1, "x"], ids=["zero", "negative", "string"])
@pytest.mark.parametrize("backend", ["frozenset", "columnar"])
@pytest.mark.parametrize("step", ["sample_transition", "expand"])
def test_bad_weights_raise_on_both_kernels(bad_weight, backend, step):
    query, db = _weighted_walk(bad_weight)
    if backend == "columnar":
        query, db = lower(query, db)
    with pytest.raises(ProbabilityError):
        if step == "expand":
            query.kernel.expand([db])
        else:
            query.kernel.sample_transition(db, random.Random(1))


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
