"""Kernel parity: every rung answers alike on a source pair and on its
lowered pair.

A query runs on the kernel it holds, so lowering (``repro.kernel.lower``)
is the only switch between the frozenset interpreter and the columnar
kernel.  Each program below runs on its source ``(query, database)``
and on ``lower(query, database)`` under every rung, and the exact
``Fraction``s, the sparse certificates and the seeded tallies must be
equal.  The lowered pair crosses every boundary as it is: worker pools
(pickled as source plus symbol table), checkpoints (source fingerprint,
externed walker states) and the partition executor (planned on the
source, components lowered).  A pc-table program cannot lower: it
records one fallback and answers on the interpreter.
"""

from __future__ import annotations

import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import (
    ForeverQuery,
    InflationaryQuery,
    Interpretation,
    evaluate_forever_exact,
    evaluate_forever_lumped,
    evaluate_forever_mcmc,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
)
from repro.core.events import parse_event
from repro.ctables import CTable, PCDatabase, boolean_variable, var_eq
from repro.ctables.conditions import TRUE
from repro.errors import BudgetExceededError
from repro.io import database_from_json
from repro.kernel import extern_database, fallback_total, lower, lowered
from repro.perf import ParallelConfig
from repro.relational import Database, Relation
from repro.relational.parser import parse_interpretation
from repro.runtime import (
    Budget,
    DegradationPolicy,
    RunContext,
    evaluate_forever_resilient,
    evaluate_partitioned,
)
from repro.service import EngineSession, QueryRequest
from repro.sparse import evaluate_forever_sparse
from repro.workloads import (
    complete_graph,
    cycle_graph,
    layered_dag,
    pagerank_query,
    random_walk_query,
    reachability_query,
)

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "programs"

#: Written by ``repro forever examples/programs/random_walk.ra --backend
#: columnar --mcmc --samples 300 --burn-in 20 --seed 11 --max-steps
#: 2010 --checkpoint ...`` before lowering existed, when such a run
#: fell back to the interpreter: 100 samples done, a walker 10 steps in.
COLUMNAR_CHECKPOINT = Path(__file__).parent / "data" / "columnar_walk_v1.ckpt"

#: The walk-at-a-time sampler's checkpoint (see tests/perf/test_lockstep.py).
MID_WALK_CHECKPOINT = ROOT / "tests" / "perf" / "data" / "mid_walk_v1.ckpt"

def _guarded_walk():
    """A walk that never enters n3: its plan holds a selection closure."""
    kernel = parse_interpretation(
        "C := rename[J->I](project[J](repair-key[I@P](select[J!='n3'](C join E))))"
    )
    db = Database({
        "C": Relation(("I",), [("n3",)]),
        "E": complete_graph(4).edge_relation(),
    })
    return ForeverQuery(kernel, parse_event("C(n1) or C(n2)")), db


def _two_walkers():
    kernel = parse_interpretation((EXAMPLES / "two_walkers.ra").read_text())
    db = database_from_json(json.loads((EXAMPLES / "two_walkers.db.json").read_text()))
    return ForeverQuery(kernel, parse_event("C(b) and D(a)")), db


def _reach():
    graph = layered_dag(2, 3, rng=random.Random(3))
    return reachability_query(graph, "v0_0", "sink")


def _reach_pc():
    """Reachability whose shortcut edge is a pc-table entry (Pr 3/4)."""
    query, db = _reach()
    edges = [(row, TRUE) for row in db["E"]]
    edges.append((("v0_0", "sink", 1), var_eq("x", 1)))
    pc = PCDatabase(
        {"E": CTable(("I", "J", "P"), edges)},
        {"x": boolean_variable(Fraction(3, 4))},
    )
    kernel = Interpretation(query.kernel.queries, pc_tables=pc)
    return InflationaryQuery(kernel, query.event), db


FOREVER = {
    "walk-cycle": lambda: random_walk_query(cycle_graph(5), "n0", "n2"),
    "walk-complete": lambda: random_walk_query(complete_graph(4), "n0", "n1"),
    "pagerank": lambda: pagerank_query(cycle_graph(4), Fraction(1, 5), "n0", "n2"),
    "guarded-walk": _guarded_walk,
    "two-walkers": _two_walkers,
}

INFLATIONARY = {"reach": _reach}


def _pairs(build):
    query, db = build()
    lowered_query, lowered_db = lower(query, db)
    assert lowered(lowered_query)
    return (query, db), (lowered_query, lowered_db)


def _both(build, run):
    """``run`` on the source pair and on the lowered pair."""
    source, target = _pairs(build)
    return run(*source), run(*target)


@pytest.fixture(params=sorted(FOREVER))
def forever(request):
    return FOREVER[request.param]


@pytest.fixture(params=sorted(INFLATIONARY))
def inflationary(request):
    return INFLATIONARY[request.param]


class TestExactRungs:
    def test_exact(self, forever):
        source, target = _both(forever, evaluate_forever_exact)
        assert target.probability == source.probability
        assert target.states_explored == source.states_explored
        assert target.method == source.method
        assert target.details == {**source.details, "backend": "columnar"}

    def test_lumped(self, forever):
        source, target = _both(forever, evaluate_forever_lumped)
        assert target.probability == source.probability
        assert target.details["quotient_states"] == source.details["quotient_states"]

    def test_sparse(self, forever):
        run = lambda q, d: evaluate_forever_sparse(q, d, epsilon=1e-9)
        source, target = _both(forever, run)
        assert target.probability == source.probability
        assert target.interval == source.interval
        assert target.certificate.as_dict() == source.certificate.as_dict()
        assert target.details["backend"] == source.details["backend"] == "columnar"

    def test_auto_ladder(self, forever):
        def run(query, db):
            return evaluate_forever_resilient(
                query, db, policy=DegradationPolicy(mode="auto"), rng=3
            )

        source, target = _both(forever, run)
        assert target.method == source.method
        assert target.probability == source.probability

    def test_auto_ladder_downgrades_alike(self):
        def run(query, db):
            context = RunContext()
            result = evaluate_forever_resilient(
                query, db, max_states=2, rng=5, context=context,
                policy=DegradationPolicy(mode="mcmc", mcmc_samples=40, mcmc_burn_in=6),
            )
            return result, [d.as_dict() for d in context.downgrades]

        (source, source_steps), (target, target_steps) = _both(FOREVER["walk-cycle"], run)
        assert target_steps == source_steps
        assert (target.positive, target.samples) == (source.positive, source.samples)

    def test_inflationary_exact(self, inflationary):
        source, target = _both(inflationary, evaluate_inflationary_exact)
        assert target.probability == source.probability
        assert target.states_explored == source.states_explored
        assert target.details["backend"] == "columnar"


class TestSamplers:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cache_size", [None, 64], ids=["uncached", "cached"])
    def test_thm56_tallies(self, forever, workers, cache_size):
        def run(query, db):
            return evaluate_forever_mcmc(
                query, db, samples=60, burn_in=6, rng=2026,
                cache_size=cache_size, parallel=ParallelConfig(workers=workers),
            )

        source, target = _both(forever, run)
        assert (target.positive, target.samples) == (source.positive, source.samples)
        assert target.details["backend"] == "columnar"
        assert "backend" not in source.details
        if workers > 1:
            assert target.details["workers"] == source.details["workers"] == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_thm43_tallies(self, inflationary, workers):
        def run(query, db):
            return evaluate_inflationary_sampling(
                query, db, samples=40, rng=7,
                parallel=ParallelConfig(workers=workers),
            )

        source, target = _both(inflationary, run)
        assert (target.positive, target.samples) == (source.positive, source.samples)
        assert target.details["backend"] == "columnar"


class TestCheckpoints:
    @pytest.mark.parametrize("cache_size", [None, 64], ids=["uncached", "cached"])
    @pytest.mark.parametrize("writer", ["source", "lowered"])
    @pytest.mark.parametrize("reader", ["source", "lowered"])
    def test_budget_stop_then_resume(self, tmp_path, cache_size, writer, reader):
        """A compiled run stops on its step budget with a checkpoint, and
        a checkpoint from either kernel resumes on either kernel to the
        uninterrupted tallies."""
        pairs = dict(zip(("source", "lowered"), _pairs(FOREVER["walk-cycle"])))
        params = dict(samples=40, burn_in=9, cache_size=cache_size)
        full = evaluate_forever_mcmc(*pairs["source"], rng=11, **params)
        path = tmp_path / "ck.json"
        with pytest.raises(BudgetExceededError):
            evaluate_forever_mcmc(
                *pairs[writer], rng=11, checkpoint_path=path,
                context=RunContext(Budget(max_steps=121)), **params,
            )
        assert path.exists()
        resumed = evaluate_forever_mcmc(*pairs[reader], rng=999, resume=path)
        assert (resumed.positive, resumed.samples) == (full.positive, full.samples)
        assert resumed.details["resumed_at"] == 13
        assert ("backend" in resumed.details) == (reader == "lowered")

    def test_walk_at_a_time_checkpoint_resumes_lowered(self):
        query, db = random_walk_query(cycle_graph(6), "n0", "n3")
        resumed = evaluate_forever_mcmc(
            *lower(query, db), rng=999, resume=MID_WALK_CHECKPOINT
        )
        assert resumed.positive == 7
        assert resumed.details["resumed_at"] == 13
        assert resumed.details["backend"] == "columnar"

    def test_a_columnar_checkpoint_written_before_lowering_resumes(self):
        request = QueryRequest.from_json({
            "semantics": "forever",
            "program": (EXAMPLES / "random_walk.ra").read_text(),
            "database": json.loads((EXAMPLES / "random_walk.db.json").read_text()),
            "event": "C(b)",
            "params": {
                "backend": "columnar", "mcmc": True, "samples": 300,
                "burn_in": 20, "seed": 11,
            },
        })
        context = RunContext()
        payload = EngineSession.from_request(request).evaluate(
            request, context, resume=str(COLUMNAR_CHECKPOINT)
        )
        assert payload["estimate"] == 0.52
        assert payload["positive"] == 156
        assert payload["resumed_at"] == 100
        assert payload["backend"] == "columnar"
        assert not [e for e in context.report().events if "fallback" in e]


class TestPartition:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_partition_auto(self, workers):
        def run(query, db):
            return evaluate_partitioned(query, db, seed=4, workers=workers)

        source, target = _both(FOREVER["two-walkers"], run)
        assert target.probability == source.probability == Fraction(1, 4)
        assert target.details["components"] == source.details["components"]

    def test_components_lower_onto_their_own_kernels(self, monkeypatch):
        from repro.kernel import lower as lower_step
        import repro.kernel.lowering as lowering

        lowered_components = []

        def recording(query, initial, context=None):
            out = lower_step(query, initial, context)
            lowered_components.append(lowered(out[0]))
            return out

        monkeypatch.setattr(lowering, "lower", recording)
        _source, (query, db) = _pairs(FOREVER["two-walkers"])
        evaluate_partitioned(query, db)
        assert lowered_components == [True, True]


class TestBoundaries:
    def test_a_lowered_pair_pickles_and_recompiles(self):
        (query, db), (target, initial) = _pairs(FOREVER["guarded-walk"])
        clone, clone_initial = pickle.loads(pickle.dumps((target, initial)))
        assert clone.kernel.table is clone_initial.table
        assert extern_database(clone_initial) == db
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            assert extern_database(
                clone.kernel.sample_transition(clone_initial, a)
            ) == extern_database(target.kernel.sample_transition(initial, b))
            assert a.getstate() == b.getstate()
        assert dict(
            (extern_database(s), w)
            for s, w in clone.kernel.transition(clone_initial).items()
        ) == dict(query.kernel.transition(db).items())
        assert clone.event.holds(clone_initial) == query.event.holds(db)
        assert repr(clone.event.source) == repr(query.event)

    def test_a_symbol_table_pickles_with_its_dynamic_interns(self):
        _source, (query, _initial) = _pairs(FOREVER["pagerank"])
        table = query.kernel.table
        table.intern(Fraction(7, 13))  # past the static, canonically sorted region
        clone = pickle.loads(pickle.dumps(table))
        assert [clone.value_of(i) for i in range(len(clone))] == [
            table.value_of(i) for i in range(len(table))
        ]
        assert clone.static_size == table.static_size
        assert clone.id_of(Fraction(7, 13)) == table.id_of(Fraction(7, 13))
        assert (clone.rank_array() == table.rank_array()).all()

    def test_pc_tables_fall_back_once_and_answer_on_the_interpreter(self):
        query, db = _reach_pc()
        context = RunContext()
        before = fallback_total()
        out_query, out_db = lower(query, db, context)
        assert fallback_total() == before + 1
        assert out_query is query and out_db is db
        assert [e for e in context.report().events if "fallback" in e]
        exact = evaluate_inflationary_exact(out_query, out_db)
        assert exact.probability == evaluate_inflationary_exact(query, db).probability
        assert "backend" not in exact.details
        sampled = evaluate_inflationary_sampling(out_query, out_db, samples=30, rng=3)
        assert "backend" not in sampled.details

    def test_pc_tables_through_a_session(self):
        query, db = _reach_pc()
        request = QueryRequest.from_json({
            "semantics": "inflationary",
            "program": "C := C\n",
            "database": {"relations": {}},
            "event": "C(sink)",
            "params": {"backend": "columnar"},
        })
        session = EngineSession(
            key=request.session_key(), semantics="inflationary",
            kernel=query.kernel, database=db,
        )
        before = fallback_total()
        payload = session.evaluate(request)
        assert fallback_total() == before + 1
        assert "backend" not in payload
        expected = evaluate_inflationary_exact(
            InflationaryQuery(query.kernel, parse_event("C(sink)")), db
        )
        assert payload["probability"] == str(expected.probability)
