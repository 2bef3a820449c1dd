"""A session solves its program once: exact events read one stored solution.

Differential: on a warm :class:`EngineSession`, every exact event's
payload equals a fresh ``evaluate_*_exact`` call's, key for key, over
forever-queries (irreducible, periodic, absorbing), inflationary
reachability and datalog reachability (with and without a pc-table).
Also: what is stored and when, reuse under concurrency and budgets, how
a reuse shows in the trace, and the one fixpoint pass checked against
the path enumeration it replaced.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.evaluation.exact_noninflationary as exact_module
from repro.core import (
    ForeverQuery,
    InflationaryQuery,
    Interpretation,
    evaluate_forever_exact,
    evaluate_inflationary_exact,
)
from repro.core.events import parse_event
from repro.ctables import CTable, PCDatabase, boolean_variable, var_eq
from repro.ctables.conditions import TRUE
from repro.datalog import (
    InflationaryDatalogEngine,
    evaluate_datalog_exact,
    inflationary_initial_database,
    inflationary_interpretation_for_program,
    parse_program,
)
from repro.errors import (
    BudgetExceededError,
    RunCancelledError,
    StateSpaceLimitExceeded,
)
from repro.io import database_from_json, pc_database_from_json
from repro.obs import MemorySink, Tracer
from repro.probability import Distribution
from repro.probability.distribution import as_fraction
from repro.relational.parser import parse_interpretation
from repro.runtime import Budget, RunContext
from repro.service import EngineSession, QueryRequest
from repro.service.session import result_payload
from repro.workloads.programs import random_program

WALK = "C := rename[J->I](project[J](repair-key[I@P](C join E)))"
REACH = (
    "C := C union rename[J->I](project[J](repair-key[I@P]((C minus Cold) join E)))\n"
    "Cold := C\n"
)
DATALOG = (
    "c('v0').\n"
    "c2(X*, Y)@P :- c(X), e(X, Y, P).\n"
    "c(Y) :- c2(X, Y).\n"
)
DATALOG_PC = DATALOG + "c(Y) :- c(X), f(X, Y).\n"

DAG_EDGES = [
    ["v0", "v1", 1], ["v0", "v2", 2], ["v1", "v3", 1], ["v1", "v4", 1],
    ["v2", "v4", 1], ["v2", "v5", 3], ["v3", "v6", 1], ["v4", "v6", 1],
    ["v4", "v5", 1],
]
DAG_NODES = ["v1", "v2", "v3", "v4", "v5", "v6"]

X1 = {"x1": {"values": [0, 1], "weights": [1, 3]}}
PC_EDGES = {
    "variables": X1,
    "tables": {
        "f": {
            "columns": ["I", "J"],
            "entries": [
                {"row": ["v0", "v6"], "condition": {"var": "x1", "equals": 1}},
                {"row": ["v1", "v5"], "condition": {"var": "x1", "not_equals": 1}},
            ],
        }
    },
}


def _walk_database(edges, start="n0") -> dict:
    return {"relations": {
        "C": {"columns": ["I"], "rows": [[start]]},
        "E": {"columns": ["I", "J", "P"], "rows": edges},
    }}


def _events(relation: str, nodes: list[str]) -> list[str]:
    """Atoms, negations, disjunctions and conjunctions over ``nodes``."""
    atoms = [f"{relation}({node})" for node in nodes]
    events = list(atoms)
    events += [f"not {atom}" for atom in atoms[:3]]
    events += [f"{a} or {b}" for a, b in zip(atoms, atoms[1:])]
    events += [f"{a} and {b}" for a, b in zip(atoms, atoms[2:])]
    events.append(f"not ({atoms[0]} or {atoms[-1]})")
    return events


#: name -> (semantics, program, database, events)
WALKS = {
    "irreducible": (
        _walk_database([
            ["n0", "n0", 1], ["n0", "n1", 2], ["n1", "n2", 1], ["n1", "n0", 1],
            ["n2", "n0", 1], ["n2", "n3", 1], ["n3", "n1", 1],
        ]),
        ["n0", "n1", "n2", "n3"],
    ),
    "periodic": (
        _walk_database([
            ["n0", "n1", 1], ["n1", "n2", 1], ["n2", "n3", 1], ["n3", "n0", 1],
        ]),
        ["n0", "n1", "n2", "n3"],
    ),
    "birth-death": (
        _walk_database([
            ["n0", "n0", 1], ["n1", "n0", 1], ["n1", "n2", 2], ["n2", "n1", 1],
            ["n2", "n3", 2], ["n3", "n2", 1], ["n3", "n4", 2], ["n4", "n4", 1],
        ], start="n2"),
        ["n0", "n1", "n2", "n3", "n4"],
    ),
}

REACH_DATABASE = {"relations": {
    "C": {"columns": ["I"], "rows": [["v0"]]},
    "Cold": {"columns": ["I"], "rows": []},
    "E": {"columns": ["I", "J", "P"], "rows": DAG_EDGES},
}}
DATALOG_DATABASE = {"relations": {
    "e": {"columns": ["I", "J", "P"], "rows": DAG_EDGES},
}}


def _request(semantics, program, database, event, params=None, pc_tables=None):
    body = {
        "semantics": semantics,
        "program": program,
        "database": database,
        "event": event,
        "params": params or {},
    }
    if pc_tables is not None:
        body["pc_tables"] = pc_tables
    return QueryRequest.from_json(body)


def _reach_pc_kernel():
    """The reachability kernel whose edge relation is a pc-table: the
    shortcut edge v0 -> v6 exists with probability 3/4."""
    entries = [((i, j, p), TRUE) for i, j, p in DAG_EDGES]
    entries.append((("v0", "v6", 1), var_eq("x", 1)))
    pc = PCDatabase(
        {"E": CTable(("I", "J", "P"), entries)},
        {"x": boolean_variable(Fraction(3, 4))},
    )
    return Interpretation(parse_interpretation(REACH).queries, pc_tables=pc)


class _Case:
    """One program: a warm session, and fresh evaluation per event."""

    def __init__(self, name: str):
        self.name = name
        self.pc_kernel = None
        if name in WALKS:
            database, nodes = WALKS[name]
            self.semantics, self.program, self.database = "forever", WALK, database
            self.events = _events("C", nodes)
            self.pc_tables = None
        elif name.startswith("inflationary"):
            self.semantics, self.program = "inflationary", REACH
            self.database, self.pc_tables = REACH_DATABASE, None
            self.events = _events("C", DAG_NODES)
            if name.endswith("pc"):
                self.pc_kernel = _reach_pc_kernel()
        else:
            self.semantics = "datalog"
            pc = name.endswith("pc")
            self.program = DATALOG_PC if pc else DATALOG
            self.database = DATALOG_DATABASE
            self.pc_tables = PC_EDGES if pc else None
            self.events = _events("c", DAG_NODES)

    def request(self, event, params=None) -> QueryRequest:
        return _request(
            self.semantics, self.program, self.database, event, params,
            self.pc_tables,
        )

    def session(self, cache_size=4096) -> EngineSession:
        request = self.request(self.events[0])
        if self.pc_kernel is None:
            return EngineSession.prepare(request, cache_size=cache_size)
        return EngineSession(
            key=request.session_key(),
            semantics="inflationary",
            kernel=self.pc_kernel,
            database=database_from_json(self.database),
            cache_size=cache_size,
        )

    def fresh(self, event_text: str, **limits) -> dict:
        """A fresh ``evaluate_*_exact`` result, rendered as the session renders it."""
        event = parse_event(event_text)
        database = database_from_json(self.database)
        if self.semantics == "datalog":
            pc = pc_database_from_json(self.pc_tables) if self.pc_tables else None
            result = evaluate_datalog_exact(
                parse_program(self.program), database, event, pc_tables=pc,
                **limits,
            )
            payload = result_payload(result)
            payload["pc_worlds"] = result.details["pc_worlds"]
            return payload
        kernel = self.pc_kernel or parse_interpretation(self.program)
        if self.semantics == "forever":
            result = evaluate_forever_exact(
                ForeverQuery(kernel, event), database, **limits
            )
        else:
            result = evaluate_inflationary_exact(
                InflationaryQuery(kernel, event), database, **limits
            )
        return result_payload(result)


CASES = [
    "irreducible", "periodic", "birth-death",
    "inflationary", "inflationary-pc", "datalog", "datalog-pc",
]


@pytest.fixture(params=CASES)
def case(request) -> _Case:
    return _Case(request.param)


class TestDifferential:
    def test_every_event_matches_a_fresh_evaluation(self, case):
        session = case.session()
        assert len(case.events) >= 10
        for event in case.events:
            assert session.evaluate(case.request(event)) == case.fresh(event), event
        assert len(session.solutions) == 1

    def test_cases_reach_the_intended_methods(self, case):
        payload = case.fresh(case.events[0])
        expected = {
            "irreducible": "prop-5.4", "periodic": "prop-5.4",
            "birth-death": "thm-5.5", "inflationary": "prop-4.4",
            "inflationary-pc": "prop-4.4", "datalog": "datalog-exact",
            "datalog-pc": "datalog-exact",
        }[case.name]
        assert payload["method"] == expected
        if case.name == "datalog-pc":
            assert payload["pc_worlds"] == 2

    @pytest.mark.parametrize("name", ["irreducible", "birth-death", "inflationary"])
    def test_the_columnar_kernel_keeps_its_own_solution(self, name):
        case = _Case(name)
        session = case.session()
        columnar = {"backend": "columnar"}
        for event in case.events[:4]:
            payload = session.evaluate(case.request(event, columnar))
            fresh = case.fresh(event)
            assert payload == {**fresh, "backend": "columnar"}, event
        assert len(session.solutions) == 1
        session.evaluate(case.request(case.events[0]))
        assert len(session.solutions) == 2

    def test_inflationary_pc_mixes_worlds(self):
        case = _Case("inflationary-pc")
        session = case.session()
        session.evaluate(case.request("C(v6)"))
        solution = session.solutions.get(case.pc_kernel)
        assert solution.details == {"pc_worlds": 2}
        assert sum(solution.masses.values()) == 1

    def test_birth_death_gamblers_ruin(self):
        case = _Case("birth-death")
        session = case.session()
        # Up-drift 2:1 from the middle of 0..4: Pr[absorbed at 4] = 4/5.
        assert session.evaluate(case.request("C(n4)"))["probability"] == "4/5"
        assert session.evaluate(case.request("C(n2)"))["probability"] == "0"


class TestWhatIsStored:
    def test_lower_max_states_answers_as_without_the_store(self, case):
        session = case.session()
        solved = session.evaluate(case.request(case.events[0]))["states_explored"]
        event = case.events[1]
        for limit in (1, solved // 2, solved - 1, solved):
            try:
                expected = case.fresh(event, max_states=limit)
            except StateSpaceLimitExceeded:
                with pytest.raises(StateSpaceLimitExceeded):
                    session.evaluate(case.request(event, {"max_states": limit}))
            else:
                request = case.request(event, {"max_states": limit})
                assert session.evaluate(request) == expected
        if not case.name.endswith("pc"):
            # One world: every limit below the solved size overflows.
            with pytest.raises(StateSpaceLimitExceeded):
                session.evaluate(case.request(event, {"max_states": solved - 1}))
        assert len(session.solutions) == 1

    # Datalog requests take no cache_size param.
    @pytest.mark.parametrize(
        "name", [name for name in CASES if not name.startswith("datalog")]
    )
    def test_cache_size_zero_keeps_nothing(self, name):
        case = _Case(name)
        session = case.session()
        payload = session.evaluate(case.request(case.events[0], {"cache_size": 0}))
        assert payload == case.fresh(case.events[0])
        assert len(session.solutions) == 0
        # Nor does such a request read a solution others stored.
        session.evaluate(case.request(case.events[0]))
        context = RunContext()
        payload = session.evaluate(
            case.request(case.events[1], {"cache_size": 0}), context
        )
        assert payload == case.fresh(case.events[1])
        assert not any("reused" in event for event in context.report().events)

    @pytest.mark.parametrize("name", ["inflationary-pc", "datalog-pc"])
    def test_pc_worlds_are_bounded_one_by_one(self, name):
        """``max_states`` bounds each pc-table world, so a limit between
        the largest world and the worlds' sum reads the stored solution,
        and a limit below the largest world still overflows."""
        case = _Case(name)
        session = case.session()
        solved = session.evaluate(case.request(case.events[0]))["states_explored"]
        solved_by = session.program if session.program is not None else session.kernel
        largest = session.solutions.get(solved_by).world_states
        assert largest < solved
        event = case.events[1]
        for limit in (largest, solved - 1):
            context = RunContext()
            request = case.request(event, {"max_states": limit})
            assert session.evaluate(request, context) == case.fresh(
                event, max_states=limit
            )
            assert any(
                "reused the stored" in line for line in context.report().events
            ), limit
        with pytest.raises(StateSpaceLimitExceeded):
            case.fresh(event, max_states=largest - 1)
        with pytest.raises(StateSpaceLimitExceeded):
            session.evaluate(case.request(event, {"max_states": largest - 1}))

    def test_a_session_without_a_cache_keeps_nothing(self):
        case = _Case("irreducible")
        assert case.session(cache_size=0).solutions is None
        cli = EngineSession.from_request(case.request("C(n0)"))
        assert cli.solutions is None
        assert cli.evaluate(case.request("C(n0)")) == case.fresh("C(n0)")

    def test_support_larger_than_cache_size_is_not_kept(self):
        case = _Case("irreducible")
        session = case.session(cache_size=3)  # the support has 4 states
        assert session.evaluate(case.request("C(n0)")) == case.fresh("C(n0)")
        assert len(session.solutions) == 0
        assert session.evaluate(case.request("C(n1)")) == case.fresh("C(n1)")
        # The absorbing walk's support is its two leaves: it fits.
        absorbing = _Case("birth-death")
        session = absorbing.session(cache_size=2)
        session.evaluate(absorbing.request("C(n0)"))
        assert len(session.solutions) == 1

    @pytest.mark.parametrize("stop", ["budget", "cancel"])
    def test_a_stopped_solve_keeps_nothing(self, case, stop):
        session = case.session()
        if stop == "budget":
            context, error = RunContext(Budget(wall_clock=0.0)), BudgetExceededError
            time.sleep(0.001)
        else:
            context, error = RunContext(), RunCancelledError
            context.cancel()
        with pytest.raises(error):
            session.evaluate(case.request(case.events[0]), context)
        assert len(session.solutions) == 0
        payload = session.evaluate(case.request(case.events[0]))
        assert payload == case.fresh(case.events[0])
        assert len(session.solutions) == 1

    def test_two_threads_build_one_chain(self, monkeypatch):
        case = _Case("irreducible")
        session = case.session()
        builds = []
        build = exact_module.build_state_chain

        def slow_build(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.2)
            return build(*args, **kwargs)

        monkeypatch.setattr(exact_module, "build_state_chain", slow_build)
        barrier = threading.Barrier(2)
        payloads: dict[str, dict] = {}

        def ask(event: str) -> None:
            barrier.wait()
            payloads[event] = session.evaluate(case.request(event))

        threads = [
            threading.Thread(target=ask, args=(event,))
            for event in ("C(n0)", "C(n1) or C(n2)")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(builds) == 1
        for event, payload in payloads.items():
            assert payload == case.fresh(event)


class TestReuseIsVisible:
    def test_exact_reuse_reads_no_rows(self):
        case = _Case("irreducible")
        session = case.session()
        session.evaluate(case.request("C(n0)"))
        before = session.cache.stats()
        assert before["misses"] > 0
        payload = session.evaluate(case.request("C(n1) or C(n3)"))
        assert payload == case.fresh("C(n1) or C(n3)")
        after = session.cache.stats()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_reuse_runs_in_an_annotated_solve_phase(self, case):
        session = case.session()
        first = RunContext(tracer=Tracer(MemorySink()))
        session.evaluate(case.request(case.events[0]), first)
        assert not any("reused" in event for event in first.report().events)
        context = RunContext(tracer=Tracer(MemorySink()))
        session.evaluate(case.request(case.events[1]), context)
        spans = [
            r for r in context.tracer.sink.records if r.get("type") == "span"
        ]
        assert [span["name"] for span in spans] == ["solve"]
        assert spans[0]["attrs"]["reused"] is True
        report = context.report()
        assert report.phases["solve"].count == 1
        method = case.fresh(case.events[1])["method"]
        assert any(
            "reused" in event and method in event for event in report.events
        )

    @pytest.mark.parametrize("semantics", ["forever", "inflationary"])
    def test_ph001_answers_share_the_stored_solution(self, semantics):
        program = "C := rename[J->I](project[J](C join E)) union C"
        database = {"relations": {
            "C": {"columns": ["I"], "rows": [["a"]]},
            "E": {"columns": ["I", "J"], "rows": [["a", "b"], ["b", "c"]]},
        }}
        session = EngineSession.prepare(_request(semantics, program, database, "C(c)"))
        sampled = session.evaluate(
            _request(semantics, program, database, "C(c)", {"samples": 50})
        )
        assert sampled["hint_applied"] == "PH001"
        assert sampled["probability"] == "1"
        context = RunContext()
        exact = session.evaluate(
            _request(semantics, program, database, "not C(b)"), context
        )
        assert exact["probability"] == "0"
        assert any("reused" in event for event in context.report().events)
        assert len(session.solutions) == 1

    def test_sampling_requests_do_not_touch_the_store(self):
        case = _Case("irreducible")
        session = case.session()
        session.evaluate(
            case.request("C(n0)", {"mcmc": True, "samples": 20, "seed": 3})
        )
        assert len(session.solutions) == 0


# -- the one fixpoint pass against the path enumeration it replaced ---------


class _TooManyPaths(Exception):
    pass


def _enumerated_fixpoints(transition, initial, project=lambda s: s, cap=20_000):
    """The path enumeration the fixpoint pass replaced: expand a state
    once per path that reaches it, accumulating each path's weight."""
    outcomes: dict = {}
    expansions = 0

    def explore(state, weight: Fraction) -> None:
        nonlocal expansions
        expansions += 1
        if expansions > cap:
            raise _TooManyPaths
        row = transition(state)
        stay = as_fraction(row.probability(state))
        successors = [(t, as_fraction(p)) for t, p in row.items() if t != state]
        if not successors:
            final = project(state)
            outcomes[final] = outcomes.get(final, Fraction(0)) + weight
            return
        for target, probability in successors:
            explore(target, weight * probability / (1 - stay))

    explore(initial, Fraction(1))
    return Distribution(outcomes, normalise=False)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_fixpoint_pass_equals_path_enumeration(seed):
    program, edb = random_program(rng=seed)
    engine = InflationaryDatalogEngine(program, edb)
    try:
        reference = _enumerated_fixpoints(
            engine.transition, engine.initial_state(), engine.database_of
        )
    except (_TooManyPaths, RecursionError):
        assume(False)
    assert engine.fixpoint_distribution() == reference
    # The Prop 3.8 compiled kernel runs the same pass over databases.
    kernel = inflationary_interpretation_for_program(program, edb.schema())
    initial = inflationary_initial_database(program, edb)
    try:
        compiled = _enumerated_fixpoints(kernel.transition, initial)
    except (_TooManyPaths, RecursionError):
        assume(False)
    from repro.core.evaluation import inflationary_fixpoint_distribution

    event = parse_event(f"{program.idb_predicates()[0]}(a)")
    assert inflationary_fixpoint_distribution(
        InflationaryQuery(kernel, event), initial, max_states=100_000
    ) == compiled
