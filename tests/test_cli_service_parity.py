"""Contract: the CLI and the service give the same answer.

``repro forever|inflationary|datalog`` evaluate the request body that
``repro submit`` sends, in-process, on an
:class:`~repro.service.EngineSession` of their own.  For every rung
below, the CLI's ``--json`` payload must equal, key for key, what a
prepared service session returns for the ``repro submit`` body built
from the same flags.

The seeded sampling cases pass ``--cache-size 0``: a prepared session
walks on its warm transition cache by default, and cached Theorem 5.6
draws take a different (equally valid) random stream than uncached ones
(``docs/performance.md``); ``cache_size: 0`` is the request param that
opts out on both sides.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _submit_body, build_arg_parser, main
from repro.service import EngineSession, QueryRequest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"

WALK = "C := rename[J->I](project[J](repair-key[I@P](C join E)))\n"
REACH = (
    "Cold := C\n"
    "C := C union rename[J->I](project[J]("
    "repair-key[I@P]((C minus Cold) join E)))\n"
)
DATALOG = "c(v).\nc2(X*, Y) :- c(X), e(X, Y).\nc(Y) :- c2(X, Y).\n"
PC_DATALOG = "r(q0).\nr(Y) :- r(X), o(X, Y), cl(Y, L), a(L).\ndone(x) :- r(q1).\n"

#: The walk's long-run answer P(C(b)) is 1/3.
WALK_DATABASE = {
    "relations": {
        "C": {"columns": ["I"], "rows": [["a"]]},
        "E": {
            "columns": ["I", "J", "P"],
            "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]],
        },
    }
}
DATABASE = {
    "relations": {
        "e": {"columns": ["I", "J"], "rows": [["v", "w"], ["v", "u"]]},
        "C": {"columns": ["I"], "rows": [["a"]]},
        "E": {
            "columns": ["I", "J", "P"],
            "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1], ["b", "c", 2]],
        },
        "Cold": {"columns": ["I"], "rows": []},
    }
}
PC_DATABASE = {
    "relations": {
        "o": {"columns": ["C1", "C2"], "rows": [["q0", "q1"]]},
        "cl": {"columns": ["C", "L"], "rows": [["q1", "v1"]]},
    }
}
PC_TABLES = {
    "variables": {"x1": {"values": [0, 1], "weights": [1, 3]}},
    "tables": {
        "a": {
            "columns": ["L"],
            "entries": [
                {"row": ["v1"], "condition": {"var": "x1", "equals": 1}},
                {"row": ["nv1"], "condition": {"var": "x1", "not_equals": 1}},
            ],
        }
    },
}

SAMPLED = ["--samples", "120", "--seed", "7", "--cache-size", "0"]

EXACT = {"kind": "exact"}
SPARSE = {"kind": "sparse"}
SAMPLING = {"kind": "sampling"}
COLUMNAR = {"backend": "columnar"}
PH001 = {"hint_applied": "PH001"}

#: case -> (facts its payload must show, CLI argv).  The facts pin the
#: rung each case is meant to reach, so parity is never checked on a
#: case that quietly took another one.
CASES = {
    "forever-exact": (
        {**EXACT, "method": "prop-5.4"},
        ["forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)"],
    ),
    "forever-lumped": (
        {**EXACT, "method": "lumped"},
        ["forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)", "--lumped"],
    ),
    "forever-sparse": (
        SPARSE,
        [
            "forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)",
            "--backend", "sparse", "--epsilon", "1e-9",
        ],
    ),
    "forever-mcmc": (
        {**SAMPLING, "method": "thm-5.6"},
        [
            "forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)",
            "--mcmc", "--burn-in", "12", *SAMPLED,
        ],
    ),
    "forever-partition": (
        {**EXACT, "method": "partition-exact"},
        [
            "forever", str(EXAMPLES / "two_walkers.ra"),
            "--db", str(EXAMPLES / "two_walkers.db.json"),
            "--event", "C(b) and D(a)", "--partition", "auto",
        ],
    ),
    "forever-fallback": (
        SPARSE,
        [
            "forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)",
            "--fallback", "auto", "--max-states", "1",
        ],
    ),
    "inflationary-exact": (
        {**EXACT, "method": "prop-4.4"},
        ["inflationary", "{reach}", "--db", "{db}", "--event", "C(c)"],
    ),
    "inflationary-sampled": (
        {**SAMPLING, "method": "thm-4.3"},
        ["inflationary", "{reach}", "--db", "{db}", "--event", "C(c)", *SAMPLED],
    ),
    # PH001: sampling asked of a choice-free program is answered exactly
    "inflationary-deterministic": (
        {**EXACT, **PH001},
        [
            "inflationary", str(EXAMPLES / "deterministic_reach.ra"),
            "--db", str(EXAMPLES / "deterministic_reach.db.json"),
            "--event", "C(c)", *SAMPLED,
        ],
    ),
    "inflationary-columnar": (
        {**EXACT, **COLUMNAR},
        [
            "inflationary", "{reach}", "--db", "{db}", "--event", "C(c)",
            "--backend", "columnar",
        ],
    ),
    # --workers only fans sampling out: an exact answer stays columnar
    "inflationary-columnar-workers": (
        {**EXACT, **COLUMNAR},
        [
            "inflationary", "{reach}", "--db", "{db}", "--event", "C(c)",
            "--backend", "columnar", "--workers", "2",
        ],
    ),
    "inflationary-deterministic-columnar-workers": (
        {**EXACT, **PH001, **COLUMNAR},
        [
            "inflationary", str(EXAMPLES / "deterministic_reach.ra"),
            "--db", str(EXAMPLES / "deterministic_reach.db.json"),
            "--event", "C(c)", *SAMPLED, "--backend", "columnar",
            "--workers", "2",
        ],
    ),
    "datalog-exact": (
        {**EXACT, "method": "datalog-exact"},
        ["datalog", "{datalog}", "--db", "{db}", "--event", "c(w)"],
    ),
    "datalog-sampled": (
        {**SAMPLING, "method": "datalog-thm-4.3"},
        [
            "datalog", "{datalog}", "--db", "{db}", "--event", "c(w)",
            "--samples", "120", "--seed", "7",
        ],
    ),
    "datalog-pc": (
        {**EXACT, "pc_worlds": 2},
        [
            "datalog", "{pc_datalog}", "--db", "{pc_db}", "--pc", "{pc}",
            "--event", "done(x)",
        ],
    ),
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("walk", WALK), ("reach", REACH), ("datalog", DATALOG),
        ("pc_datalog", PC_DATALOG),
        ("walk_db", json.dumps(WALK_DATABASE)), ("db", json.dumps(DATABASE)),
        ("pc_db", json.dumps(PC_DATABASE)),
        ("pc", json.dumps(PC_TABLES)),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def service_payload(argv: list[str]) -> dict:
    """``EngineSession.prepare(req).evaluate(req)`` on the body
    ``repro submit`` sends for these flags, rendered as JSON."""
    args = build_arg_parser().parse_args(["submit", *argv])
    request = QueryRequest.from_json(_submit_body(args))
    payload = EngineSession.prepare(request).evaluate(request)
    return json.loads(json.dumps(payload, default=str))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_answers_like_the_service(case, files, capsys):
    facts, argv = CASES[case]
    argv = [part.format(**files) for part in argv]
    assert main([*argv, "--json"]) == 0
    cli = json.loads(capsys.readouterr().out)
    assert {key: cli.get(key) for key in facts} == facts
    assert cli == service_payload(argv)


def test_cases_cover_every_answer_kind():
    reached = {
        (facts["kind"], facts.get("method") == "partition-exact")
        for facts, _ in CASES.values()
    }
    assert reached == {
        ("exact", False), ("exact", True), ("sparse", False), ("sampling", False),
    }


def test_every_evaluation_flag_reaches_the_request(files):
    args = build_arg_parser().parse_args([
        "forever", files["walk"], "--db", files["walk_db"], "--event", "C(b)",
        "--samples", "5", "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
        "--max-states", "9", "--burn-in", "4", "--workers", "2",
        "--cache-size", "8", "--backend", "columnar", "--partition", "auto",
        "--fallback", "auto", "--mcmc", "--lumped",
        "--timeout", "5", "--max-steps", "70",
    ])
    body = _submit_body(args)
    assert body["params"] == {
        "samples": 5, "epsilon": 0.2, "delta": 0.1, "seed": 3,
        "max_states": 9, "burn_in": 4, "workers": 2, "cache_size": 8,
        "backend": "columnar", "partition": "auto", "fallback": "auto",
        "mcmc": True, "lumped": True,
    }
    assert body["budget"] == {"timeout": 5.0, "max_steps": 70}
