"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_event
from repro.errors import ReproError


@pytest.fixture
def workspace(tmp_path):
    """Program, kernel, and database files for CLI runs."""
    db = tmp_path / "db.json"
    db.write_text(
        json.dumps(
            {
                "relations": {
                    "e": {"columns": ["I", "J"], "rows": [["v", "w"], ["v", "u"]]},
                    "C": {"columns": ["I"], "rows": [["a"]]},
                    "E": {
                        "columns": ["I", "J", "P"],
                        "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]],
                    },
                    "Cold": {"columns": ["I"], "rows": []},
                }
            }
        )
    )
    program = tmp_path / "reach.dl"
    program.write_text(
        "c(v).\nc2(X*, Y) :- c(X), e(X, Y).\nc(Y) :- c2(X, Y).\n"
    )
    walk = tmp_path / "walk.ra"
    walk.write_text("C := rename[J->I](project[J](repair-key[I@P](C join E)))\n")
    reach = tmp_path / "reach.ra"
    reach.write_text(
        "Cold := C\n"
        "C := C union rename[J->I](project[J]("
        "repair-key[I@P]((C minus Cold) join E)))\n"
    )
    return {"db": str(db), "program": str(program), "walk": str(walk), "reach": str(reach)}


class TestParseEvent:
    def test_simple(self):
        event = parse_event("c(w)")
        assert event.relation == "c"
        assert event.row == ("w",)

    def test_typed_values(self):
        event = parse_event("r(3, 1/2, 'two words', plain)")
        from fractions import Fraction

        assert event.row == (3, Fraction(1, 2), "two words", "plain")

    def test_zero_arity(self):
        assert parse_event("q()").row == ()

    def test_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_event("not an event")

    def test_compound_events(self):
        from repro.core.events import AndEvent, NotEvent, OrEvent

        both = parse_event("C(b) and D(a)")
        assert isinstance(both, AndEvent)
        assert both.left.relation == "C" and both.right.relation == "D"
        either = parse_event("C(b) or not D(a)")
        assert isinstance(either, OrEvent)
        assert isinstance(either.right, NotEvent)
        # 'and' binds tighter than 'or'; parentheses override.
        assert isinstance(parse_event("C(b) and D(a) or E(c)"), OrEvent)
        assert isinstance(parse_event("C(b) and (D(a) or E(c))"), AndEvent)
        # 'not' directly before '(' is still the combinator.
        negated = parse_event("not (C(b) and D(a))")
        assert isinstance(negated, NotEvent)
        assert isinstance(negated.inner, AndEvent)

    def test_compound_event_rejects_dangling_operator(self):
        with pytest.raises(ReproError):
            parse_event("C(b) and")
        with pytest.raises(ReproError):
            parse_event("C(b) D(a)")
        with pytest.raises(ReproError):
            parse_event("(C(b)")


class TestDatalogCommand:
    def test_exact(self, workspace, capsys):
        code = main(
            ["datalog", workspace["program"], "--db", workspace["db"], "--event", "c(w)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "probability: 1/2" in out

    def test_sampling(self, workspace, capsys):
        code = main(
            [
                "datalog",
                workspace["program"],
                "--db",
                workspace["db"],
                "--event",
                "c(w)",
                "--samples",
                "400",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method: datalog-thm-4.3" in out

    def test_json_output(self, workspace, capsys):
        code = main(
            [
                "datalog",
                workspace["program"],
                "--db",
                workspace["db"],
                "--event",
                "c(w)",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probability"] == "1/2"


class TestForeverCommand:
    def test_exact(self, workspace, capsys):
        code = main(
            ["forever", workspace["walk"], "--db", workspace["db"], "--event", "C(b)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/3" in out
        assert "irreducible: True" in out

    def test_mcmc(self, workspace, capsys):
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--mcmc",
                "--samples",
                "200",
                "--burn-in",
                "20",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "method: thm-5.6" in capsys.readouterr().out


class TestInflationaryCommand:
    def test_exact(self, workspace, capsys):
        code = main(
            [
                "inflationary",
                workspace["reach"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
            ]
        )
        assert code == 0
        assert "probability: 1" in capsys.readouterr().out


class TestChainCommand:
    def test_report(self, workspace, capsys):
        code = main(["chain", workspace["walk"], "--db", workspace["db"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "irreducible: True" in out
        assert "mixing_time_0.25" in out


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        code = main(
            ["datalog", "/nonexistent.dl", "--db", workspace["db"], "--event", "c(w)"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_event(self, workspace, capsys):
        code = main(
            [
                "datalog",
                workspace["program"],
                "--db",
                workspace["db"],
                "--event",
                "???",
            ]
        )
        assert code == 2

    def test_non_inflationary_kernel_rejected(self, workspace, capsys):
        code = main(
            [
                "inflationary",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
            ]
        )
        assert code == 2
        assert "not inflationary" in capsys.readouterr().err


class TestResourceLimits:
    def test_timeout_exhausted_exits_2(self, workspace, capsys):
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--timeout",
                "0",
            ]
        )
        assert code == 2
        assert "wall-clock budget" in capsys.readouterr().err

    def test_step_budget_exhausted_exits_2(self, workspace, capsys):
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--mcmc",
                "--samples",
                "200",
                "--burn-in",
                "20",
                "--seed",
                "1",
                "--max-steps",
                "50",
            ]
        )
        assert code == 2
        assert "step budget" in capsys.readouterr().err

    def test_fallback_auto_records_downgrade(self, workspace, capsys):
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--fallback",
                "auto",
                "--max-states",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # the auto ladder's first fallback is the certified sparse rung
        assert abs(payload["probability_float"] - 1 / 3) <= (
            payload["certificate"]["bound"]
        )
        assert payload["certificate"]["satisfied"] is True
        assert payload["downgrades"][0]["from"] == "exact"
        assert payload["downgrades"][0]["to"] == "sparse"

    def test_checkpoint_resume_matches_uninterrupted(
        self, workspace, capsys, tmp_path
    ):
        mcmc = [
            "forever",
            workspace["walk"],
            "--db",
            workspace["db"],
            "--event",
            "C(b)",
            "--mcmc",
            "--samples",
            "200",
            "--burn-in",
            "20",
            "--seed",
            "1",
            "--json",
        ]
        assert main(mcmc) == 0
        full = json.loads(capsys.readouterr().out)

        path = tmp_path / "cli.ckpt"
        code = main(mcmc + ["--max-steps", "1234", "--checkpoint", str(path)])
        assert code == 2
        capsys.readouterr()
        assert path.exists()

        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--resume",
                str(path),
                "--json",
            ]
        )
        assert code == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["estimate"] == full["estimate"]
        assert resumed["resumed_at"] > 0

    def test_keyboard_interrupt_exits_130(self, workspace, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.service.session.evaluate_forever_mcmc", interrupted
        )
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--mcmc",
                "--checkpoint",
                "progress.ckpt",
            ]
        )
        assert code == 130
        assert "progress saved to progress.ckpt" in capsys.readouterr().err


class TestLumpedFlag:
    def test_forever_lumped(self, workspace, capsys):
        code = main(
            [
                "forever",
                workspace["walk"],
                "--db",
                workspace["db"],
                "--event",
                "C(b)",
                "--lumped",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method: lumped" in out
        assert "probability: 1/3" in out
        assert "full_states: 2" in out and "quotient_states: 2" in out


class TestOneParserPerProcess:
    def test_successive_calls_match_a_fresh_parser(self, workspace, capsys, monkeypatch):
        """``main`` builds its parser once; each call's payload (and exit
        status, bad flags included) is the one a fresh parser gives."""
        import repro.cli as cli

        walk = ["--db", workspace["db"], "--event", "C(b)", "--json"]
        calls = [
            ["forever", workspace["walk"], *walk],
            ["chain", workspace["walk"], "--db", workspace["db"], "--json"],
            ["forever", workspace["walk"], *walk, "--no-such-flag"],
            ["datalog", workspace["program"], "--db", workspace["db"],
             "--event", "c(w)", "--json"],
            ["forever", workspace["walk"], *walk, "--backend", "frozenset"],
            ["forever", workspace["walk"], *walk, "--samples", "0"],
            ["inflationary", workspace["reach"], *walk],
            ["forever", workspace["walk"], *walk, "--lumped"],
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        built = []
        build = cli.build_arg_parser
        monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        shared = [run(argv) for argv in calls]
        assert len(built) == 1
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _out, _err in shared] == [0, 0, 2, 0, 0, 2, 0, 0]
        assert "unrecognized arguments: --no-such-flag" in shared[2][2]
        assert cli.build_arg_parser() is not cli.build_arg_parser()


class TestBackendDefault:
    def test_forever_runs_compiled_by_default(self, workspace, capsys):
        """A forever-query runs on the compiled kernel unless it asks for
        the interpreter; both give the same exact answer."""
        args = ["forever", workspace["walk"], "--db", workspace["db"],
                "--event", "C(b)", "--json"]
        assert main(args) == 0
        default = json.loads(capsys.readouterr().out)
        assert main([*args, "--backend", "frozenset"]) == 0
        interpreted = json.loads(capsys.readouterr().out)
        assert default.pop("backend") == "columnar"
        assert "backend" not in interpreted
        assert default == interpreted
        assert default["probability"] == "1/3"

    def test_inflationary_stays_on_the_interpreter(self, workspace, capsys):
        args = ["inflationary", workspace["reach"], "--db", workspace["db"],
                "--event", "C(b)", "--json"]
        assert main(args) == 0
        assert "backend" not in json.loads(capsys.readouterr().out)
