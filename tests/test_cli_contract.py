"""The CLI's exit-code and version contracts, as a parametrised matrix.

Exit codes are part of the tool's scripting interface (docs/cli
docstring): 0 success, 2 any library/input error, 130 interrupted.
These tests pin the contract across every subcommand so a new
subcommand cannot silently ship a different convention.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path

import pytest

import repro
from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps({
        "relations": {
            "e": {"columns": ["I", "J"], "rows": [["v", "w"]]},
            "C": {"columns": ["I"], "rows": [["a"]]},
            "E": {
                "columns": ["I", "J", "P"],
                "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]],
            },
            "Cold": {"columns": ["I"], "rows": []},
        }
    }))
    datalog = tmp_path / "reach.dl"
    datalog.write_text("c(v).\nc(Y) :- c(X), e(X, Y).\n")
    walk = tmp_path / "walk.ra"
    walk.write_text("C := rename[J->I](project[J](repair-key[I@P](C join E)))\n")
    reach = tmp_path / "reach.ra"
    reach.write_text(
        "Cold := C\n"
        "C := C union rename[J->I](project[J]("
        "repair-key[I@P]((C minus Cold) join E)))\n"
    )
    return {
        "db": str(db), "datalog": str(datalog),
        "walk": str(walk), "reach": str(reach),
    }


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_version_matches_pyproject(self, capsys):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = tomllib.loads(pyproject.read_text())["project"]["version"]
        with pytest.raises(SystemExit):
            main(["--version"])
        printed = capsys.readouterr().out.strip()
        assert printed == f"repro {declared}"
        assert repro.__version__ == declared


class TestExitZero:
    """Every evaluating subcommand returns 0 on a well-formed run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["datalog", "{datalog}", "--db", "{db}", "--event", "c(w)"],
            ["forever", "{walk}", "--db", "{db}", "--event", "C(b)"],
            ["forever", "{walk}", "--db", "{db}", "--event", "C(b)", "--lumped"],
            [
                "forever", "{walk}", "--db", "{db}", "--event", "C(b)",
                "--mcmc", "--samples", "50", "--seed", "3", "--burn-in", "8",
            ],
            ["inflationary", "{reach}", "--db", "{db}", "--event", "C(b)"],
            ["chain", "{walk}", "--db", "{db}"],
        ],
        ids=["datalog", "forever", "forever-lumped", "forever-mcmc",
             "inflationary", "chain"],
    )
    def test_success(self, workspace, capsys, argv):
        resolved = [part.format(**workspace) for part in argv]
        assert main(resolved) == 0
        assert capsys.readouterr().out


class TestExitTwo:
    """Library and input errors are exit 2 with a one-line message."""

    @pytest.mark.parametrize(
        "argv",
        [
            # missing file -> OSError
            ["datalog", "/nonexistent.dl", "--db", "{db}", "--event", "c(w)"],
            ["forever", "/nonexistent.ra", "--db", "{db}", "--event", "C(b)"],
            # malformed event -> ReproError
            ["forever", "{walk}", "--db", "{db}", "--event", "not an event"],
            # malformed database JSON -> JSONDecodeError
            ["chain", "{walk}", "--db", "{broken_db}"],
            # budget exhaustion -> BudgetExceededError (a ReproError)
            [
                "forever", "{walk}", "--db", "{db}", "--event", "C(b)",
                "--mcmc", "--samples", "50", "--seed", "3", "--max-steps", "1",
            ],
            # client cannot reach a server -> ServiceError
            ["jobs", "--health", "--url", "http://127.0.0.1:9"],
        ],
        ids=["missing-program", "missing-kernel", "bad-event",
             "broken-db-json", "budget-exhausted", "unreachable-service"],
    )
    def test_error(self, workspace, tmp_path, capsys, argv):
        broken_db = tmp_path / "broken.json"
        broken_db.write_text("{not json")
        workspace = dict(workspace, broken_db=str(broken_db))
        resolved = [part.format(**workspace) for part in argv]
        assert main(resolved) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")


class TestExitOneThirty:
    """Ctrl-C is exit 130; with --checkpoint the message names the file."""

    @pytest.mark.parametrize(
        ("target", "argv"),
        [
            (
                "repro.service.session.evaluate_datalog_exact",
                ["datalog", "{datalog}", "--db", "{db}", "--event", "c(w)"],
            ),
            (
                "repro.service.session.evaluate_forever_exact",
                ["forever", "{walk}", "--db", "{db}", "--event", "C(b)"],
            ),
            (
                "repro.service.session.evaluate_inflationary_exact",
                ["inflationary", "{reach}", "--db", "{db}", "--event", "C(b)"],
            ),
            (
                "repro.cli.build_state_chain",
                ["chain", "{walk}", "--db", "{db}"],
            ),
        ],
        ids=["datalog", "forever", "inflationary", "chain"],
    )
    def test_interrupt(self, workspace, capsys, monkeypatch, target, argv):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(target, interrupt)
        resolved = [part.format(**workspace) for part in argv]
        assert main(resolved) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_interrupt_after_checkpoint_names_the_file(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        checkpoint = tmp_path / "run.ckpt"

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.service.session.evaluate_forever_mcmc", interrupt
        )
        assert main([
            "forever", workspace["walk"], "--db", workspace["db"],
            "--event", "C(b)", "--mcmc", "--checkpoint", str(checkpoint),
        ]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert str(checkpoint) in err


class TestSubmitBody:
    """``repro submit`` forwards optional params only when given."""

    def _args(self, workspace, *extra):
        import argparse

        from repro.cli import build_arg_parser

        parser: argparse.ArgumentParser = build_arg_parser()
        return parser.parse_args([
            "submit", "forever", workspace["walk"],
            "--db", workspace["db"], "--event", "C(b)", *extra,
        ])

    def test_partition_auto_lands_in_params(self, workspace):
        from repro.cli import _submit_body

        body = _submit_body(self._args(workspace, "--partition", "auto"))
        assert body["params"]["partition"] == "auto"

    def test_partition_omitted_by_default(self, workspace):
        from repro.cli import _submit_body

        body = _submit_body(self._args(workspace))
        assert "partition" not in body.get("params", {})
