"""Direct tests for public helpers only exercised indirectly elsewhere."""

from fractions import Fraction

import pytest

from repro.cli import build_arg_parser
from repro.datalog import parse_rule, rule_choice_expression, strip_auxiliary
from repro.datalog.compiler import compile_body, head_projection
from repro.reductions import CNFFormula
from repro.relational import Database, Relation, enumerate_worlds, evaluate


class TestBuildArgParser:
    def test_subcommands_registered(self):
        parser = build_arg_parser()
        args = parser.parse_args(
            ["datalog", "p.dl", "--db", "d.json", "--event", "c(w)"]
        )
        assert args.command == "datalog"
        assert args.event == "c(w)"

    def test_missing_subcommand_rejected(self):
        parser = build_arg_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])


class TestClauseSatisfied:
    def test_per_clause_checks(self):
        formula = CNFFormula(2, [(1,), (-2,)])
        assert formula.clause_satisfied(0, [True, True])
        assert not formula.clause_satisfied(0, [False, True])
        assert formula.clause_satisfied(1, [True, False])
        assert not formula.clause_satisfied(1, [True, True])


class TestCompilerHelpers:
    SCHEMA = {"e": ("I", "J", "P")}
    DB = Database({"e": Relation(("I", "J", "P"), [("a", "b", 1), ("a", "c", 3)])})

    def test_head_projection_instantiates_constants_and_repeats(self):
        rule = parse_rule("h(X, X, v) :- e(X, Y, P).")
        body = compile_body(rule.body, self.SCHEMA)
        expr = head_projection(rule, body)
        result = evaluate(expr, self.DB)
        assert result.columns == ("c0", "c1", "c2")
        assert ("a", "a", "v") in result

    def test_rule_choice_expression_weighted(self):
        rule = parse_rule("h(X*, Y)@P :- e(X, Y, P).")
        body = compile_body(rule.body, self.SCHEMA)
        expr = rule_choice_expression(rule, body)
        worlds = enumerate_worlds(expr, self.DB)
        by_target = {next(iter(w))[1]: p for w, p in worlds.items()}
        assert by_target == {"b": Fraction(1, 4), "c": Fraction(3, 4)}

    def test_strip_auxiliary(self):
        db = Database(
            {
                "c": Relation(("c0",), []),
                "__oldvals_0": Relation((), []),
            }
        )
        stripped = strip_auxiliary(db)
        assert stripped.names() == ["c"]
