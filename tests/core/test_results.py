"""Unit tests for the evaluator result types and error hierarchy."""

from fractions import Fraction

import pytest

from repro.core.evaluation import ExactResult, SamplingResult
from repro.errors import (
    AlgebraError,
    ConditionError,
    DatalogError,
    DatalogParseError,
    EvaluationError,
    MarkovChainError,
    NotInflationaryError,
    ProbabilityError,
    ReproError,
    SchemaError,
    StateSpaceLimitExceeded,
)


class TestExactResult:
    def test_fields(self):
        result = ExactResult(Fraction(1, 2), 10, "prop-4.4", {"pc_worlds": 2})
        assert result.probability == Fraction(1, 2)
        assert result.details["pc_worlds"] == 2

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ExactResult(Fraction(3, 2), 1, "x")
        with pytest.raises(ValueError):
            ExactResult(Fraction(-1, 2), 1, "x")

    def test_frozen(self):
        result = ExactResult(Fraction(0), 1, "x")
        with pytest.raises(AttributeError):
            result.probability = Fraction(1)


class TestSamplingResult:
    def test_fields(self):
        result = SamplingResult(0.5, 100, 50, 0.1, 0.05, "thm-4.3")
        assert result.estimate == 0.5

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            SamplingResult(0.5, 0, 0, None, None, "x")

    def test_positive_count_validated(self):
        with pytest.raises(ValueError):
            SamplingResult(0.5, 10, 11, None, None, "x")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            SchemaError,
            AlgebraError,
            ProbabilityError,
            ConditionError,
            DatalogError,
            DatalogParseError,
            MarkovChainError,
            EvaluationError,
            StateSpaceLimitExceeded,
            NotInflationaryError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_specialisations(self):
        assert issubclass(AlgebraError, SchemaError)
        assert issubclass(DatalogParseError, DatalogError)
        assert issubclass(StateSpaceLimitExceeded, EvaluationError)
        assert issubclass(NotInflationaryError, EvaluationError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise StateSpaceLimitExceeded("boom")
