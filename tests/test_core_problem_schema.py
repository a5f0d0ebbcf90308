"""Unit tests for the core problem model and mapping schemas."""

from __future__ import annotations

import pytest

from repro.core import (
    ExplicitProblem,
    MappingSchema,
    single_reducer_schema,
)
from repro.exceptions import (
    ConfigurationError,
    ProblemDomainError,
    ReducerCapacityExceededError,
    UncoveredOutputError,
)


@pytest.fixture
def toy_problem() -> ExplicitProblem:
    """A small explicit problem: 4 inputs, 3 outputs with 2-input dependencies."""
    return ExplicitProblem(
        inputs=["i1", "i2", "i3", "i4"],
        output_dependencies={
            "o12": ["i1", "i2"],
            "o23": ["i2", "i3"],
            "o34": ["i3", "i4"],
        },
        name="toy",
    )


class TestExplicitProblem:
    def test_counts(self, toy_problem):
        assert toy_problem.num_inputs == 4
        assert toy_problem.num_outputs == 3

    def test_inputs_of(self, toy_problem):
        assert toy_problem.inputs_of("o12") == frozenset({"i1", "i2"})

    def test_inputs_of_unknown_output(self, toy_problem):
        with pytest.raises(ProblemDomainError):
            toy_problem.inputs_of("nope")

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ProblemDomainError):
            ExplicitProblem(["a", "a"], {"o": ["a"]})

    def test_empty_dependency_rejected(self):
        with pytest.raises(ProblemDomainError):
            ExplicitProblem(["a"], {"o": []})

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ProblemDomainError):
            ExplicitProblem(["a"], {"o": ["b"]})

    def test_outputs_covered_by(self, toy_problem):
        covered = toy_problem.outputs_covered_by(["i1", "i2", "i3"])
        assert covered == {"o12", "o23"}

    def test_dependency_index(self, toy_problem):
        index = toy_problem.dependency_index()
        assert set(index["i2"]) == {"o12", "o23"}
        assert set(index["i4"]) == {"o34"}

    def test_default_g_counts_eligible_outputs(self, toy_problem):
        assert toy_problem.max_outputs_covered(1) == 0.0
        assert toy_problem.max_outputs_covered(2) == 3.0

    def test_is_enumerable(self, toy_problem):
        assert toy_problem.is_enumerable()

    def test_describe(self, toy_problem):
        info = toy_problem.describe()
        assert info["name"] == "toy"
        assert info["num_inputs"] == 4

    def test_validate_output_by_enumeration(self, toy_problem):
        toy_problem.validate_output("o12")
        with pytest.raises(ProblemDomainError):
            toy_problem.validate_output("o99")


class TestMappingSchema:
    def test_rejects_nonpositive_q(self, toy_problem):
        with pytest.raises(ConfigurationError):
            MappingSchema(toy_problem, q=0)

    def test_replication_rate(self, toy_problem):
        schema = MappingSchema(
            toy_problem,
            q=2,
            assignments={"r1": ["i1", "i2"], "r2": ["i2", "i3"], "r3": ["i3", "i4"]},
        )
        assert schema.total_assigned() == 6
        assert schema.replication_rate() == pytest.approx(1.5)
        assert schema.num_reducers == 3
        assert schema.max_reducer_size() == 2

    def test_reducers_of(self, toy_problem):
        schema = MappingSchema(
            toy_problem, q=2, assignments={"r1": ["i1", "i2"], "r2": ["i2", "i3"]}
        )
        assert set(schema.reducers_of("i2")) == {"r1", "r2"}
        assert schema.reducers_of("i4") == []

    def test_validate_ok(self, toy_problem):
        schema = MappingSchema(
            toy_problem,
            q=2,
            assignments={"r1": ["i1", "i2"], "r2": ["i2", "i3"], "r3": ["i3", "i4"]},
        )
        report = schema.validate()
        assert report.valid
        report.raise_if_invalid()  # must not raise

    def test_validate_detects_overfull_reducer(self, toy_problem):
        schema = MappingSchema(
            toy_problem,
            q=2,
            assignments={"r1": ["i1", "i2", "i3", "i4"]},
        )
        report = schema.validate()
        assert not report.valid
        assert report.overfull_reducers == {"r1": 4}
        with pytest.raises(ReducerCapacityExceededError):
            report.raise_if_invalid()

    def test_validate_detects_uncovered_output(self, toy_problem):
        schema = MappingSchema(
            toy_problem, q=2, assignments={"r1": ["i1", "i2"], "r2": ["i2", "i3"]}
        )
        report = schema.validate()
        assert not report.valid
        assert "o34" in report.uncovered_outputs
        with pytest.raises(UncoveredOutputError):
            report.raise_if_invalid()

    def test_covers_and_covering_reducers(self, toy_problem):
        schema = MappingSchema(
            toy_problem,
            q=3,
            assignments={"r1": ["i1", "i2", "i3"], "r2": ["i3", "i4"]},
        )
        assert schema.covers("o12")
        assert schema.covers("o23")
        assert schema.covering_reducers("o23") == ["r1"]
        assert schema.covering_reducers("o34") == ["r2"]

    def test_routing_table_and_router(self, toy_problem):
        schema = MappingSchema(
            toy_problem, q=2, assignments={"r1": ["i1", "i2"], "r2": ["i2", "i3"]}
        )
        table = schema.routing_table()
        assert set(table["i2"]) == {"r1", "r2"}
        router = schema.as_router()
        assert set(router("i2")) == {"r1", "r2"}
        assert router("i4") == []

    def test_iteration(self, toy_problem):
        schema = MappingSchema(toy_problem, assignments={"r1": ["i1"]})
        reducers = dict(iter(schema))
        assert reducers == {"r1": frozenset({"i1"})}

    def test_assign_one_accumulates(self, toy_problem):
        schema = MappingSchema(toy_problem)
        schema.assign_one("r", "i1")
        schema.assign_one("r", "i2")
        assert schema.reducer_sizes() == {"r": 2}


class TestCannedSchemas:
    def test_single_reducer_schema(self, toy_problem):
        schema = single_reducer_schema(toy_problem)
        assert schema.replication_rate() == pytest.approx(1.0)
        assert schema.validate().valid

    def test_canned_schemas_on_hamming(self, hamming6):
        single = single_reducer_schema(hamming6)
        assert single.validate().valid
        assert single.replication_rate() == pytest.approx(1.0)
