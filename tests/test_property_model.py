"""Property-based tests (hypothesis) on the core model invariants.

These tests check the structural claims the paper's arguments rest on:

* Lemma 3.1 — no set of q bit strings covers more than (q/2)·log2 q
  distance-1 pairs;
* any valid mapping schema satisfies the covering inequality Σ g(q_i) >= |O|
  and never beats the recipe lower bound on replication rate;
* the extremal coverage claims behind the other g(q) bounds.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from recipe_oracle import covering_inequality_holds
from repro.core.mapping_schema import MappingSchema
from repro.problems import (
    HammingDistanceProblem,
    MatrixMultiplicationProblem,
    TriangleProblem,
    TwoPathProblem,
    hamming_g,
    matmul_g,
    triangle_g,
)

BITS = 5
HAMMING = HammingDistanceProblem(BITS)
TRIANGLES = TriangleProblem(8)
TWO_PATHS = TwoPathProblem(7)
MATMUL = MatrixMultiplicationProblem(3)


@st.composite
def bitstring_subsets(draw):
    universe = list(range(2 ** BITS))
    return draw(st.sets(st.sampled_from(universe), min_size=1, max_size=16))


@st.composite
def edge_subsets(draw):
    universe = list(TRIANGLES.inputs())
    return draw(st.sets(st.sampled_from(universe), min_size=1, max_size=16))


@st.composite
def two_path_edge_subsets(draw):
    universe = list(TWO_PATHS.inputs())
    return draw(st.sets(st.sampled_from(universe), min_size=1, max_size=14))


@st.composite
def matmul_input_subsets(draw):
    universe = list(MATMUL.inputs())
    return draw(st.sets(st.sampled_from(universe), min_size=1, max_size=14))


class TestLemma31Property:
    @given(bitstring_subsets())
    @settings(max_examples=200, deadline=None)
    def test_no_reducer_beats_g(self, subset):
        covered = HAMMING.outputs_covered_by(subset)
        assert len(covered) <= hamming_g(len(subset)) + 1e-9

    @given(st.integers(min_value=1, max_value=BITS))
    @settings(max_examples=20, deadline=None)
    def test_subcubes_attain_g_exactly(self, dimension):
        subcube = list(range(2 ** dimension))
        covered = HAMMING.outputs_covered_by(subcube)
        assert len(covered) == int(round(hamming_g(2 ** dimension)))


class TestTriangleCoverageProperty:
    @given(edge_subsets())
    @settings(max_examples=200, deadline=None)
    def test_no_reducer_beats_g(self, subset):
        covered = TRIANGLES.outputs_covered_by(subset)
        assert len(covered) <= triangle_g(len(subset)) + 1e-9

    @given(edge_subsets())
    @settings(max_examples=100, deadline=None)
    def test_exact_extremal_dominates_random_sets(self, subset):
        covered = TRIANGLES.outputs_covered_by(subset)
        assert len(covered) <= TRIANGLES.max_outputs_covered_exact(len(subset))


class TestTwoPathCoverageProperty:
    @given(two_path_edge_subsets())
    @settings(max_examples=200, deadline=None)
    def test_no_reducer_beats_g(self, subset):
        covered = TWO_PATHS.outputs_covered_by(subset)
        assert len(covered) <= TWO_PATHS.max_outputs_covered(len(subset)) + 1e-9


class TestMatmulCoverageProperty:
    @given(matmul_input_subsets())
    @settings(max_examples=200, deadline=None)
    def test_no_reducer_beats_g(self, subset):
        covered = MATMUL.outputs_covered_by(subset)
        assert len(covered) <= matmul_g(len(subset), MATMUL.n) + 1e-9


@st.composite
def random_valid_hamming_schemas(draw):
    """Random schemas built by adding covering reducers for every output.

    The construction: every output pair gets a dedicated reducer (ensuring
    coverage), and additionally some random reducers with random input sets
    are thrown in.  The result is always a valid schema, with varying q.
    """
    problem = HammingDistanceProblem(4)
    schema = MappingSchema(problem, q=None, name="random-valid")
    for index, output in enumerate(problem.outputs()):
        schema.assign(("pair", index), problem.inputs_of(output))
    extra_reducers = draw(st.integers(min_value=0, max_value=5))
    universe = list(range(16))
    for extra_index in range(extra_reducers):
        members = draw(st.sets(st.sampled_from(universe), min_size=1, max_size=8))
        schema.assign(("extra", extra_index), members)
    schema.q = schema.max_reducer_size()
    return schema


class TestSchemaInvariants:
    @given(random_valid_hamming_schemas())
    @settings(max_examples=50, deadline=None)
    def test_valid_schemas_satisfy_covering_inequality(self, schema):
        problem = schema.problem
        assert schema.validate().valid
        sizes = list(schema.reducer_sizes().values())
        assert covering_inequality_holds(
            sizes, problem.max_outputs_covered, problem.num_outputs
        )

    @given(random_valid_hamming_schemas())
    @settings(max_examples=50, deadline=None)
    def test_valid_schemas_respect_recipe_lower_bound(self, schema):
        problem = schema.problem
        q = schema.max_reducer_size()
        bound = problem.replication_lower_bound(q)
        assert schema.replication_rate() >= bound - 1e-9

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_recipe_monotone_in_q(self, exponent):
        """The Hamming lower bound decreases as reducers get larger."""
        problem = HammingDistanceProblem(10)
        smaller = problem.replication_lower_bound(2 ** (exponent - 1))
        larger = problem.replication_lower_bound(2 ** exponent)
        assert larger <= smaller + 1e-9


class TestGMonotonicityProperty:
    @given(st.floats(min_value=2.0, max_value=1e6), st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_hamming_g_ratio_monotone(self, q, factor):
        assert hamming_g(q * factor) / (q * factor) >= hamming_g(q) / q - 1e-9

    @given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_triangle_g_ratio_monotone(self, q, factor):
        assert triangle_g(q * factor) / (q * factor) >= triangle_g(q) / q - 1e-9
