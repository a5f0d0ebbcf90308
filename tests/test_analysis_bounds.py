"""Unit tests for the closed-form bounds (Tables 1 and 2) and their consistency.

Table 1's lower bounds live on the problem classes; each analytic g(q) is
also checked against the exact maximum coverage of every input subset of a
small instance.  Table 2's upper bounds live next to their schemas; each is
checked against its construction executed on a small full domain.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datagen import integer_matrix, multiplication_records
from repro.exceptions import ConfigurationError
from repro.mapreduce import MapReduceEngine
from repro.problems import (
    HammingDistanceProblem,
    JoinQuery,
    MatrixMultiplicationProblem,
    MultiwayJoinProblem,
    RelationSchema,
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
    star_join_replication_lower_bound,
)
from repro.problems.sparse import (
    edge_target_reducer_size,
    overload_probability,
    target_reducer_size,
)
from repro.reports import table1_rows, table2_rows
from repro.schemas import (
    OnePhaseTilingSchema,
    PartitionTriangleSchema,
    SplittingSchema,
    TwoPathSchema,
    alon_upper_bound_edges,
    chain_join_replication_upper_bound,
    hamming1_achievable_upper_bound,
    hamming1_upper_bound,
    matmul_upper_bound,
    triangle_upper_bound,
    two_path_upper_bound,
)


class TestHammingBounds:
    def test_lower_bound_closed_form(self):
        problem = HammingDistanceProblem(20)
        assert problem.lower_bound(2 ** 5) == pytest.approx(4.0)
        assert problem.lower_bound(2 ** 20) == pytest.approx(1.0)
        assert problem.lower_bound(1) == float("inf")

    def test_lower_bound_validation(self):
        with pytest.raises(ConfigurationError):
            HammingDistanceProblem(0)

    def test_recipe_agrees_with_closed_form(self):
        problem = HammingDistanceProblem(16)
        for exponent in (2, 4, 8, 16):
            q = 2 ** exponent
            assert problem.replication_lower_bound(q) == pytest.approx(problem.lower_bound(q))

    def test_upper_bound_matches_lower_bound(self):
        problem = HammingDistanceProblem(20)
        for exponent in (2, 4, 5, 10, 20):
            q = 2 ** exponent
            assert hamming1_upper_bound(20, q) == pytest.approx(problem.lower_bound(q))

    def test_achievable_upper_bound_uses_divisors(self):
        # b = 12, q = 2^5: the largest feasible segment count is c = 3
        # (reducer size 2^4 <= 32); c = 2 would need reducers of 2^6 > 32.
        assert hamming1_achievable_upper_bound(12, 2 ** 5) == 3.0
        assert hamming1_achievable_upper_bound(12, 2 ** 12) == 1.0
        assert hamming1_achievable_upper_bound(12, 1) == float("inf")

    def test_achievable_never_beats_ideal(self):
        """``b / log2 q`` is Table 2's idealization of the Splitting rate: it
        never exceeds the achievable rate and equals it when log2 q | b."""
        for b in (6, 8, 12):
            for q in range(2, 2 ** b + 1):
                ideal = hamming1_upper_bound(b, q)
                assert hamming1_achievable_upper_bound(b, q) >= ideal - 1e-9
                if q & (q - 1) == 0 and b % (q.bit_length() - 1) == 0:
                    assert hamming1_achievable_upper_bound(b, q) == pytest.approx(ideal)


class TestTriangleAndSubgraphBounds:
    def test_triangle_lower_bound(self):
        problem = TriangleProblem(100)
        assert problem.lower_bound(50) == pytest.approx(10.0)
        assert problem.lower_bound(0) == float("inf")
        with pytest.raises(ConfigurationError):
            TriangleProblem(2)

    def test_triangle_recipe_agrees(self):
        # Exact |I| = C(n,2) and |O| = C(n,3) turn the paper's n/√(2q) into
        # exactly (n-2)/√(2q).
        problem = TriangleProblem(100)
        assert problem.replication_lower_bound(8) == pytest.approx(24.5)
        for q in (8, 50, 200, 5000):
            assert problem.replication_lower_bound(q) == pytest.approx(
                max(1.0, 98 / math.sqrt(2.0 * q)), rel=1e-12
            )

    def test_triangle_sparse_bound(self):
        assert TriangleProblem(100).lower_bound_sparse(100, m=10_000) == pytest.approx(10.0)

    def test_triangle_upper_vs_lower_constant(self):
        problem = TriangleProblem(1000)
        for q in (50, 500, 5000):
            upper = triangle_upper_bound(1000, q)
            lower = problem.lower_bound(q)
            assert 1.0 <= upper / lower <= 3.01

    def test_alon_bounds(self):
        problem = SampleGraphProblem(100, SampleGraph.clique(4))
        assert problem.lower_bound(100) == pytest.approx(100.0)
        assert problem.lower_bound_sparse(100, m=10_000) == pytest.approx(100.0)
        assert alon_upper_bound_edges(10_000, 4, 100) == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            SampleGraph([])  # fewer than two nodes

    def test_alon_recipe_matches_order(self):
        # Exact |O| = C(n,3) for the triangle sample gives (n-2)/(3√q): the
        # (n/√q)^{s-2} shape up to its dropped constant.
        problem = SampleGraphProblem(100, SampleGraph.triangle())
        value = problem.replication_lower_bound(200)
        assert value == pytest.approx(98 / (3 * math.sqrt(200)))
        assert 0.1 < value / problem.lower_bound(200) < 10.0

    def test_two_path_bounds(self):
        problem = TwoPathProblem(100)
        assert problem.lower_bound(10) == pytest.approx(20.0)
        assert problem.lower_bound(10 ** 6) == 1.0
        upper = two_path_upper_bound(100, 10)
        assert upper == pytest.approx(2 * (20 - 1))
        with pytest.raises(ConfigurationError):
            TwoPathProblem(2)

    def test_two_path_recipe_agrees(self):
        # |O| = 3·C(n,3) and g(q) = C(q,2): exactly 2(n-2)/(q-1).
        assert TwoPathProblem(100).replication_lower_bound(10) == pytest.approx(2 * 98 / 9)


class TestJoinBounds:
    def test_multiway_join_lower_bound(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), 10, rho=2.0)
        assert problem.lower_bound(10) == pytest.approx(10.0)
        with pytest.raises(ConfigurationError):
            JoinQuery.chain(1)
        with pytest.raises(ConfigurationError):
            MultiwayJoinProblem(JoinQuery.chain(3), 10, rho=0.5)

    def test_chain_join_bounds_match(self):
        for N in (3, 5):
            problem = MultiwayJoinProblem(JoinQuery.chain(N), 50)
            for q in (25, 100):
                upper = chain_join_replication_upper_bound(50, q, N)
                assert upper == pytest.approx(problem.chain_lower_bound(q))

    def test_uniform_arity_bound(self):
        # Equal arity α (Section 5.5.1): r >= n^{m-α} / q^{ρ-1}.
        assert MultiwayJoinProblem(JoinQuery.cycle(4), 10).lower_bound(100) == 1.0
        ternary = JoinQuery(
            [RelationSchema("R", ("A", "B", "C")), RelationSchema("S", ("C", "D", "E"))]
        )
        assert MultiwayJoinProblem(ternary, 10).lower_bound(10) == pytest.approx(10.0)

    def test_star_join_lower_bound(self):
        assert star_join_replication_lower_bound(1e6, 1e3, 1e4, 3) > 0
        with pytest.raises(ConfigurationError):
            star_join_replication_lower_bound(1e6, 1e3, 1e4, 0)

    def test_multiway_join_recipe_uses_rho(self):
        # chain-3: rho = 2, m = 4 and exactly |I| = 3n², so the recipe gives
        # n^m q / (q^rho 3n²) = n²/(3q).
        problem = MultiwayJoinProblem(JoinQuery.chain(3), 10)
        assert problem.replication_lower_bound(10) == pytest.approx(100 / 30)


class TestMatmulBounds:
    def test_lower_bound(self):
        problem = MatrixMultiplicationProblem(100)
        assert problem.lower_bound(2000) == pytest.approx(10.0)
        assert problem.lower_bound(0) == float("inf")
        with pytest.raises(ConfigurationError):
            MatrixMultiplicationProblem(0)

    def test_recipe_agrees(self):
        problem = MatrixMultiplicationProblem(100)
        for q in (200, 2000, 20000):
            assert problem.replication_lower_bound(q) == pytest.approx(problem.lower_bound(q))

    def test_upper_matches_lower_in_valid_range(self):
        problem = MatrixMultiplicationProblem(100)
        for q in (200, 2000, 20000):
            assert matmul_upper_bound(100, q) == pytest.approx(problem.lower_bound(q))

    def test_upper_infinite_below_2n(self):
        assert matmul_upper_bound(100, 100) == float("inf")
        with pytest.raises(ConfigurationError):
            matmul_upper_bound(0, 100)


class TestSparseScaling:
    def test_target_reducer_size(self):
        assert target_reducer_size(100, 0.25) == pytest.approx(400.0)
        with pytest.raises(ConfigurationError):
            target_reducer_size(0, 0.5)
        with pytest.raises(ConfigurationError):
            target_reducer_size(10, 0.0)

    def test_edge_target_matches_paper_formula(self):
        n, m, q = 100, 990, 10
        expected = q * n * (n - 1) / (2 * m)
        assert edge_target_reducer_size(q, n, m) == pytest.approx(expected)
        with pytest.raises(ConfigurationError):
            edge_target_reducer_size(q, 10, 1000)

    def test_overload_probability_decreases_with_margin(self):
        p_tight = overload_probability(100, 1.1)
        p_loose = overload_probability(100, 2.0)
        assert 0.0 < p_loose < p_tight < 1.0
        assert overload_probability(100, 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            overload_probability(0, 2.0)


class TestTables:
    def test_table1_has_six_rows(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert all("Problem" in row.as_dict() for row in rows)

    def test_table1_rows_evaluate(self):
        rows = table1_rows(b=16, n_triangle=100, n_matmul=50)
        for row in rows:
            value = row.evaluate(64.0)
            assert value >= 1.0 or value == float("inf")

    def test_table2_has_six_rows(self):
        rows = table2_rows()
        assert len(rows) == 6

    def test_table2_rows_evaluate(self):
        rows = table2_rows(b=16, n_triangle=100, n_matmul=50)
        for row in rows:
            value = row.evaluate(256.0)
            assert value >= 1.0 or value == float("inf")

    def test_lower_bounds_never_exceed_upper_bounds(self):
        """Row-by-row, the Table 2 value is >= the Table 1 value at the same q
        (for parameters where both are finite)."""
        table1 = table1_rows(b=20, n_triangle=1000, n_two_path=1000, n_matmul=100)
        table2 = table2_rows(b=20, n_triangle=1000, n_two_path=1000, n_matmul=100)
        # Matching rows by position: hamming, triangles, ..., matmul.
        for index in (0, 1, 5):
            for q in (2 ** 10, 2 ** 14):
                lower = table1[index].evaluate(q)
                upper = table2[index].evaluate(q)
                if math.isfinite(upper):
                    assert upper >= lower - 1e-9


# ----------------------------------------------------------------------
# Table 2 against the constructions that reach it
# ----------------------------------------------------------------------
def _divisors(n: int) -> list:
    return [k for k in range(1, n + 1) if n % k == 0]


def _table2_cases():
    """(family, problem, full-domain inputs, achievable r at q), k | n."""
    for b in (6, 8):
        for c in _divisors(b):
            yield pytest.param(
                SplittingSchema(b, c),
                HammingDistanceProblem(b),
                range(2 ** b),
                lambda q, b=b: hamming1_achievable_upper_bound(b, q),
                id=f"hamming1-b{b}-c{c}",
            )
    for n in (6, 12):
        for k in _divisors(n):
            yield pytest.param(
                PartitionTriangleSchema(n, k),
                TriangleProblem(n),
                TriangleProblem(n).inputs(),
                lambda q, n=n: triangle_upper_bound(n, q),
                id=f"triangles-n{n}-k{k}",
            )
    for n in (6, 8, 12):
        for k in _divisors(n)[1:]:
            yield pytest.param(
                TwoPathSchema(n, k),
                TwoPathProblem(n),
                TwoPathProblem(n).inputs(),
                lambda q, n=n: two_path_upper_bound(n, q),
                id=f"two-paths-n{n}-k{k}",
            )
    for n in (4, 6):
        for s in _divisors(n):
            yield pytest.param(
                OnePhaseTilingSchema(n, s),
                MatrixMultiplicationProblem(n),
                multiplication_records(integer_matrix(n, seed=1), integer_matrix(n, seed=2)),
                lambda q, n=n: matmul_upper_bound(n, q),
                id=f"matmul-n{n}-s{s}",
            )


class TestTable2AgainstConstructions:
    """Each Table 2 row, executed on a small full domain at every reachable q.

    The measured replication never exceeds the row's achievable form at the
    measured reducer size; two-paths at k >= 3 and matrix tiling meet it
    exactly, so a formula that undercounts the construction fails here.
    """

    @pytest.mark.parametrize("family, problem, inputs, achievable", _table2_cases())
    def test_measured_rate_within_achievable_form(self, family, problem, inputs, achievable):
        family.build(problem).validate().raise_if_invalid()
        result = MapReduceEngine().run(family.job(), list(inputs))
        r = result.replication_rate
        q = result.metrics.shuffle.max_reducer_size
        assert r == pytest.approx(family.replication_rate_formula())
        assert r <= achievable(q) + 1e-9, (r, q, achievable(q))


def _exact_max_coverage(problem) -> list:
    """Most outputs any q-subset of the inputs covers, for q = 0..|I|.

    Every input subset is a bitmask over ``inputs()``; an output is covered
    by a subset holding all of ``inputs_of(output)``.
    """
    bit = {input_id: index for index, input_id in enumerate(problem.inputs())}
    subsets = np.arange(1 << len(bit), dtype=np.int64)
    covered = np.zeros_like(subsets)
    for output in problem.outputs():
        needed = sum(1 << bit[input_id] for input_id in problem.inputs_of(output))
        covered += (subsets & needed) == needed
    sizes = np.zeros_like(subsets)
    for index in range(len(bit)):
        sizes += (subsets >> index) & 1
    best = np.zeros(len(bit) + 1, dtype=np.int64)
    np.maximum.at(best, sizes, covered)
    return best.tolist()


@pytest.mark.parametrize(
    "problem",
    [
        HammingDistanceProblem(4),
        TriangleProblem(5),
        TwoPathProblem(5),
        SampleGraphProblem(5, SampleGraph.cycle(4)),
        SampleGraphProblem(5, SampleGraph.triangle()),
        MatrixMultiplicationProblem(2),
        MultiwayJoinProblem(JoinQuery.chain(2), 2),
        MultiwayJoinProblem(JoinQuery.chain(3), 2),
    ],
    ids=lambda problem: problem.name,
)
def test_analytic_g_bounds_exhaustive_coverage(problem):
    """g(q) >= the exact maximum for every q <= |I|, and g(q)/q never falls
    (the recipe's hypothesis)."""
    exact = _exact_max_coverage(problem)
    sizes = range(1, len(exact))
    for q in sizes:
        assert problem.max_outputs_covered(q) >= exact[q] - 1e-9, (q, exact[q])
    ratios = [problem.max_outputs_covered(q) / q for q in sizes]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
