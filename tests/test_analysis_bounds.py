"""Unit tests for the closed-form bounds (Tables 1 and 2) and their consistency.

Table 1's lower bounds live on the problem classes; each analytic g(q) is
also checked against the exact maximum coverage of every input subset of a
small instance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import upper_bounds as ub
from repro.analysis.tables import format_table, table1_rows, table2_rows
from repro.core import LowerBoundRecipe
from repro.exceptions import ConfigurationError
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
from repro.schemas import chain_join_replication_upper_bound


def _recipe_bound(problem, q: float) -> float:
    """The Section 2.4 recipe on the problem's exact |I|, |O| and g(q)."""
    return LowerBoundRecipe.from_problem(problem).bound_at(q).replication_rate_bound


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
            assert _recipe_bound(problem, q) == pytest.approx(problem.lower_bound(q))

    def test_upper_bound_matches_lower_bound(self):
        problem = HammingDistanceProblem(20)
        for exponent in (2, 4, 5, 10, 20):
            q = 2 ** exponent
            assert ub.hamming1_upper_bound(20, q) == pytest.approx(problem.lower_bound(q))

    def test_achievable_upper_bound_uses_divisors(self):
        # b = 12, q = 2^5: the largest feasible segment count is c = 3
        # (reducer size 2^4 <= 32); c = 2 would need reducers of 2^6 > 32.
        assert ub.hamming1_achievable_upper_bound(12, 2 ** 5) == 3.0
        assert ub.hamming1_achievable_upper_bound(12, 2 ** 12) == 1.0
        assert ub.hamming1_achievable_upper_bound(12, 1) == float("inf")

    def test_achievable_never_beats_ideal(self):
        for q in (4, 10, 100, 5000):
            assert ub.hamming1_achievable_upper_bound(12, q) >= ub.hamming1_upper_bound(12, q) - 1e-9

    def test_weight_partition_upper_bound(self):
        assert ub.weight_partition_upper_bound(32, 4) == pytest.approx(1.5)
        assert ub.weight_partition_upper_bound(32, 4, dimensions=4) == pytest.approx(2.0)
        with pytest.raises(ConfigurationError):
            ub.weight_partition_upper_bound(32, 0)

    def test_hamming_d_upper_bound(self):
        assert ub.hamming_d_upper_bound(10, 2) == pytest.approx(45.0)
        with pytest.raises(ConfigurationError):
            ub.hamming_d_upper_bound(3, 3)


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
        assert _recipe_bound(problem, 8) == pytest.approx(24.5)
        for q in (8, 50, 200, 5000):
            assert _recipe_bound(problem, q) == pytest.approx(
                max(1.0, 98 / math.sqrt(2.0 * q)), rel=1e-12
            )

    def test_triangle_sparse_bound(self):
        assert TriangleProblem(100).lower_bound_sparse(100, m=10_000) == pytest.approx(10.0)

    def test_triangle_upper_vs_lower_constant(self):
        problem = TriangleProblem(1000)
        for q in (50, 500, 5000):
            upper = ub.triangle_upper_bound(1000, q)
            lower = problem.lower_bound(q)
            assert 1.0 <= upper / lower <= 3.01

    def test_triangle_upper_bound_edges(self):
        assert ub.triangle_upper_bound_edges(20_000, 100) > 1.0

    def test_alon_bounds(self):
        problem = SampleGraphProblem(100, SampleGraph.clique(4))
        assert problem.lower_bound(100) == pytest.approx(100.0)
        assert problem.lower_bound_sparse(100, m=10_000) == pytest.approx(100.0)
        assert ub.alon_upper_bound_edges(10_000, 4, 100) == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            SampleGraph([])  # fewer than two nodes

    def test_alon_recipe_matches_order(self):
        # Exact |O| = C(n,3) for the triangle sample gives (n-2)/(3√q): the
        # (n/√q)^{s-2} shape up to its dropped constant.
        problem = SampleGraphProblem(100, SampleGraph.triangle())
        value = _recipe_bound(problem, 200)
        assert value == pytest.approx(98 / (3 * math.sqrt(200)))
        assert 0.1 < value / problem.lower_bound(200) < 10.0

    def test_two_path_bounds(self):
        problem = TwoPathProblem(100)
        assert problem.lower_bound(10) == pytest.approx(20.0)
        assert problem.lower_bound(10 ** 6) == 1.0
        upper = ub.two_path_upper_bound(100, 10)
        assert upper == pytest.approx(2 * (20 - 1))
        with pytest.raises(ConfigurationError):
            TwoPathProblem(2)

    def test_two_path_recipe_agrees(self):
        # |O| = 3·C(n,3) and g(q) = C(q,2): exactly 2(n-2)/(q-1).
        assert _recipe_bound(TwoPathProblem(100), 10) == pytest.approx(2 * 98 / 9)


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
        assert _recipe_bound(problem, 10) == pytest.approx(100 / 30)


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
            assert _recipe_bound(problem, q) == pytest.approx(problem.lower_bound(q))

    def test_upper_matches_lower_in_valid_range(self):
        problem = MatrixMultiplicationProblem(100)
        for q in (200, 2000, 20000):
            assert ub.matmul_upper_bound(100, q) == pytest.approx(problem.lower_bound(q))

    def test_upper_infinite_below_2n(self):
        assert ub.matmul_upper_bound(100, 100) == float("inf")
        with pytest.raises(ConfigurationError):
            ub.matmul_upper_bound(0, 100)


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

    def test_format_table_renders_every_row(self):
        rows = table1_rows()
        text = format_table(rows, q_values=[64, 1024])
        assert text.count("q=64") == len(rows)
        assert "Hamming" in text

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
