"""Integration tests: schemas executed end-to-end on the simulated engine,
with measured costs compared against the paper's bounds, plus the cost-model
workflow of Section 1.2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ClusterCostModel
from repro.datagen import (
    all_pairs_at_distance,
    bernoulli_bitstrings,
    complete_graph_edges,
    enumerate_triangles_oracle,
    gnm_random_graph,
    integer_matrix,
    multiplication_records,
    records_to_matrix,
)
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.problems import (
    HammingDistanceProblem,
    MatrixMultiplicationProblem,
    TriangleProblem,
)
from repro.schemas import (
    OnePhaseTilingSchema,
    PartitionTriangleSchema,
    SplittingSchema,
    TwoPhaseMatMulAlgorithm,
    splitting_points,
)


class TestHammingSimilarityJoinPipeline:
    """A full similarity-join run: sample inputs, pick an algorithm for a
    reducer budget, execute, verify, and compare measured cost to the bound."""

    def test_full_pipeline(self):
        b = 10
        q_budget = 2 ** 5
        problem = HammingDistanceProblem(b)
        # Pick the splitting parameter the reducer budget allows: smallest c
        # with 2^{b/c} <= q.
        candidates = [c for c in range(1, b + 1) if b % c == 0 and 2 ** (b // c) <= q_budget]
        c = min(candidates)
        family = SplittingSchema(b, c)
        engine = MapReduceEngine(ClusterConfig(num_workers=8, enforce_capacity=True))
        words = bernoulli_bitstrings(b, 0.3, seed=99)
        result = engine.run(family.job(), words)
        assert sorted(result.outputs) == sorted(all_pairs_at_distance(words, 1))
        # The measured replication rate equals c and respects the lower bound
        # evaluated at the schema's actual reducer size.
        assert result.replication_rate == pytest.approx(float(c))
        assert result.replication_rate >= problem.lower_bound(family.max_reducer_size_formula()) - 1e-9

    def test_tradeoff_curve_with_measured_points(self):
        b = 8
        engine = MapReduceEngine()
        problem = HammingDistanceProblem(b)
        words = list(range(2 ** b))
        for c, _, _ in splitting_points(b):
            family = SplittingSchema(b, c)
            result = engine.run(family.job(), words)
            # Every measured Splitting dot lies on the lower-bound curve.
            bound = problem.replication_lower_bound(family.max_reducer_size_formula())
            assert result.replication_rate == pytest.approx(bound, rel=1e-6)


class TestTriangleAnalyticsPipeline:
    def test_sparse_graph_run_and_bounds(self):
        n, m = 30, 120
        engine = MapReduceEngine()
        edges = gnm_random_graph(n, m, seed=77)
        family = PartitionTriangleSchema.for_reducer_size(n, q=80)
        result = engine.run(family.job(), edges)
        assert set(result.outputs) == enumerate_triangles_oracle(edges)
        # Measured replication equals the bucket count and is at least the
        # sparse lower bound Ω(√(m/q)) evaluated at the measured reducer size.
        measured_q = result.metrics.shuffle.max_reducer_size
        assert result.replication_rate == family.num_buckets
        assert result.replication_rate >= math.sqrt(m / max(measured_q, 1)) / 3.0

    def test_dense_graph_replication_between_bounds(self):
        n = 18
        engine = MapReduceEngine()
        edges = complete_graph_edges(n)
        problem = TriangleProblem(n)
        for k in (2, 3):
            family = PartitionTriangleSchema(n, k)
            result = engine.run(family.job(), edges)
            assert len(result.outputs) == math.comb(n, 3)
            measured_q = result.metrics.shuffle.max_reducer_size
            lower = problem.lower_bound(measured_q)
            assert lower - 1e-9 <= result.replication_rate <= 3.2 * lower


class TestMatrixMultiplicationPipelines:
    def test_one_phase_vs_two_phase_communication(self):
        """For q well below n² the two-phase chain ships less data, matching
        the Section 6.3 crossover claim."""
        n = 12
        q = 24  # far below n² = 144
        engine = MapReduceEngine()
        left = integer_matrix(n, seed=1, low=1, high=4)
        right = integer_matrix(n, seed=2, low=1, high=4)
        records = multiplication_records(left, right)

        one_phase = OnePhaseTilingSchema.for_reducer_size(n, q)
        one_result = engine.run(one_phase.job(), records)
        product_one = records_to_matrix(one_result.outputs, n, n)
        assert np.allclose(product_one, left @ right)

        two_phase = TwoPhaseMatMulAlgorithm.optimal_for_reducer_size(n, q)
        two_result = engine.run_chain(two_phase.chain(), records)
        product_two = records_to_matrix(two_result.outputs, n, n)
        assert np.allclose(product_two, left @ right)

        assert two_result.total_communication < one_result.communication_cost

    def test_one_phase_beats_two_phase_for_huge_reducers(self):
        n = 6
        engine = MapReduceEngine()
        left = integer_matrix(n, seed=3, low=1, high=4)
        right = integer_matrix(n, seed=4, low=1, high=4)
        records = multiplication_records(left, right)
        # q = 2n² (a single reducer) -> one-phase ships 2n² elements only.
        one_phase = OnePhaseTilingSchema(n, n)
        one_result = engine.run(one_phase.job(), records)
        two_phase = TwoPhaseMatMulAlgorithm(n, n, 1)
        two_result = engine.run_chain(two_phase.chain(), records)
        assert one_result.communication_cost <= two_result.total_communication

    def test_measured_replication_matches_matmul_lower_bound(self):
        n, s = 8, 2
        engine = MapReduceEngine()
        problem = MatrixMultiplicationProblem(n)
        family = OnePhaseTilingSchema(n, s)
        records = multiplication_records(integer_matrix(n, seed=5), integer_matrix(n, seed=6))
        result = engine.run(family.job(), records)
        q = family.max_reducer_size_formula()
        assert result.replication_rate == pytest.approx(problem.lower_bound(q))


class TestCostModelWorkflow:
    """Section 1.2 / Example 1.1: choosing q for concrete cluster prices."""

    def test_optimal_q_balances_communication_and_processing(self):
        curve = HammingDistanceProblem(20).replication_lower_bound
        model = ClusterCostModel(communication_rate=10.0, processing_rate=0.01)
        best = model.optimal_q_continuous(curve, q_min=2.0, q_max=2.0 ** 20)
        # More expensive communication pushes the optimum towards larger q
        # than a communication-cheap configuration would pick.
        cheap_comm = ClusterCostModel(communication_rate=0.1, processing_rate=0.01)
        best_cheap = cheap_comm.optimal_q_continuous(curve, q_min=2.0, q_max=2.0 ** 20)
        assert best.q > best_cheap.q

    def test_algorithm_selection_changes_with_prices(self):
        b = 12
        dots = {2.0 ** (b / c): float(c) for c, _, _ in splitting_points(b)}
        comm_heavy = ClusterCostModel(communication_rate=1e6, processing_rate=1.0)
        proc_heavy = ClusterCostModel(communication_rate=1.0, processing_rate=1e6)
        comm_choice = comm_heavy.optimal_q_discrete(dots.__getitem__, dots)
        proc_choice = proc_heavy.optimal_q_discrete(dots.__getitem__, dots)
        assert comm_choice.replication_rate < proc_choice.replication_rate

    def test_example_1_1_quadratic_wall_clock_term(self):
        """With the q² wall-clock term of Example 1.1 the optimum shifts to a
        strictly smaller q than without it."""
        curve = HammingDistanceProblem(16).replication_lower_bound
        without = ClusterCostModel(communication_rate=100.0, processing_rate=0.01)
        with_term = ClusterCostModel(
            communication_rate=100.0, processing_rate=0.01, wall_clock_rate=0.001
        )
        q_without = without.optimal_q_continuous(curve, 2.0, 2.0 ** 16).q
        q_with = with_term.optimal_q_continuous(curve, 2.0, 2.0 ** 16).q
        assert q_with < q_without
