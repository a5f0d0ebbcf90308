"""The paper's figures, tables and worked examples as deterministic checks.

One class per paper section.  Closed forms are evaluated at the paper's
sizes; the constructive algorithms are *executed* on the engine at small
sizes, and every executed series — (q, r, lower bound, max reducer, |O|)
per point — is pinned in ``tests/goldens/paper_series.json``, so a drift
in any measured number is a diff.  Independently of the pin, no executed
replication rate may fall below its problem's ``lower_bound(q)``.

Nothing here reads a clock or writes a file.  Wall-clock claims live in
``benchmarks/perf/``.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np
import pytest

from repro.bounds import fractional_edge_cover
from repro.core import ClusterCostModel
from repro.datagen import (
    all_pairs_at_distance,
    bernoulli_bitstrings,
    chain_join_instance,
    enumerate_triangles_oracle,
    enumerate_two_paths_oracle,
    gnm_random_graph,
    integer_matrix,
    multiplication_records,
    multiway_join_oracle,
    records_to_matrix,
    skewed_graph,
)
from repro.exceptions import PlanningError
from repro.mapreduce import (
    ClusterConfig,
    GreedyLoadBalancingPartitioner,
    MapReduceEngine,
)
from repro.planner import CostBasedPlanner
from repro.problems import (
    GroupByAggregationProblem,
    HammingDistanceProblem,
    JoinQuery,
    MatrixMultiplicationProblem,
    MultiwayJoinProblem,
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
    star_join_replication_lower_bound,
)
from repro.problems.sparse import edge_target_reducer_size
from repro.reports import table1_rows
from repro.schemas import (
    BallTwoSchema,
    HypercubeWeightSchema,
    OnePhaseTilingSchema,
    PartitionSampleGraphSchema,
    PartitionTriangleSchema,
    SegmentDeletionSchema,
    SharesSchema,
    TwoPathSchema,
    TwoPhaseMatMulAlgorithm,
    WeightPartitionSchema,
    alon_upper_bound_edges,
    chain_join_replication_upper_bound,
    communication_crossover_q,
    enumerate_sample_graph_oracle,
    one_phase_total_communication,
    splitting_points,
    star_join_replication_upper_bound,
    triangle_upper_bound,
    two_path_upper_bound,
    two_phase_total_communication,
)

with open(
    os.path.join(os.path.dirname(__file__), "goldens", "paper_series.json")
) as _handle:
    GOLDEN = json.load(_handle)


def _row(point, q, result, lower_bound, **extra):
    """One pinned point of an executed series."""
    return {
        "point": point,
        "q": q,
        "r": result.replication_rate,
        "lower_bound": lower_bound,
        "max_reducer": result.metrics.shuffle.max_reducer_size,
        "outputs": len(result.outputs),
        **extra,
    }


def _plan_sweep(problem, budgets, engine):
    """Best plan per budget, in ``budgets`` order; every budget is feasible."""
    sweep = CostBasedPlanner.min_replication().sweep(
        problem, budgets, engine.config
    )
    by_budget = {point.budget: point for point in sweep}
    assert all(by_budget[q].feasible for q in budgets)
    return [by_budget[q].best for q in budgets]


# ----------------------------------------------------------------------
# Executed series (each runs once per session; rows are what is pinned)
# ----------------------------------------------------------------------
FIG1_B = 8
FIG2_B = 10
SEC36_B = 8
SEC4_N, SEC4_M = 40, 200
SEC54_N = 30
SEC6_N = 12


def fig1_hamming():
    """Planner's pick at every budget 2^(b/c), executed on the full universe."""
    engine = MapReduceEngine()
    problem = HammingDistanceProblem(FIG1_B)
    dots = splitting_points(FIG1_B)
    budgets = [2.0 ** log_q for _, log_q, _ in dots]
    rows = []
    for (c, _, _), q, plan in zip(dots, budgets, _plan_sweep(problem, budgets, engine)):
        result = plan.execute(range(2 ** FIG1_B), engine=engine)
        rows.append(
            _row(f"c={c}", q, result, problem.lower_bound(q), plan=plan.name)
        )
    return rows


def fig2_weight_partition():
    engine = MapReduceEngine()
    problem = HammingDistanceProblem(FIG2_B)
    rows = []
    for k in (1, 5):
        family = WeightPartitionSchema(FIG2_B, k)
        result = engine.run(family.job(), list(range(2 ** FIG2_B)))
        # The full universe is present, so the observed largest reducer is
        # the schema's true q (the family's formula is an asymptotic estimate).
        q = result.metrics.shuffle.max_reducer_size
        rows.append(
            _row(
                f"k={k}",
                q,
                result,
                problem.lower_bound(q),
                exact_r=family.exact_replication_rate(),
            )
        )
    return rows


def sec36_distance_two():
    words = bernoulli_bitstrings(SEC36_B, 0.5, seed=63)
    family = SegmentDeletionSchema(SEC36_B, 4, 2)
    result = MapReduceEngine().run(family.job(emit_distance=2), words)
    # No lower bound: Section 3.6 is exactly the observation that the
    # distance-1 argument does not extend to distance 2.
    return [
        _row(
            "k=4,d=2",
            family.max_reducer_size_formula(),
            result,
            None,
            inputs=len(words),
            exact=sorted(result.outputs)
            == sorted(all_pairs_at_distance(words, 2)),
        )
    ]


def sec4_sparse_triangles():
    engine = MapReduceEngine()
    problem = TriangleProblem(SEC4_N)
    edges = gnm_random_graph(SEC4_N, SEC4_M, seed=404)
    actual = (30, 60, 120)
    budgets = [edge_target_reducer_size(q, SEC4_N, SEC4_M) for q in actual]
    rows = []
    for q_actual, plan in zip(actual, _plan_sweep(problem, budgets, engine)):
        result = plan.execute(edges, engine=engine)
        rows.append(
            _row(
                f"q_actual={q_actual}",
                plan.q,
                result,
                problem.lower_bound(plan.q),
                k=plan.family.num_buckets,
                correct=set(result.outputs) == enumerate_triangles_oracle(edges),
            )
        )
    return rows


def sec52_sample_graphs():
    engine = MapReduceEngine()
    n = 14
    edges = gnm_random_graph(n, 40, seed=56)
    rows = []
    for sample, k in [
        (SampleGraph.triangle(), 3),
        (SampleGraph.cycle(4), 2),
        (SampleGraph.clique(4), 3),
    ]:
        family = PartitionSampleGraphSchema(n, sample, k)
        result = engine.run(family.job(), edges)
        # The Alon-class bound is an Ω(.) with its constant dropped, so it
        # is compared in closed form below, not against executed rates.
        rows.append(
            _row(
                sample.name,
                family.max_reducer_size_formula(),
                result,
                None,
                formula_r=family.replication_rate_formula(),
                correct=set(result.outputs)
                == set(enumerate_sample_graph_oracle(edges, sample)),
            )
        )
    return rows


def sec54_two_paths():
    engine = MapReduceEngine()
    problem = TwoPathProblem(SEC54_N)
    edges = gnm_random_graph(SEC54_N, 120, seed=55)
    rows = []
    for k in (2, 3, 5, 10):
        family = TwoPathSchema(SEC54_N, k)
        result = engine.run(family.job(), edges)
        q = family.max_reducer_size_formula()
        rows.append(
            _row(
                f"k={k}",
                q,
                result,
                problem.lower_bound(q),
                formula_r=family.replication_rate_formula(),
                correct=set(result.outputs) == enumerate_two_paths_oracle(edges),
            )
        )
    return rows


def sec55_chain_join():
    """Shrinking budgets force the planner onto finer Shares grids.

    Plans are certified on the model's full domain, so a budget no grid
    fits there is pinned as a row with ``planned`` False.
    """
    engine = MapReduceEngine()
    planner = CostBasedPlanner.min_replication()
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=8)
    relations = chain_join_instance(3, 40, 8, seed=909)
    records = SharesSchema.input_records(relations)
    _, expected = multiway_join_oracle(relations)
    rows = []
    for budget in (200, 60, 50, 30):
        try:
            plan = planner.plan(problem, engine.config, q=budget).best
        except PlanningError:
            rows.append({"point": f"budget={budget}", "q": budget, "planned": False})
            continue
        result = plan.execute(records, engine=engine)
        rows.append(
            _row(
                f"budget={budget}",
                budget,
                result,
                problem.lower_bound(budget),
                formula_r=plan.replication_rate,
                grid_reducers=plan.family.num_reducers,
                correct=sorted(result.outputs) == sorted(expected),
            )
        )
    return rows


def sec6_matmul():
    """Both ranked plans executed at every budget (all below q = n^2)."""
    engine = MapReduceEngine()
    planner = CostBasedPlanner.min_replication()
    n = SEC6_N
    problem = MatrixMultiplicationProblem(n)
    left = integer_matrix(n, seed=71, low=1, high=5)
    right = integer_matrix(n, seed=72, low=1, high=5)
    records = multiplication_records(left, right)
    rows = []
    for budget in (24, 48, 96):
        plans = planner.plan(problem, engine.config, q=budget)
        one = plans.find("one-phase")
        one_result = one.execute(records, engine=engine)
        two_result = plans.find("two-phase").execute(records, engine=engine)
        rows.append(
            _row(
                f"budget={budget}",
                one.q,
                one_result,
                problem.lower_bound(one.q),
                one_phase_communication=one_result.communication_cost,
                two_phase_communication=two_result.total_communication,
                planner_rounds=plans.best.rounds,
                correct=all(
                    np.allclose(records_to_matrix(outputs, n, n), left @ right)
                    for outputs in (one_result.outputs, two_result.outputs)
                ),
            )
        )
    return rows


def ablation_bucketing():
    """Contiguous vs hashed node bucketing on a skewed graph."""
    engine = MapReduceEngine()
    n = 48
    problem = TriangleProblem(n)
    edges = skewed_graph(n, 260, hub_fraction=0.05, seed=5150)
    rows = []
    for hash_nodes in (False, True):
        family = PartitionTriangleSchema(n, 6, hash_nodes=hash_nodes)
        result = engine.run(family.job(), edges)
        q = family.max_reducer_size_formula()
        rows.append(
            _row(
                "hash" if hash_nodes else "contiguous",
                q,
                result,
                problem.lower_bound(q),
                skew=result.metrics.shuffle.skew(),
            )
        )
    return rows


def ablation_two_phase_shapes():
    """Measured two-phase communication per first-phase cube shape."""
    n = 24
    engine = MapReduceEngine()
    records = multiplication_records(
        integer_matrix(n, seed=61, low=1, high=5),
        integer_matrix(n, seed=62, low=1, high=5),
    )
    rows = []
    for s, t in [(4, 4), (8, 4), (8, 1), (2, 12)]:
        algorithm = TwoPhaseMatMulAlgorithm(n, s, t)
        result = engine.run_chain(algorithm.chain(), records)
        rows.append(
            {
                "point": f"s={s},t={t}",
                "q": algorithm.first_phase_reducer_size,
                "communication": result.total_communication,
                "closed_form": algorithm.total_communication(),
                "outputs": len(result.outputs),
            }
        )
    return rows


SERIES = {
    builder.__name__: functools.lru_cache(maxsize=None)(builder)
    for builder in (
        fig1_hamming,
        fig2_weight_partition,
        sec36_distance_two,
        sec4_sparse_triangles,
        sec52_sample_graphs,
        sec54_two_paths,
        sec55_chain_join,
        sec6_matmul,
        ablation_bucketing,
        ablation_two_phase_shapes,
    )
}


def _point(series, label):
    (row,) = [row for row in SERIES[series]() if row["point"] == label]
    return row


@pytest.mark.parametrize("name", sorted(SERIES))
def test_executed_series_matches_golden(name):
    rows = SERIES[name]()
    pinned = GOLDEN[name]
    assert [row["point"] for row in rows] == [row["point"] for row in pinned]
    for row, expected in zip(rows, pinned):
        where = (name, row["point"])
        assert row.keys() == expected.keys(), where
        for key, value in row.items():
            if isinstance(value, float):
                assert value == pytest.approx(expected[key], rel=1e-12), (where, key)
            else:
                assert value == expected[key], (where, key)
        if row.get("lower_bound") is not None:
            assert row["r"] >= row["lower_bound"] - 1e-9, where
        if "q" in row and "max_reducer" in row:
            assert row["max_reducer"] <= row["q"], where


def test_golden_pins_exactly_the_executed_series():
    assert sorted(GOLDEN) == sorted(SERIES)


class TestTables:
    """Tables 1-2: what tests/test_analysis_bounds.py does not already check."""

    def test_table1_bounds_weakly_decrease_in_q(self):
        rows = table1_rows()  # the paper-scale defaults: b=20, n=1000, ...
        assert len(rows) == 6
        for row in rows:
            values = [row.evaluate(float(2 ** e)) for e in (4, 8, 12, 16)]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("q", [2 ** 6, 2 ** 10, 2 ** 14])
    def test_table2_graph_gaps_are_small_constants(self, q):
        triangles = triangle_upper_bound(1000, q) / TriangleProblem(1000).lower_bound(q)
        two_paths = two_path_upper_bound(1000, q) / TwoPathProblem(1000).lower_bound(q)
        assert 1.0 <= triangles <= 3.1
        assert 1.0 <= two_paths <= 2.1


class TestFig1HammingTradeoff:
    """Figure 1 - Hamming distance 1: the Splitting dots sit on r = b / log2 q."""

    B = 24

    @pytest.mark.parametrize("c, log_q, rate", splitting_points(B))
    def test_splitting_dot_sits_on_the_hyperbola(self, c, log_q, rate):
        assert (log_q, rate) == (self.B / c, c)
        assert rate == pytest.approx(
            HammingDistanceProblem(self.B).lower_bound(2.0 ** log_q)
        )

    def test_rates_strictly_ordered_along_the_curve(self):
        rates = [rate for _, _, rate in splitting_points(self.B)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("c", [c for c, _, _ in splitting_points(FIG1_B)])
    def test_planner_pick_executes_on_the_bound(self, c):
        row = _point("fig1_hamming", f"c={c}")
        assert row["q"] == 2 ** (FIG1_B // c)
        assert row["r"] == pytest.approx(c)
        assert row["r"] == pytest.approx(row["lower_bound"])
        assert row["max_reducer"] <= row["q"]
        if 1 < c < FIG1_B:
            assert row["plan"] == f"splitting(b={FIG1_B}, c={c})"
        assert row["outputs"] == HammingDistanceProblem(FIG1_B).num_outputs


class TestFig2WeightPartition:
    """Figure 2 / Sections 3.4-3.5: r < 2 for reducer sizes near the input."""

    B = 32

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_exact_rate_near_one_plus_two_over_k(self, k):
        family = WeightPartitionSchema(self.B, k)
        exact = family.exact_replication_rate()
        assert family.replication_rate_formula() == pytest.approx(1 + 2 / k)
        # Border weights are slightly likelier than 1/k (binomial mass near
        # the centre), hence the 10 % allowance over the asymptotic 1 + 2/k.
        assert 1.0 <= exact <= 1.1 * (1 + 2 / k)
        assert exact < 2.0 or k == 1
        log_q = math.log2(family.max_reducer_size_formula())
        assert self.B - math.log2(self.B) - 4 < log_q < self.B

    def test_exact_rate_monotone_in_k(self):
        exact = [
            WeightPartitionSchema(self.B, k).exact_replication_rate()
            for k in (1, 2, 4)
        ]
        assert exact == sorted(exact, reverse=True)

    def test_more_dimensions_shrink_reducers_and_raise_replication(self):
        families = [HypercubeWeightSchema(self.B, d, 2) for d in (2, 4, 8)]
        for d, family in zip((2, 4, 8), families):
            assert family.replication_rate_formula() == pytest.approx(1 + d / 2)
        sizes = [family.max_reducer_size_formula() for family in families]
        rates = [family.exact_replication_rate() for family in families]
        assert sizes == sorted(sizes, reverse=True)
        assert rates == sorted(rates)

    @pytest.mark.parametrize("k", [1, 5])
    def test_executed_pairs_and_rate(self, k):
        row = _point("fig2_weight_partition", f"k={k}")
        assert row["outputs"] == HammingDistanceProblem(FIG2_B).num_outputs
        assert row["r"] == pytest.approx(row["exact_r"])


class TestSec36HammingDistanceD:
    """Section 3.6 - Hamming distance d > 1."""

    B = 24
    SEGMENTS = (4, 6, 8, 12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_segment_deletion_tradeoff(self, d):
        families = [SegmentDeletionSchema(self.B, k, d) for k in self.SEGMENTS]
        rates = [family.replication_rate_formula() for family in families]
        sizes = [family.max_reducer_size_formula() for family in families]
        # More segments: replication C(k, d) up, reducer size 2^(bd/k) down.
        assert rates == [math.comb(k, d) for k in self.SEGMENTS] == sorted(rates)
        assert sizes == [2 ** (self.B * d // k) for k in self.SEGMENTS]
        assert sizes == sorted(sizes, reverse=True)
        for family, rate in zip(families, rates):
            # Stirling: C(k, d) <= (ek/d)^d.
            assert rate <= family.approximate_replication_rate() + 1e-9

    @pytest.mark.parametrize("b", [8, 16, 24, 32])
    def test_ball2_covers_quadratically_many_outputs(self, b):
        q = b + 1
        covered = BallTwoSchema(b).outputs_covered_per_reducer()
        # Far above the (q/2) log2 q the distance-1 argument would need.
        assert covered > (q / 2.0) * math.log2(q)
        assert covered >= 0.4 * q * q / 2.0

    def test_distance_two_executed(self):
        row = _point("sec36_distance_two", "k=4,d=2")
        assert row["exact"]
        assert row["r"] == pytest.approx(math.comb(4, 2))


class TestSec4Triangles:
    """Section 4 - triangles: partition is within 3x of n / sqrt(2q)."""

    N = 3000

    def test_partition_within_constant_three_of_lower_bound(self):
        problem = TriangleProblem(self.N)
        uppers, lowers = [], []
        for k in (3, 6, 12, 30, 60):
            family = PartitionTriangleSchema(self.N, k)
            upper = family.replication_rate_formula()
            lower = problem.lower_bound(family.max_reducer_size_formula())
            assert lower - 1e-9 <= upper <= 3.2 * lower
            uppers.append(upper)
            lowers.append(lower)
        # Smaller reducers force more replication on both curves.
        assert uppers == sorted(uppers)
        assert lowers == sorted(lowers)

    def test_sparse_form_on_seeded_gnm(self):
        rows = SERIES["sec4_sparse_triangles"]()
        for row, q_actual in zip(rows, (30, 60, 120)):
            assert row["correct"]
            shape = TriangleProblem(SEC4_N).lower_bound_sparse(q_actual, SEC4_M)
            assert shape / 3.5 <= row["r"] <= 4.5 * shape + 2.0
        # More actual edges per reducer, less replication.
        measured = [row["r"] for row in rows]
        assert measured == sorted(measured, reverse=True)

    @pytest.mark.parametrize("q", [10, 45, 105, 300, 1000])
    def test_extremal_coverage_behind_the_bound(self, q):
        """The densest q-edge subgraph has at most (sqrt 2 / 3) q^1.5 triangles."""
        problem = TriangleProblem(60)
        exact = problem.max_outputs_covered_exact(q)
        analytic = problem.max_outputs_covered(q)
        assert 0.5 * analytic - 1.0 <= exact <= analytic + 1e-9


class TestSec52SampleGraphsAndTwoPaths:
    """Sections 5.2-5.4 - Alon-class sample graphs and paths of length two."""

    N, M = 1000, 100_000
    SAMPLES = [
        SampleGraph.triangle(),
        SampleGraph.cycle(4),
        SampleGraph.cycle(5),
        SampleGraph.clique(4),
        SampleGraph.path(3),
    ]

    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: sample.name)
    def test_alon_class_edge_form_upper_equals_lower(self, sample):
        assert sample.is_in_alon_class()
        problem = SampleGraphProblem(self.N, sample)
        for q in (10_000, 100_000):
            assert alon_upper_bound_edges(
                self.M, sample.num_nodes, q
            ) == pytest.approx(problem.lower_bound_sparse(q, self.M))

    def test_two_path_is_the_non_alon_example(self):
        assert SampleGraph.path(2).is_in_alon_class() is False

    def test_larger_samples_need_more_replication(self):
        ordered = sorted(self.SAMPLES, key=lambda sample: sample.num_nodes)
        bounds = [
            SampleGraphProblem(self.N, sample).lower_bound(10_000)
            for sample in ordered
        ]
        assert bounds == sorted(bounds)
        assert bounds == pytest.approx(
            [(self.N / 100) ** (s.num_nodes - 2) for s in ordered]
        )

    def test_sample_graphs_executed(self):
        rows = SERIES["sec52_sample_graphs"]()
        for row in rows:
            assert row["correct"]
            assert row["r"] == pytest.approx(row["formula_r"])
        triangle, _, clique = rows
        assert triangle["formula_r"] <= clique["formula_r"]

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_two_paths_within_factor_two(self, k):
        row = _point("sec54_two_paths", f"k={k}")
        assert row["correct"]
        assert row["q"] == 2 * SEC54_N / k
        assert row["r"] == row["formula_r"] == pytest.approx(2 * (k - 1))
        assert row["lower_bound"] == pytest.approx(2 * SEC54_N / row["q"])
        assert row["lower_bound"] - 1e-9 <= row["r"] <= 2.0 * row["lower_bound"] + 1e-9


class TestSec55MultiwayJoins:
    """Section 5.5 - chain and star joins."""

    N = 1000

    @pytest.mark.parametrize("relations", [3, 5, 7])
    def test_chain_upper_equals_lower(self, relations):
        rho = fractional_edge_cover(JoinQuery.chain(relations)).value
        assert rho == pytest.approx(math.ceil((relations + 1) / 2))
        problem = MultiwayJoinProblem(JoinQuery.chain(relations), self.N)
        for q in (10_000, 100_000):
            assert chain_join_replication_upper_bound(
                self.N, q, relations
            ) == pytest.approx(problem.chain_lower_bound(q))

    def test_longer_chains_need_more_replication(self):
        bounds = [
            MultiwayJoinProblem(JoinQuery.chain(n), self.N).chain_lower_bound(10_000)
            for n in (3, 5, 7)
        ]
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("dimensions", [2, 3, 4])
    def test_star_upper_at_least_lower(self, dimensions):
        lowers = []
        for q in (2e3, 2e4, 2e5):
            lower = star_join_replication_lower_bound(1e6, 1e3, q, dimensions)
            upper = star_join_replication_upper_bound(1e6, 1e3, q, dimensions)
            assert upper >= lower - 1e-9
            lowers.append(lower)
        assert lowers == sorted(lowers, reverse=True)

    def test_chain_join_executed(self):
        rows = [row for row in SERIES["sec55_chain_join"]() if row.get("planned", True)]
        assert len(rows) == 3
        for row in rows:
            assert row["correct"]
            assert row["r"] == pytest.approx(row["formula_r"])
        # Tighter budgets: finer grids, more replication, smaller reducers.
        rates = [row["r"] for row in rows]
        sizes = [row["max_reducer"] for row in rows]
        assert rates == sorted(rates)
        assert sizes == sorted(sizes, reverse=True)


class TestSec6MatMul:
    """Section 6 - one phase meets 2n^2/q; two phases win exactly below q = n^2."""

    N = 1000

    @pytest.mark.parametrize("s", [1, 10, 100, 500, 1000])
    def test_one_phase_meets_the_lower_bound(self, s):
        family = OnePhaseTilingSchema(self.N, s)
        q = family.max_reducer_size_formula()
        assert q == 2 * s * self.N
        assert family.replication_rate_formula() == pytest.approx(self.N / s)
        assert self.N / s == pytest.approx(
            MatrixMultiplicationProblem(self.N).lower_bound(q)
        )

    def test_crossover_is_exactly_n_squared(self):
        crossover = communication_crossover_q(self.N)
        assert crossover == self.N ** 2
        assert one_phase_total_communication(self.N, crossover) == pytest.approx(
            two_phase_total_communication(self.N, crossover)
        )

    @pytest.mark.parametrize("q", [2e3, 2e4, 2e5, 1e6, 4e6])
    def test_two_phase_wins_iff_q_below_n_squared(self, q):
        one = one_phase_total_communication(self.N, q)
        two = two_phase_total_communication(self.N, q)
        assert (two < one) == (q < self.N ** 2)

    def test_two_to_one_aspect_ratio_is_optimal(self):
        n, q = 24, 36
        shapes = [
            (s, q // (2 * s))
            for s in (2, 3, 4, 6, 8, 12)
            if q % (2 * s) == 0 and n % s == 0 and n % (q // (2 * s)) == 0
        ]
        assert len(shapes) > 1
        s, t = min(
            shapes,
            key=lambda st: TwoPhaseMatMulAlgorithm(n, *st).total_communication(),
        )
        assert s / t == pytest.approx(2.0)

    @pytest.mark.parametrize("budget", [24, 48, 96])
    def test_both_methods_executed(self, budget):
        row = _point("sec6_matmul", f"budget={budget}")
        assert row["correct"]
        assert row["r"] == pytest.approx(2 * SEC6_N ** 2 / row["q"])
        assert row["r"] == pytest.approx(row["lower_bound"])
        # Every budget is below n^2: two phases ship less, and the planner's
        # top-ranked plan is the two-round one.
        assert row["q"] < SEC6_N ** 2
        assert row["two_phase_communication"] < row["one_phase_communication"]
        assert row["planner_rounds"] == 2


class TestSec12CostModel:
    """Section 1.2 / Example 1.1 - the optimal q moves with the cluster's prices."""

    B = 24

    def test_optimal_q_grows_with_communication_price(self):
        problem = HammingDistanceProblem(self.B)
        optima = [
            ClusterCostModel(communication_rate=a, processing_rate=1.0).optimal_q_continuous(
                problem.replication_lower_bound,
                q_min=2.0,
                q_max=2.0 ** self.B,
            ).q
            for a in (0.1, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert optima == sorted(optima)

    def test_algorithm_choice_follows_the_price_ratio(self):
        # The Splitting dots: q = 2^(b/c) at r = c.
        dots = {2.0 ** log_q: rate for _, log_q, rate in splitting_points(self.B)}
        chosen = [
            ClusterCostModel(communication_rate=a, processing_rate=b).optimal_q_discrete(
                dots.__getitem__, dots
            )
            for a, b in [(1e8, 1.0), (1e2, 1.0), (1.0, 1.0), (1.0, 1e2), (1.0, 1e4)]
        ]
        # Relatively pricier processing: smaller reducers, more replication.
        rates = [point.replication_rate for point in chosen]
        assert rates == sorted(rates)
        assert rates[0] == 1.0
        assert rates[-1] == float(self.B)

    def test_wall_clock_term_shrinks_reducers(self):
        """Example 1.1: adding the c*q^2 single-reducer time term."""
        n = 500
        problem = MatrixMultiplicationProblem(n)
        optima = [
            ClusterCostModel(
                communication_rate=10.0, processing_rate=0.01, wall_clock_rate=c
            ).optimal_q_continuous(
                problem.replication_lower_bound,
                q_min=2.0 * n,
                q_max=2.0 * n ** 2,
            ).q
            for c in (0.0, 1e-6, 1e-4)
        ]
        assert optima == sorted(optima, reverse=True)


class TestAblations:
    """The reproduction's own design choices, as equalities and orderings."""

    def test_bucketing_moves_skew_not_cost(self):
        contiguous, hashed = SERIES["ablation_bucketing"]()
        assert contiguous["outputs"] == hashed["outputs"]
        assert contiguous["r"] == hashed["r"]
        assert contiguous["skew"] > 1.0 and hashed["skew"] > 1.0

    def test_combiner_cuts_communication_tenfold(self):
        engine = MapReduceEngine()
        problem = GroupByAggregationProblem(8, 50)
        tuples = [(a % 8, (a * 7 + 3) % 50) for a in range(4000)]
        without, combined = (
            engine.run(problem.job(use_combiner=flag), tuples)
            for flag in (False, True)
        )
        assert without.metrics.num_outputs == combined.metrics.num_outputs
        assert combined.communication_cost < without.communication_cost / 10

    def test_greedy_assignment_no_worse_than_hash(self):
        n = 48
        edges = skewed_graph(n, 260, hub_fraction=0.05, seed=5151)
        job = PartitionTriangleSchema(n, 8).job()
        hashed = MapReduceEngine(ClusterConfig(num_workers=4)).run(job, edges)
        greedy = MapReduceEngine(
            ClusterConfig(num_workers=4, partitioner=GreedyLoadBalancingPartitioner())
        ).run(job, edges)
        assert (
            greedy.metrics.workers.load_imbalance()
            <= hashed.metrics.workers.load_imbalance() + 1e-9
        )

    def test_measured_two_phase_communication_is_the_closed_form(self):
        rows = SERIES["ablation_two_phase_shapes"]()
        for row in rows:
            assert row["communication"] == row["closed_form"]
        # Among shapes sharing the paper shape's budget q = 2st, 2:1 wins.
        paper = _point("ablation_two_phase_shapes", "s=8,t=4")
        same_budget = [row for row in rows if row["q"] == paper["q"]]
        assert min(same_budget, key=lambda row: row["communication"]) is paper
