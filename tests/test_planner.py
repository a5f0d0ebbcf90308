"""Unit and property-based tests for the cost-based planner."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import ClusterCostModel
from repro.core.problem import ExplicitProblem
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
)
from repro.exceptions import ConfigurationError, PlanningError
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.planner import (
    CostBasedPlanner,
    PlanCandidate,
    SchemaRegistry,
    default_registry,
    thin_parameter_sweep,
)
from repro.problems import (
    HammingDistanceProblem,
    JoinQuery,
    MatrixMultiplicationProblem,
    MultiwayJoinProblem,
    NaturalJoinProblem,
    RelationSchema,
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
)
from repro.schemas import SharesSchema


@pytest.fixture
def planner() -> CostBasedPlanner:
    return CostBasedPlanner.min_replication()


class TestRegistry:
    def test_default_registry_covers_all_paper_problems(self):
        for problem in (
            TriangleProblem(6),
            TwoPathProblem(6),
            HammingDistanceProblem(4),
            HammingDistanceProblem(4, distance=2),
            MultiwayJoinProblem(JoinQuery.chain(3), 4),
            MatrixMultiplicationProblem(4),
        ):
            assert default_registry.supports(problem)

    def test_mro_lookup_serves_subclasses(self):
        assert default_registry.supports(NaturalJoinProblem(4))

    def test_unregistered_problem_raises(self):
        problem = ExplicitProblem(["x"], {"out": ["x"]})
        with pytest.raises(PlanningError, match="no schema families registered"):
            default_registry.candidates(problem, q=10)

    def test_budget_filter_is_enforced_centrally(self):
        registry = SchemaRegistry()

        def sloppy_builder(problem, q, profile=None):
            yield PlanCandidate(
                name="too-big",
                q=q * 10,
                replication_rate=1.0,
                job_factory=lambda _inputs: None,
            )

        registry.register(TriangleProblem, sloppy_builder)
        assert registry.candidates(TriangleProblem(5), q=10) == []

    def test_register_rejects_non_problem_types(self):
        registry = SchemaRegistry()
        with pytest.raises(ConfigurationError):
            registry.register(int, lambda p, q, profile=None: [])

    def test_thin_parameter_sweep_keeps_endpoints(self):
        values = list(range(1, 1001))
        thinned = thin_parameter_sweep(values, keep=16)
        assert thinned[0] == 1 and thinned[-1] == 1000
        assert len(thinned) <= 2 * 16
        assert thinned == sorted(thinned)


class TestPlanningBasics:
    def test_ranked_plans_for_all_five_families(self, planner):
        cluster = ClusterConfig()
        cases = [
            (TriangleProblem(12), 30.0),
            (TwoPathProblem(12), 6.0),
            (HammingDistanceProblem(6), 8.0),
            (MultiwayJoinProblem(JoinQuery.chain(3), 4), 30.0),
            (MatrixMultiplicationProblem(6), 24.0),
        ]
        for problem, q in cases:
            result = planner.plan(problem, cluster, q=q)
            assert len(result) >= 1
            totals = [plan.total_cost for plan in result]
            assert totals == sorted(totals)
            assert [plan.rank for plan in result] == list(range(len(result)))
            for plan in result:
                assert plan.q <= q + 1e-9

    def test_budget_defaults_to_cluster_capacity(self, planner):
        problem = HammingDistanceProblem(4)
        cluster = ClusterConfig(reducer_capacity=4)
        result = planner.plan(problem, cluster)
        assert result.q_budget == 4
        assert result.best.q <= 4

    def test_budget_defaults_to_unconstrained(self, planner):
        problem = HammingDistanceProblem(4)
        result = planner.plan(problem)
        assert result.q_budget == problem.num_inputs
        # Unconstrained minimum replication is the single-reducer extreme.
        assert result.best.replication_rate == pytest.approx(1.0)

    def test_infeasible_budget_raises(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(TriangleProblem(12), q=1.0)

    def test_non_positive_budget_rejected(self, planner):
        with pytest.raises(ConfigurationError):
            planner.plan(TriangleProblem(12), q=0)

    def test_lower_bound_attached_and_met_for_hamming(self, planner):
        result = planner.plan(HammingDistanceProblem(6), q=8.0)
        best = result.best
        assert best.lower_bound is not None
        # Splitting meets b / log2 q exactly: gap 1.
        assert best.optimality_gap == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [100.0, 200.0, 400.0])
    def test_join_lower_bound_never_exceeds_plan_on_ternary_relations(self, planner, q):
        query = JoinQuery(
            [RelationSchema("R", ("A", "B", "C")), RelationSchema("S", ("C", "D", "E"))],
            name="ternary-join",
        )
        problem = MultiwayJoinProblem(query, 10)
        try:
            best = planner.plan(problem, None, q=q).best
        except PlanningError:
            # No grid's certified full-domain load fits q = 100.
            assert q == 100.0
            return
        assert problem.lower_bound(q) <= best.replication_rate
        assert best.certification.bound <= q

    def test_non_alon_sample_graph_plans_without_lower_bound(self, planner):
        problem = SampleGraphProblem(60, SampleGraph.path(2))
        assert planner.plan(problem, None, q=300.0).best.lower_bound is None

    def test_every_one_round_plan_carries_the_curve(self, planner):
        problem = TriangleProblem(12)
        result = planner.plan(problem, q=30.0)
        assert len(result) > 1
        for plan in result:
            assert plan.lower_bound == problem.replication_lower_bound(plan.q)

    def test_cluster_prices_drive_default_ranking(self):
        problem = HammingDistanceProblem(8)
        # Expensive network: fewer copies, bigger reducers.
        pricey_net = CostBasedPlanner(
            cost_model=ClusterCostModel(communication_rate=1000.0, processing_rate=1.0)
        ).plan(problem, q=2.0 ** 8)
        # Expensive processors: smaller reducers, more copies.
        pricey_cpu = CostBasedPlanner(
            cost_model=ClusterCostModel(communication_rate=0.001, processing_rate=10.0)
        ).plan(problem, q=2.0 ** 8)
        assert pricey_net.best.q > pricey_cpu.best.q
        assert pricey_net.best.replication_rate < pricey_cpu.best.replication_rate

    def test_empty_result_best_raises(self, planner):
        from repro.planner import PlanningResult

        empty = PlanningResult(
            problem=TriangleProblem(5), q_budget=10, cluster=ClusterConfig()
        )
        with pytest.raises(PlanningError):
            empty.best


class TestPlanExecution:
    """Executing the top plan reproduces the seed benchmarks' numbers."""

    def test_triangles(self, planner):
        n = 40
        problem = TriangleProblem(n)
        edges = gnm_random_graph(n, 200, seed=404)
        plan = planner.plan(problem, q=117).best
        result = plan.execute(edges)
        # The partition schema with k buckets replicates each edge k times.
        assert result.replication_rate == pytest.approx(plan.family.num_buckets)
        assert set(result.outputs) == enumerate_triangles_oracle(edges)

    def test_two_paths(self, planner):
        n = 30
        edges = gnm_random_graph(n, 120, seed=55)
        plan = planner.plan(TwoPathProblem(n), q=12).best
        result = plan.execute(edges)
        assert result.replication_rate == pytest.approx(plan.replication_rate)
        assert set(result.outputs) == enumerate_two_paths_oracle(edges)

    def test_hamming_distance_1(self, planner):
        b = 8
        words = bernoulli_bitstrings(b, probability=0.3, seed=7)
        plan = planner.plan(HammingDistanceProblem(b), q=2 ** (b // 2)).best
        result = plan.execute(words)
        assert sorted(result.outputs) == sorted(all_pairs_at_distance(words, 1))
        assert result.replication_rate == pytest.approx(plan.replication_rate)

    def test_hamming_distance_2(self, planner):
        b = 8
        words = bernoulli_bitstrings(b, probability=0.3, seed=9)
        plan = planner.plan(HammingDistanceProblem(b, distance=2), q=16).best
        result = plan.execute(words)
        assert sorted(result.outputs) == sorted(all_pairs_at_distance(words, 2))

    def test_join_shares(self, planner):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=8)
        relations = chain_join_instance(3, 40, 8, seed=909)
        records = SharesSchema.input_records(relations)
        plan = planner.plan(problem, q=60).best
        result = plan.execute(records)
        _, expected = multiway_join_oracle(relations)
        assert sorted(result.outputs) == sorted(expected)
        # Shares replication is exact per tuple, so measured == formula.
        assert result.replication_rate == pytest.approx(plan.replication_rate)

    def test_matmul_one_and_two_phase(self, planner):
        n = 12
        problem = MatrixMultiplicationProblem(n)
        left = integer_matrix(n, seed=5, low=0, high=9)
        right = integer_matrix(n, seed=6, low=0, high=9)
        records = multiplication_records(left, right)
        plans = planner.plan(problem, q=48)
        one = plans.find("one-phase")
        two = plans.find("two-phase")
        assert one is not None and two is not None
        one_result = one.execute(records)
        two_result = two.execute(records)
        expected = left @ right
        assert np.allclose(records_to_matrix(one_result.outputs, n, n), expected)
        assert np.allclose(records_to_matrix(two_result.outputs, n, n), expected)
        assert one_result.replication_rate == pytest.approx(one.replication_rate)
        # Below the q = n² crossover the two-phase chain ranks first.
        assert plans.best is two
        # The Section 2.4/6.1 bound covers one-round schemas only: the
        # one-phase plan carries it (and meets it), the two-round plan
        # carries none — otherwise its gap would read as beating the bound.
        assert one.lower_bound is not None
        assert one.optimality_gap == pytest.approx(1.0)
        assert two.lower_bound is None and two.optimality_gap is None

    def test_execute_uses_plan_cluster_by_default(self, planner):
        cluster = ClusterConfig(num_workers=2)
        plan = planner.plan(TriangleProblem(10), cluster, q=45).best
        result = plan.execute(gnm_random_graph(10, 20, seed=3))
        assert result.metrics.workers.num_workers <= 2

    def test_two_phase_plan_survives_capacity_enforcement(self, planner):
        """Both rounds of a two-phase matmul plan must fit the budget.

        Phase-2 reducers receive n/t partial sums, so a plan certified only
        on the phase-1 cube would blow a strictly enforced capacity.
        """
        n, q = 32, 8
        problem = MatrixMultiplicationProblem(n)
        cluster = ClusterConfig(reducer_capacity=q, enforce_capacity=True)
        result = planner.plan(problem, cluster, q=q)
        two = result.find("two-phase")
        if two is not None:
            left = integer_matrix(n, seed=1, low=0, high=3)
            right = integer_matrix(n, seed=2, low=0, high=3)
            records = multiplication_records(left, right)
            executed = two.execute(records)  # must not raise capacity errors
            assert np.allclose(
                records_to_matrix(executed.outputs, n, n), left @ right
            )
        # Whatever plans exist, all certify within the budget.
        for plan in result:
            assert plan.q <= q

    def test_join_plan_rejects_unknown_relation_records(self, planner):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=4)
        plan = planner.plan(problem, q=100).best
        records = [("R1", (0, 1)), ("NotARelation", (1, 2))]
        with pytest.raises(ConfigurationError, match="NotARelation"):
            plan.execute(records)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
def _plan_problem(draw):
    """Strategy body: a (problem, q budget) pair across problem families."""
    kind = draw(st.sampled_from(["triangles", "two-paths", "hamming", "matmul"]))
    if kind == "triangles":
        n = draw(st.integers(min_value=3, max_value=12))
        q = draw(st.integers(min_value=3, max_value=math.comb(n, 2)))
        return TriangleProblem(n), q
    if kind == "two-paths":
        n = draw(st.integers(min_value=3, max_value=12))
        q = draw(st.integers(min_value=2, max_value=2 * n))
        return TwoPathProblem(n), q
    if kind == "hamming":
        b = draw(st.sampled_from([2, 3, 4, 6]))
        q = draw(st.integers(min_value=2, max_value=1 << b))
        return HammingDistanceProblem(b), q
    n = draw(st.sampled_from([1, 2, 3, 4]))
    q = draw(st.integers(min_value=2 * n, max_value=2 * n * n))
    return MatrixMultiplicationProblem(n), q


plan_problems = st.composite(_plan_problem)()


class TestPlannerProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=plan_problems)
    def test_chosen_schema_is_valid_and_within_budget(self, case):
        """The planner's choice always covers all outputs and respects q."""
        problem, q = case
        result = CostBasedPlanner.min_replication().plan(problem, q=q)
        best = result.best
        assert best.q <= q + 1e-9
        # Materialize the first plan that is a buildable mapping schema and
        # check both schema constraints by exhaustive enumeration.
        buildable = next(
            (plan for plan in result if hasattr(plan.family, "build")), None
        )
        if buildable is not None:
            schema = buildable.family.build(problem)
            report = schema.validate()
            assert report.valid, (
                f"planner chose invalid schema {schema.name}: "
                f"overfull={report.overfull_reducers} "
                f"uncovered={report.uncovered_outputs[:3]}"
            )
            assert schema.max_reducer_size() <= q

    @settings(max_examples=60, deadline=None)
    @given(case=plan_problems)
    def test_choice_never_costlier_than_worst_candidate(self, case):
        problem, q = case
        result = CostBasedPlanner.min_replication().plan(problem, q=q)
        totals = [plan.total_cost for plan in result]
        assert result.best.total_cost <= max(totals) + 1e-9
        assert result.best.total_cost == min(totals)

    @settings(max_examples=30, deadline=None)
    @given(case=plan_problems)
    def test_default_cost_model_ranking_is_consistent(self, case):
        """Under the cluster-priced model the ranking is still sorted."""
        problem, q = case
        result = CostBasedPlanner().plan(problem, ClusterConfig(), q=q)
        totals = [plan.total_cost for plan in result]
        assert totals == sorted(totals)
        for plan in result:
            expected = plan.replication_rate + plan.q  # a = b = 1.0
            assert plan.total_cost == pytest.approx(expected)
