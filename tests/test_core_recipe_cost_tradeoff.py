"""Unit tests for the lower-bound recipe, the cost model, and choosing
along the tradeoff curve."""

from __future__ import annotations

import math

import pytest

from recipe_oracle import covering_inequality_holds, g_over_q_non_decreasing
from repro.core import ClusterCostModel, ExplicitProblem
from repro.exceptions import BoundDerivationError, ConfigurationError
from repro.problems import HammingDistanceProblem, TriangleProblem, TwoPathProblem


class TestLowerBoundRecipe:
    """``Problem.replication_lower_bound``: the Section 2.4 recipe."""

    def test_rejects_bad_counts(self):
        with pytest.raises(BoundDerivationError):
            ExplicitProblem([], {}).replication_lower_bound(4.0)

    def test_bound_matches_closed_form(self):
        problem = HammingDistanceProblem(10)
        for exponent in (1, 2, 5, 10):
            q = 2 ** exponent
            expected = 10 / exponent
            assert problem.replication_lower_bound(q) == pytest.approx(
                max(1.0, expected)
            )

    def test_bound_requires_positive_q(self):
        with pytest.raises(BoundDerivationError):
            HammingDistanceProblem(10).replication_lower_bound(0)

    def test_trivial_floor_applied(self):
        # For q far above 2n the raw bound 2n/q drops below 1 and is floored.
        assert TwoPathProblem(100).replication_lower_bound(10_000) == 1.0

    def test_zero_g_gives_infinite_bound(self):
        assert HammingDistanceProblem(10).replication_lower_bound(1) == float("inf")

    def test_monotonicity_check_passes_for_hamming(self):
        g = HammingDistanceProblem(10).max_outputs_covered
        assert g_over_q_non_decreasing(g, [2, 4, 8, 16, 1024])

    def test_monotonicity_check_fails_for_decreasing_ratio(self):
        assert not g_over_q_non_decreasing(math.sqrt, [1, 4, 16, 64])

    def test_from_problem(self, hamming6):
        assert hamming6.replication_lower_bound(4) == pytest.approx(3.0)


class TestCoveringInequality:
    def test_valid_schema_satisfies_inequality(self, hamming6):
        # The splitting schema with c=3 has 2^(6-2)=16 reducers of size 4 ... use
        # its reducer sizes: 3 groups of 2^4 = 16 reducers each of size 4.
        sizes = [4] * (3 * 16)
        assert covering_inequality_holds(
            sizes, hamming6.max_outputs_covered, hamming6.num_outputs
        )

    def test_insufficient_reducers_fail(self, hamming6):
        sizes = [4] * 3
        assert not covering_inequality_holds(
            sizes, hamming6.max_outputs_covered, hamming6.num_outputs
        )


class TestClusterCostModel:
    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ClusterCostModel(-1.0, 1.0)

    def test_cost_breakdown(self):
        model = ClusterCostModel(communication_rate=2.0, processing_rate=3.0)
        breakdown = model.cost_at(10.0, replication=lambda q: 5.0)
        assert breakdown.communication_cost == pytest.approx(10.0)
        assert breakdown.processing_cost == pytest.approx(30.0)
        assert breakdown.wall_clock_cost == 0.0
        assert breakdown.total == pytest.approx(40.0)

    def test_wall_clock_term(self):
        model = ClusterCostModel(1.0, 0.0, wall_clock_rate=0.5)
        breakdown = model.cost_at(4.0, replication=lambda q: 1.0)
        assert breakdown.wall_clock_cost == pytest.approx(8.0)

    def test_default_pricing_is_the_scalar_bound(self):
        model = ClusterCostModel(1.0, 1.0)
        assert model.cost_at(8.0, replication=lambda q: 1.0).pricing == "bound"

    def test_certified_max_pricing(self):
        from repro.core import LoadSummary

        model = ClusterCostModel(
            communication_rate=0.0, processing_rate=2.0, wall_clock_rate=1.0
        )
        # q is the worst-case bound (10); the certified max (6) is tighter
        # and both the b-term and the wall-clock term use it.
        breakdown = model.cost_at(
            10.0, replication=lambda q: 1.0, load=LoadSummary(6.0)
        )
        assert breakdown.pricing == "certified-max"
        assert breakdown.processing_cost == pytest.approx(12.0)
        assert breakdown.wall_clock_cost == pytest.approx(36.0)

    def test_certified_load_pricing_uses_record_weighted_mean(self):
        from repro.core import LoadSummary

        model = ClusterCostModel(communication_rate=0.0, processing_rate=1.0)
        # Loads (8, 2, 2): Σl²/Σl = 72/12 = 6 — below the max of 8, above
        # the plain mean of 4; the wall-clock term still tracks the max.
        load = LoadSummary(8.0, loads=(8.0, 2.0, 2.0))
        assert load.effective_load() == pytest.approx(6.0)
        breakdown = model.cost_at(10.0, replication=lambda q: 1.0, load=load)
        assert breakdown.pricing == "certified-load"
        assert breakdown.processing_cost == pytest.approx(6.0)
        # Balanced loads collapse to the common size.
        balanced = LoadSummary(4.0, loads=(4.0, 4.0, 4.0))
        assert balanced.effective_load() == pytest.approx(4.0)

    def test_load_summary_validation_and_degenerate_cases(self):
        from repro.core import LoadSummary

        with pytest.raises(ConfigurationError):
            LoadSummary(-1.0)
        empty = LoadSummary(5.0, loads=())
        assert not empty.has_profile
        assert empty.effective_load() == 5.0
        zeros = LoadSummary(0.0, loads=(0.0, 0.0))
        assert zeros.effective_load() == 0.0

    def test_certified_load_pricing_never_exceeds_certified_max(self):
        from repro.core import LoadSummary

        model = ClusterCostModel(communication_rate=0.0, processing_rate=1.0)
        loads = (9.0, 1.0, 3.0, 5.0, 9.0)
        profiled = model.cost_at(
            9.0, replication=lambda q: 1.0, load=LoadSummary(9.0, loads=loads)
        )
        max_only = model.cost_at(
            9.0, replication=lambda q: 1.0, load=LoadSummary(9.0)
        )
        assert profiled.processing_cost <= max_only.processing_cost

    def test_cost_requires_positive_q(self):
        model = ClusterCostModel(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            model.cost_at(0.0, replication=lambda q: 1.0)

    def test_continuous_optimum_of_known_function(self):
        # cost(q) = a * (C/q) + b * q is minimized at q = sqrt(a*C/b).
        a, b_const, C = 4.0, 1.0, 100.0
        model = ClusterCostModel(communication_rate=a, processing_rate=b_const)
        best = model.optimal_q_continuous(lambda q: C / q, q_min=1.0, q_max=1000.0)
        assert best.q == pytest.approx(math.sqrt(a * C / b_const), rel=1e-3)

    def test_continuous_optimum_rejects_bad_interval(self):
        model = ClusterCostModel(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            model.optimal_q_continuous(lambda q: 1.0, q_min=10.0, q_max=5.0)

    def test_discrete_optimum(self):
        model = ClusterCostModel(communication_rate=1.0, processing_rate=1.0)
        best = model.optimal_q_discrete(lambda q: 100.0 / q, candidates=[1, 10, 100])
        assert best.q == 10.0

    def test_discrete_optimum_empty_candidates(self):
        model = ClusterCostModel(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            model.optimal_q_discrete(lambda q: 1.0, candidates=[])

    def test_sweep(self):
        model = ClusterCostModel(1.0, 1.0)
        rows = model.sweep(lambda q: 10.0 / q, [1.0, 2.0, 5.0])
        assert len(rows) == 3
        assert rows[0].total == pytest.approx(11.0)


class TestChoosingAlongTheCurve:
    """Section 1.2: the cheapest (q, r) point, on the Splitting dots or the
    continuous lower-bound curve."""

    B = 12

    def dots(self):
        return {2.0 ** (self.B // c): float(c) for c in (1, 2, 3, 4, 6, 12)}

    def test_discrete_optimum_follows_the_prices(self):
        dots = self.dots()
        # Expensive communication favours large reducers (small r).
        model = ClusterCostModel(communication_rate=1_000.0, processing_rate=0.001)
        breakdown = model.optimal_q_discrete(dots.__getitem__, dots)
        assert breakdown.q == 2.0 ** 12
        assert breakdown.replication_rate == 1.0
        # Expensive processors favour small reducers (large r).
        model = ClusterCostModel(communication_rate=0.001, processing_rate=1_000.0)
        assert model.optimal_q_discrete(dots.__getitem__, dots).replication_rate == 12.0

    def test_planner_prices_certified_loads(self):
        from repro.core import LoadSummary
        from repro.planner import CostBasedPlanner, SchemaRegistry
        from repro.planner.certify import Certification, CertificationKind
        from repro.planner.registry import PlanCandidate

        registry = SchemaRegistry()

        @registry.register(TriangleProblem)
        def two_points(problem, q, profile=None):
            # Same worst-case q and replication; the certified load profile
            # of "balanced" shows its reducers are mostly light, so under
            # processing-dominated pricing it must win.
            yield PlanCandidate("bare", 10.0, 2.0, job_factory=lambda _: None)
            yield PlanCandidate(
                "balanced",
                10.0,
                2.0,
                job_factory=lambda _: None,
                certification=Certification(
                    CertificationKind.EXACT,
                    10.0,
                    load=LoadSummary(10.0, loads=(10.0, 1.0, 1.0, 1.0, 1.0)),
                ),
            )

        planner = CostBasedPlanner(
            registry, ClusterCostModel(communication_rate=0.0, processing_rate=1.0)
        )
        best = planner.plan(TriangleProblem(5), q=10.0).best
        assert best.name == "balanced"
        assert best.cost.pricing == "certified-load"

    def test_optimize_cost_continuous(self):
        problem = HammingDistanceProblem(self.B)
        model = ClusterCostModel(communication_rate=100.0, processing_rate=1.0)
        best = model.optimal_q_continuous(
            problem.replication_lower_bound, q_min=2.0, q_max=4096.0
        )
        assert 2.0 <= best.q <= 4096.0
