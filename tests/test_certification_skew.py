"""Certification + skew-aware planning: the PR-3 acceptance criteria.

Three contracts are pinned here:

1. **Soundness** — every certificate produced from a profile upper-bounds
   the *observed* maximum reducer load of the schema it certifies: exactly
   (full histograms) on 100+ seeded skewed instances, and with its stated
   probability (sampled profiles; the fixed seeds make the check
   deterministic) on the same instances.
2. **The acceptance scenario** — on a seeded Zipf(1.2) multiway join, the
   Shares winner's hash-balanced expected load is exceeded by its observed
   load while its full-domain certificate holds; the profile-aware planner
   rejects every vanilla candidate
   at an instance-scale budget and selects a skew-resistant candidate whose
   certificate holds, producing the correct join.
3. **Plumbing** — certification kinds survive through ``ExecutionPlan`` /
   sweep frontiers, profiles round-trip through JSON into identical plans,
   and the profiled sample-graph path certifies its non-uniform bucketings.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.datagen import gnm_random_graph, skewed_graph
from repro.datagen.relations import (
    multiway_join_oracle,
    skewed_chain_join_instance,
    zipf_relation,
)
from repro.mapreduce import MapReduceEngine
from repro.planner import (
    CertificationKind,
    CostBasedPlanner,
    certify_max_reducer_load,
    certify_sample_graph_load,
    exact_certification,
)
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.problems.subgraphs import SampleGraph, SampleGraphProblem
from repro.schemas import SharesSchema, SkewAwareSharesSchema
from repro.stats import DatasetProfile, profile_graph, profile_relations

N_INSTANCES = 110  # acceptance floor is 100+ random skewed instances


def observed_max_load(schema, relations) -> int:
    """Route every tuple through the schema and count per-reducer loads."""
    loads: Dict[object, int] = {}
    for relation in relations:
        for row in relation.tuples:
            for reducer in schema.reducers_for(relation.name, row):
                loads[reducer] = loads.get(reducer, 0) + 1
    return max(loads.values(), default=0)


def binary_instance(seed: int):
    r = zipf_relation(
        "R", ("A", "B"), 80, 25, skew=1.3, skewed_attribute="B", seed=seed
    )
    s = zipf_relation(
        "S", ("B", "C"), 80, 25, skew=1.3, skewed_attribute="B", seed=seed + 500
    )
    return [r, s]


def schemas_under_test(query):
    yield SharesSchema(query, {"B": 4}, domain_size=25)
    yield SharesSchema(query, {"A": 2, "B": 3, "C": 2}, domain_size=25)
    yield SkewAwareSharesSchema(
        query,
        {"B": 3},
        domain_size=25,
        skew_attribute="B",
        heavy_values=(0, 1),
        heavy_shares={"A": 3, "C": 3},
    )


class TestCertificateSoundness:
    def test_exact_certificates_bound_observed_loads(self):
        query = JoinQuery.binary_join()
        for seed in range(N_INSTANCES):
            relations = binary_instance(seed)
            profile = profile_relations(relations)
            for schema in schemas_under_test(query):
                certificate = certify_max_reducer_load(schema, profile)
                assert certificate.kind is CertificationKind.EXACT
                observed = observed_max_load(schema, relations)
                assert certificate.bound >= observed, (
                    f"seed {seed}, schema {schema.name}: exact certificate "
                    f"{certificate.bound} < observed {observed}"
                )

    def test_high_probability_certificates_bound_observed_loads(self):
        query = JoinQuery.binary_join()
        for seed in range(N_INSTANCES):
            relations = binary_instance(seed)
            profile = profile_relations(
                relations, mode="sample", sample_size=48, seed=seed
            )
            for schema in schemas_under_test(query):
                certificate = certify_max_reducer_load(schema, profile, delta=0.02)
                assert certificate.kind is CertificationKind.HIGH_PROBABILITY
                assert certificate.delta == 0.02
                observed = observed_max_load(schema, relations)
                assert certificate.bound >= observed, (
                    f"seed {seed}, schema {schema.name}: hp certificate "
                    f"{certificate.bound} < observed {observed}"
                )

    def test_exact_certificate_is_tighter_than_trivial(self):
        relations = binary_instance(0)
        profile = profile_relations(relations)
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 4}, domain_size=25)
        certificate = certify_max_reducer_load(schema, profile)
        total = sum(relation.size for relation in relations)
        assert certificate.bound < total


class TestZipfAcceptanceScenario:
    """The seeded Zipf(1.2) chain join of the acceptance criterion."""

    DOMAIN = 60
    BUDGET = 120  # instance-scale reducer budget
    MODEL_BUDGET = 2000  # a budget some grid fits on the model's full domain

    @pytest.fixture(scope="class")
    def workload(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=self.DOMAIN)
        relations = skewed_chain_join_instance(
            3, 220, self.DOMAIN, skew=1.2, seed=7
        )
        profile = profile_relations(relations)
        records = SharesSchema.input_records(relations)
        return problem, relations, profile, records

    def test_vanilla_expected_certificate_is_a_fiction(self, workload):
        problem, relations, profile, records = workload
        planner = CostBasedPlanner.min_replication()
        vanilla = planner.plan(problem, q=self.MODEL_BUDGET).best
        assert vanilla.certification.kind is CertificationKind.EXACT
        expected = vanilla.family.expected_reducer_load(profile.row_counts())
        result = vanilla.execute(records, engine=MapReduceEngine())
        observed = result.metrics.shuffle.max_reducer_size
        # The observed maximum blows through the hash-balanced expectation
        # (and through the instance-scale budget the profiled planner holds),
        # while the model-domain certificate bounds every instance.
        assert observed > expected
        assert observed > self.BUDGET
        assert vanilla.certification.bound >= observed

    def test_profiled_planner_rejects_vanilla_and_selects_certified(self, workload):
        problem, relations, profile, records = workload
        planner = CostBasedPlanner.min_replication()
        result = planner.plan(problem, q=self.BUDGET, profile=profile)
        # Every fixed-grid vanilla candidate's exact tail bound exceeds the
        # budget, so the ranked plans contain only profile-found candidates
        # — optimizer-chosen share vectors and skew-resistant grids — every
        # one carrying an exact certificate that fits the budget.
        assert len(result.plans) > 0
        for plan in result.plans:
            assert plan.name.startswith(
                ("opt-shares", "skew-shares", "opt-skew-shares")
            )
            assert plan.certification.kind is CertificationKind.EXACT
            assert plan.q <= self.BUDGET
        assert any(
            isinstance(plan.family, SkewAwareSharesSchema) for plan in result.plans
        )
        best = result.best
        executed = best.execute(records, engine=MapReduceEngine())
        observed = executed.metrics.shuffle.max_reducer_size
        assert observed <= best.certification.bound
        _, expected_rows = multiway_join_oracle(relations)
        assert sorted(executed.outputs) == sorted(expected_rows)

    def test_optimized_vector_beats_best_fixed_grid_certificate(self, workload):
        """The PR-4 acceptance pin: optimizer ≤ best grid at equal budget."""
        from repro.planner.share_opt import grid_share_vectors, optimize_shares
        from repro.schemas import SharesSchema

        problem, _, profile, _ = workload
        query = problem.query
        for reducers in (16, 32, 64, 128, 256):
            optimized = optimize_shares(
                query, reducers, profile=profile, domain_size=self.DOMAIN
            )
            grid_bounds = [
                certify_max_reducer_load(
                    SharesSchema(query, vector, self.DOMAIN), profile
                ).bound
                for vector in grid_share_vectors(query, reducers)
            ]
            assert optimized.score <= min(grid_bounds)
        # And at an in-sweep budget the optimizer certifies *under* the
        # instance-scale budget where every fixed-grid vector blows it.
        optimized = optimize_shares(
            query, 128, profile=profile, domain_size=self.DOMAIN
        )
        assert optimized.score <= self.BUDGET
        assert all(
            certify_max_reducer_load(
                SharesSchema(query, vector, self.DOMAIN), profile
            ).bound
            > self.BUDGET
            for vector in grid_share_vectors(query, 128)
            if max(vector.values()) > 1
        )

    def test_profile_survives_serialization_into_identical_plans(self, workload):
        problem, _, profile, _ = workload
        planner = CostBasedPlanner.min_replication()
        restored = DatasetProfile.from_json(profile.to_json())
        direct = planner.plan(problem, q=self.BUDGET, profile=profile)
        via_json = planner.plan(problem, q=self.BUDGET, profile=restored)
        assert [plan.name for plan in direct.plans] == [
            plan.name for plan in via_json.plans
        ]
        assert [plan.q for plan in direct.plans] == [plan.q for plan in via_json.plans]

    def test_sweep_frontier_reports_certification_kinds(self, workload):
        problem, _, profile, _ = workload
        planner = CostBasedPlanner.min_replication()
        sweep = planner.sweep(problem, [40.0, self.BUDGET, 400.0], profile=profile)
        rows = sweep.frontier()
        assert all("certified" in row and "pricing" in row for row in rows)
        feasible = [row for row in rows if row["plan"] is not None]
        assert feasible and all(row["certified"] == "exact" for row in feasible)
        # Exact profiled certificates enumerate per-reducer loads, so the
        # cost model prices the b·q term from the certified distribution.
        assert all(row["pricing"] == "certified-load" for row in feasible)

    def test_plan_describe_includes_certification(self, workload):
        problem, _, profile, _ = workload
        planner = CostBasedPlanner.min_replication()
        plan = planner.plan(problem, q=self.BUDGET, profile=profile).best
        row = plan.describe()
        assert row["certified"] == "exact"
        assert row["pricing"] == "certified-load"
        assert plan.certification.load is not None
        assert plan.certification.load.max_load == plan.certification.bound
        assert plan.certification.load.has_profile
        # The profile-less path is certified the same way, on the model's
        # full domain.
        vanilla = planner.plan(problem, q=self.MODEL_BUDGET).best
        assert vanilla.describe()["certified"] == "exact"
        assert vanilla.describe()["pricing"] == "certified-load"


class TestSkewAwareSchema:
    def test_join_is_correct_and_exactly_once(self):
        query = JoinQuery.binary_join()
        relations = binary_instance(3)
        schema = SkewAwareSharesSchema(
            query,
            {"B": 3},
            domain_size=25,
            skew_attribute="B",
            heavy_values=(0, 1, 2),
            heavy_shares={"A": 4, "C": 4},
        )
        engine = MapReduceEngine()
        result = engine.run(
            schema.job(relations), SharesSchema.input_records(relations)
        )
        _, expected_rows = multiway_join_oracle(relations)
        assert sorted(result.outputs) == sorted(expected_rows)
        assert len(result.outputs) == len(expected_rows)  # no duplicates

    def test_heavy_isolation_beats_vanilla_max_load(self):
        query = JoinQuery.binary_join()
        relations = binary_instance(4)
        vanilla = SharesSchema(query, {"B": 6}, domain_size=25)
        skew = SkewAwareSharesSchema(
            query,
            {"B": 6},
            domain_size=25,
            skew_attribute="B",
            heavy_values=(0, 1),
            heavy_shares={"A": 4, "C": 4},
        )
        assert observed_max_load(skew, relations) < observed_max_load(
            vanilla, relations
        )

    def test_mixed_exact_and_sampled_profile_degrades_to_hp(self):
        relations = binary_instance(5)
        exact = profile_relations([relations[0]], mode="exact")
        sampled = profile_relations([relations[1]], mode="sample", sample_size=48)
        mixed = DatasetProfile(
            relations={**exact.relations, **sampled.relations}
        )
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 4}, domain_size=25)
        certificate = certify_max_reducer_load(schema, mixed)
        assert certificate.kind is CertificationKind.HIGH_PROBABILITY
        assert certificate.bound >= observed_max_load(schema, relations)


class TestProfiledSampleGraphs:
    def test_balanced_bucketings_enumerated_and_sound(self):
        n = 30
        edges = skewed_graph(n, 120, seed=9)
        profile = profile_graph(edges)
        problem = SampleGraphProblem(n, SampleGraph.triangle())
        planner = CostBasedPlanner.min_replication()
        result = planner.plan(problem, q=400.0, profile=profile)
        balanced = [
            plan for plan in result.plans if "balanced" in plan.name
        ]
        assert balanced, "profiled planning must add degree-balanced candidates"
        plan = balanced[0]
        assert plan.certification.kind is CertificationKind.EXACT
        executed = plan.execute(edges, engine=MapReduceEngine())
        observed = executed.metrics.shuffle.max_reducer_size
        assert observed <= plan.certification.bound
        # Same triangles as the uniform-bucketing plan.
        uniform = planner.plan(problem, q=400.0).best
        reference = uniform.execute(edges, engine=MapReduceEngine())
        assert set(executed.outputs) == set(reference.outputs)
        assert len(executed.outputs) == len(reference.outputs)

    def test_certificate_bounds_loads_across_random_graphs(self):
        from repro.schemas.sample_graphs import (
            PartitionSampleGraphSchema,
            degree_balanced_boundaries,
        )

        n = 24
        sample = SampleGraph.triangle()
        for seed in range(40):
            edges = skewed_graph(n, 70, seed=seed)
            profile = profile_graph(edges)
            degrees: Dict[int, int] = {}
            relation = profile.relation("E")
            for attribute in ("u", "v"):
                for node, count in relation.attribute(attribute).histogram.items():
                    degrees[node] = degrees.get(node, 0) + count
            boundaries = degree_balanced_boundaries(degrees, n, 5)
            schema = PartitionSampleGraphSchema(
                n, sample, 5, boundaries=boundaries
            )
            certificate = certify_sample_graph_load(schema, profile)
            loads: Dict[object, int] = {}
            for edge in edges:
                for reducer in schema.reducers_for(edge):
                    loads[reducer] = loads.get(reducer, 0) + 1
            observed = max(loads.values(), default=0)
            assert certificate.bound >= observed


class TestCertificationValidation:
    def test_invalid_certifications_rejected(self):
        from repro.exceptions import ConfigurationError
        from repro.planner import high_probability_certification

        with pytest.raises(ConfigurationError):
            high_probability_certification(10.0, delta=0.0)
        with pytest.raises(ConfigurationError):
            exact_certification(-1.0)

    def test_uniform_inputs_enumerate_no_skew_candidates(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=8)
        from repro.datagen.relations import chain_join_instance

        relations = chain_join_instance(3, 40, 8, seed=909)
        profile = profile_relations(relations)
        planner = CostBasedPlanner.min_replication()
        result = planner.plan(problem, q=200, profile=profile)
        assert all(
            not isinstance(plan.family, SkewAwareSharesSchema)
            for plan in result.plans
        )
        assert all(
            plan.certification.kind is CertificationKind.EXACT
            for plan in result.plans
        )
