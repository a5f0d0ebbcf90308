"""Unit tests for the multi-round pipeline planner subsystem."""

from __future__ import annotations

import pytest

from repro.datagen.relations import (
    chain_join_instance,
    multiway_join_oracle,
    skewed_chain_join_instance,
)
from repro.exceptions import ConfigurationError, PlanningError
from repro.mapreduce import MapReduceEngine
from repro.pipeline import (
    BinaryJoinOp,
    MatMulRoundOp,
    MultiwayJoinOp,
    PipelinePlanner,
    RelationLeaf,
    SizeEstimator,
    enumerate_join_trees,
)
from repro.planner import CostBasedPlanner
from repro.planner.share_opt import optimize_shares
from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.schemas.join_shares import SharesSchema, binary_join_shares
from repro.stats import StreamingRelationProfiler, profile_relations


# ----------------------------------------------------------------------
# JoinQuery helpers
# ----------------------------------------------------------------------
class TestJoinQueryHelpers:
    def test_relation_lookup(self):
        query = JoinQuery.chain(3)
        assert query.relation("R2").attributes == ("A1", "A2")
        with pytest.raises(ConfigurationError, match="no relation"):
            query.relation("missing")

    def test_induced_subquery(self):
        query = JoinQuery.chain(4)
        sub = query.induced(["R2", "R3"])
        assert [r.name for r in sub.relations] == ["R2", "R3"]
        assert sub.attributes == ("A1", "A2", "A3")
        with pytest.raises(ConfigurationError):
            query.induced(["R2", "R9"])

    def test_connectivity(self):
        query = JoinQuery.chain(4)
        assert query.connected()
        assert query.connected(["R1", "R2"])
        assert not query.connected(["R1", "R3"])
        assert query.connected(["R1", "R2", "R3"])
        assert not query.connected([])


# ----------------------------------------------------------------------
# Logical layer: cascade enumeration
# ----------------------------------------------------------------------
class TestCascadeEnumeration:
    def test_chain3_trees(self):
        trees = enumerate_join_trees(JoinQuery.chain(3))
        names = {tree.schema.name for tree in trees}
        assert names == {"(R1*(R2*R3))", "((R1*R2)*R3)"}

    def test_chain4_tree_count(self):
        # Catalan-style count for a 4-chain: 5 cross-product-free shapes.
        trees = enumerate_join_trees(JoinQuery.chain(4))
        assert len(trees) == 5
        assert len({t.schema.name for t in trees}) == 5

    def test_left_deep_only_covers_all_chain3_orders(self):
        trees = enumerate_join_trees(JoinQuery.chain(3), include_bushy=False)
        assert {t.schema.name for t in trees} == {"(R1*(R2*R3))", "((R1*R2)*R3)"}
        assert len(trees) == 2  # no duplicated shapes

    def test_left_deep_enumeration_is_duplicate_free(self):
        for size in (3, 5, 7):
            trees = enumerate_join_trees(JoinQuery.chain(size), include_bushy=False)
            names = [t.schema.name for t in trees]
            assert len(names) == len(set(names))

    def test_left_deep_excludes_bushy(self):
        bushy = {t.schema.name for t in enumerate_join_trees(JoinQuery.chain(4))}
        left_deep = {
            t.schema.name
            for t in enumerate_join_trees(JoinQuery.chain(4), include_bushy=False)
        }
        assert "((R1*R2)*(R3*R4))" in bushy
        assert "((R1*R2)*(R3*R4))" not in left_deep
        assert left_deep < bushy

    def test_no_cross_products(self):
        for tree in enumerate_join_trees(JoinQuery.chain(4)):
            for node in tree.post_order():
                assert set(node.left.schema.attributes) & set(
                    node.right.schema.attributes
                )

    def test_cross_product_op_rejected(self):
        query = JoinQuery.chain(3)
        with pytest.raises(ConfigurationError, match="cross"):
            BinaryJoinOp(
                RelationLeaf(query.relation("R1")),
                RelationLeaf(query.relation("R3")),
            )

    def test_round_query_and_post_order(self):
        tree = [
            t
            for t in enumerate_join_trees(JoinQuery.chain(3))
            if t.schema.name == "((R1*R2)*R3)"
        ][0]
        rounds = tree.post_order()
        assert [node.schema.name for node in rounds] == ["(R1*R2)", "((R1*R2)*R3)"]
        round_query = rounds[1].round_query()
        assert [r.name for r in round_query.relations] == ["(R1*R2)", "R3"]
        assert rounds[1].shared_attributes == ("A2",)
        assert tree.num_rounds == 2
        assert tree.base_relations == ("R1", "R2", "R3")

    def test_two_relation_query_single_tree(self):
        trees = enumerate_join_trees(JoinQuery.binary_join())
        assert len(trees) == 1

    def test_matmul_op_validation(self):
        assert MatMulRoundOp(8, phases=2).num_rounds == 2
        with pytest.raises(ConfigurationError):
            MatMulRoundOp(8, phases=3)


# ----------------------------------------------------------------------
# Binary-join share shapes
# ----------------------------------------------------------------------
class TestBinaryJoinShares:
    def test_shapes_cover_shared_and_private_attributes(self):
        query = JoinQuery.binary_join()  # R(A,B) ⋈ S(B,C)
        shapes = binary_join_shares(query, 64)
        assert {"A": 1, "B": 64, "C": 1} in shapes  # classic hash join
        assert any(s["A"] > 1 and s["C"] > 1 for s in shapes)  # skew splits
        for shape in shapes:
            product = 1
            for share in shape.values():
                product *= share
            assert product <= 64

    def test_requires_two_relations_and_shared_attributes(self):
        with pytest.raises(ConfigurationError):
            binary_join_shares(JoinQuery.chain(3), 16)

    def test_disjoint_two_relation_query_still_plans(self):
        """The binary shapes must not break cross-product planning."""
        from repro.problems.joins import RelationSchema

        query = JoinQuery(
            [RelationSchema("R", ("A", "B")), RelationSchema("S", ("C", "D"))],
            name="cross-2",
        )
        problem = MultiwayJoinProblem(query, domain_size=3)
        result = CostBasedPlanner.min_replication().plan(problem, q=1000)
        assert len(result) >= 1  # the trivial all-ones vector survives


# ----------------------------------------------------------------------
# Estimation layer
# ----------------------------------------------------------------------
class TestEstimation:
    def _instance(self, seed=3):
        relations = chain_join_instance(3, 40, 10, seed=seed)
        return relations, profile_relations(relations)

    def test_per_value_bound_is_exact_for_single_shared_attribute(self):
        relations, profile = self._instance()
        joined = multiway_join_oracle(relations[:2])[1]
        query = JoinQuery.chain(3)
        node = BinaryJoinOp(
            RelationLeaf(query.relation("R1")), RelationLeaf(query.relation("R2"))
        )
        estimate = SizeEstimator(query, 10, profile).estimate(node)
        assert node.schema.name == "(R1*R2)"
        assert estimate.size_bound == len(joined)
        assert estimate.method == "per-value-histogram"

    def test_estimates_bound_observed_sizes(self):
        relations, profile = self._instance()
        query = JoinQuery.chain(3)
        estimator = SizeEstimator(query, 10, profile)
        by_name = {r.name: r for r in relations}
        for tree in enumerate_join_trees(query):
            for node in tree.post_order():
                estimate = estimator.estimate(node)
                actual = multiway_join_oracle(
                    [by_name[name] for name in sorted(set(node.base_relations))]
                )[1]
                assert estimate.size_bound >= len(actual)

    def test_sampled_profile_falls_back_to_agm_bound(self):
        relations = chain_join_instance(3, 40, 10, seed=3)
        sampled = profile_relations(relations, mode="sample", sample_size=8)
        estimator = SizeEstimator(JoinQuery.chain(3), 10, sampled)
        tree = enumerate_join_trees(JoinQuery.chain(3))[0]
        estimate = estimator.estimate(tree)
        assert estimate.method in ("agm", "model-domain")
        assert not estimate.exact_inputs
        # A projected profile is still synthesized (from the sketches), and
        # the calibrated estimate never exceeds the sound bound.
        assert estimate.profile is not None
        assert estimate.projected
        assert estimate.size_estimate <= estimate.size_bound

    def test_synthetic_profile_shared_column_is_exact(self):
        relations, profile = self._instance()
        query = JoinQuery.chain(3)
        tree = [
            t for t in enumerate_join_trees(query) if t.schema.name == "((R1*R2)*R3)"
        ][0]
        node = tree.post_order()[0]  # (R1*R2), joined on A1
        estimate = SizeEstimator(query, 10, profile).estimate(node)
        assert estimate.projected
        joined = multiway_join_oracle(relations[:2])[1]
        profiler = StreamingRelationProfiler("(R1*R2)", ("A0", "A1", "A2"))
        for row in joined:
            profiler.observe(row)
        true_hist = profiler.finish().attribute("A1").histogram
        synthetic_hist = estimate.profile.attribute("A1").histogram
        for value, count in true_hist.items():
            assert synthetic_hist.get(value, 0) >= count

    def test_no_profile_uses_model_domain(self):
        query = JoinQuery.chain(3)
        estimator = SizeEstimator(query, 5, None)
        assert estimator.leaf_rows("R1") == 25.0
        tree = enumerate_join_trees(query)[0]
        estimate = estimator.estimate(tree)
        assert estimate.method == "model-domain"
        assert estimate.size_bound <= 5**4


# ----------------------------------------------------------------------
# Streaming profiler
# ----------------------------------------------------------------------
class TestStreamingProfiler:
    def test_matches_batch_profile(self):
        relations = chain_join_instance(2, 30, 8, seed=5)
        batch = profile_relations(relations[:1]).relation("R1")
        profiler = StreamingRelationProfiler("R1", ("A0", "A1"))
        passed_through = list(profiler.wrap(relations[0].tuples))
        assert passed_through == list(relations[0].tuples)
        streamed = profiler.finish()
        assert streamed.total_rows == batch.total_rows
        for attribute in ("A0", "A1"):
            assert dict(streamed.attribute(attribute).histogram) == dict(
                batch.attribute(attribute).histogram
            )

    def test_row_arity_checked(self):
        profiler = StreamingRelationProfiler("X", ("a", "b"))
        with pytest.raises(ConfigurationError):
            profiler.observe((1, 2, 3))


# ----------------------------------------------------------------------
# Planning-time cost term (satellite)
# ----------------------------------------------------------------------
class TestPlanningTimeTerm:
    def test_plan_reports_planning_seconds(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=20)
        result = CostBasedPlanner.min_replication().plan(problem, q=500.0)
        assert result.best.planning_seconds > 0.0
        row = result.best.describe()
        assert row["planning_s"] == result.best.planning_seconds
        # All plans of one call share the same wall-clock.
        seconds = {plan.planning_seconds for plan in result}
        assert len(seconds) == 1

    def test_optimizer_reports_elapsed_seconds(self):
        profile = profile_relations(chain_join_instance(3, 20, 10, seed=0))
        outcome = optimize_shares(JoinQuery.chain(3), 16, profile=profile, domain_size=10)
        assert outcome.elapsed_seconds > 0.0


# ----------------------------------------------------------------------
# Pipeline planning
# ----------------------------------------------------------------------
ZIPF_DOMAIN = 400
UNIFORM_DOMAIN = 30
SIZE_EACH = 220


@pytest.fixture(scope="module")
def zipf_setup():
    relations = skewed_chain_join_instance(
        3, SIZE_EACH, ZIPF_DOMAIN, skew=1.2, seed=7
    )
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=ZIPF_DOMAIN)
    return problem, relations, profile_relations(relations)


@pytest.fixture(scope="module")
def zipf_result(zipf_setup):
    problem, relations, profile = zipf_setup
    planner = PipelinePlanner(CostBasedPlanner.min_replication())
    return planner.plan(problem, q=120, profile=profile)


class TestPipelinePlanning:
    def test_cascade_beats_one_round_on_sparse_zipf(self, zipf_result):
        best = zipf_result.best
        assert best.is_cascade
        assert best.num_rounds == 2
        one_round = zipf_result.one_round()
        assert one_round is not None
        assert best.total_cost < one_round.total_cost
        # Every round's certificate fits the budget.
        for round_ in best.rounds:
            assert round_.certified_load is not None
            assert round_.certified_load <= zipf_result.q_budget

    def test_one_round_wins_on_dense_uniform(self):
        relations = chain_join_instance(3, SIZE_EACH, UNIFORM_DOMAIN, seed=17)
        problem = MultiwayJoinProblem(
            JoinQuery.chain(3), domain_size=UNIFORM_DOMAIN
        )
        profile = profile_relations(relations)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=250, profile=profile)
        assert isinstance(result.best.op, MultiwayJoinOp)
        assert result.cascades()  # cascades were feasible, just pricier
        assert result.best.total_cost < min(
            plan.total_cost for plan in result.cascades()
        )

    def test_describe_rows_carry_shares_and_certification(self, zipf_result):
        rows = zipf_result.best.describe()
        assert [row["round"] for row in rows] == [0, 1]
        for row in rows:
            assert isinstance(row["shares"], dict)
            assert row["certified"] in ("exact", "expected") or row[
                "certified"
            ].startswith("hp")
            assert row["certified_load"] is not None
            assert row["est_rows_out"] >= 0
        # The second round consumed a synthetic profile.
        assert rows[1]["projected"] is True
        assert rows[0]["projected"] is False

    def test_planning_seconds_attached(self, zipf_result):
        assert zipf_result.best.planning_seconds > 0.0
        # Completed structures carry the original call's planning term too.
        assert len({plan.planning_seconds for plan in zipf_result.complete()}) == 1

    def test_table_ranked_by_total_cost(self, zipf_result):
        table = zipf_result.complete().table()
        costs = [row["total_cost"] for row in table]
        assert costs == sorted(costs)
        assert [row["rank"] for row in table] == list(range(len(table)))

    def test_infeasible_budget_raises_with_reasons(self, zipf_setup):
        problem, _, profile = zipf_setup
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        with pytest.raises(PlanningError, match="no round structure"):
            planner.plan(problem, q=2, profile=profile)

    def test_unsupported_problem_rejected(self):
        planner = PipelinePlanner()
        from repro.problems.triangles import TriangleProblem

        with pytest.raises(PlanningError, match="pipeline planner covers"):
            planner.plan(TriangleProblem(12), q=100)

    def test_matmul_one_vs_two_phase_structures(self):
        problem = MatrixMultiplicationProblem(16)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=200)
        phases = {plan.op.phases for plan in result}
        assert phases == {1, 2}
        for plan in result:
            assert plan.num_rounds == plan.op.phases

    def test_aggregation_single_round(self):
        problem = GroupByAggregationProblem(6, 30)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=50)
        assert result.best.num_rounds == 1
        assert result.best.rounds[0].plan.replication_rate == 1.0


# ----------------------------------------------------------------------
# Adaptive execution
# ----------------------------------------------------------------------
class TestAdaptiveExecution:
    def test_cascade_outputs_match_oracle_and_one_round(self, zipf_setup, zipf_result):
        problem, relations, profile = zipf_setup
        records = SharesSchema.input_records(relations)
        _, oracle_rows = multiway_join_oracle(relations)
        engine = MapReduceEngine()
        run = zipf_result.best.execute(records, engine=engine)
        assert sorted(run.outputs) == sorted(oracle_rows)
        one_round = zipf_result.one_round()
        one_run = one_round.execute(records, engine=engine)
        assert sorted(one_run.outputs) == sorted(run.outputs)

    def test_final_certificates_bound_observed_loads(self, zipf_setup, zipf_result):
        problem, relations, profile = zipf_setup
        records = SharesSchema.input_records(relations)
        run = zipf_result.best.execute(records, engine=MapReduceEngine())
        assert run.certificates_hold()
        assert run.result.round_certified_loads is not None
        assert run.max_certified_load >= run.max_observed_load
        for row in run.frontier():
            assert row["observed_max_load"] <= row["certified_load"]
        # The same table through the service: its second identical query
        # adopts the first one's rounds instead of executing them.
        from repro.service import QueryService

        with QueryService(capacity=10_000.0) as service:
            service_runs = [
                service.submit(zipf_result.best, records).result(timeout=120)
                for _ in range(2)
            ]
        rows = [row for served in [run, *service_runs] for row in served.frontier()]
        assert any(row["reused"] for row in rows)
        planned = zipf_result.best.rounds
        for row in rows:
            assert row["method"]
            assert row["kind"] == "exact"
            # ``est_rows_out`` is the calibrated estimate, which may fall
            # short on a projected intermediate (1852 vs 1885 here); the
            # planned round's sound size bound must not.
            assert planned[row["round"]].estimated_output_bound >= row["rows_out"]
            assert row["admission_price"] is not None
            assert row["admission_price"] >= row["observed_max_load"]
            if not row["reused"]:
                assert row["seconds"] > 0

    def test_frontier_inputs_and_communication_give_each_rounds_r(
        self, zipf_setup, zipf_result
    ):
        """``rows_in`` counts what the round read (its base relations plus
        the intermediates it consumes) and ``communication / rows_in`` is
        the round's replication rate."""
        problem, relations, profile = zipf_setup
        sizes = {relation.name: relation.size for relation in relations}
        plan = zipf_result.best
        run = plan.execute(
            SharesSchema.input_records(relations), engine=MapReduceEngine()
        )
        rows_out = {}
        for round_, row, job in zip(
            plan.rounds, run.frontier(), run.result.round_results
        ):
            op = round_.op
            assert row["rows_in"] == sum(
                sizes[child.relation.name]
                if isinstance(child, RelationLeaf)
                else rows_out[child.schema.name]
                for child in (op.left, op.right)
            )
            assert row["communication"] == pytest.approx(
                job.metrics.replication_rate * row["rows_in"]
            )
            assert row["est_rows_in"] > 0
            rows_out[op.schema.name] = row["rows_out"]
        assert len(rows_out) == 2

    def test_frontier_method_falls_back_to_the_certificate(
        self, zipf_setup, zipf_result
    ):
        import dataclasses

        problem, relations, profile = zipf_setup
        run = zipf_result.best.execute(
            SharesSchema.input_records(relations), engine=MapReduceEngine()
        )
        unestimated = dataclasses.replace(
            run,
            executed=[
                dataclasses.replace(executed, estimate_method="")
                for executed in run.executed
            ],
        )
        for row, executed in zip(unestimated.frontier(), run.executed):
            assert executed.estimate_method
            assert row["method"] == executed.certification.method
        uncertified = dataclasses.replace(
            unestimated,
            executed=[
                dataclasses.replace(executed, certification=None)
                for executed in unestimated.executed
            ],
        )
        for row in uncertified.frontier():
            assert (row["method"], row["kind"], row["certified_load"]) == (
                "",
                "",
                None,
            )

    def test_reused_frontier_rows_repeat_the_producers(
        self, zipf_setup, zipf_result
    ):
        """A query whose rounds all come from the service's shared store
        reports the producer's observations, and no engine time."""
        from repro.service import QueryService

        problem, relations, profile = zipf_setup
        records = SharesSchema.input_records(relations)
        with QueryService(capacity=10_000.0) as service:
            producer, adopter = [
                service.submit(zipf_result.best, records).result(timeout=120)
                for _ in range(2)
            ]
        assert sorted(adopter.outputs) == sorted(producer.outputs)
        produced, adopted = producer.frontier(), adopter.frontier()
        assert len(adopted) == len(produced) == 2
        for made, reused in zip(produced, adopted):
            assert (made["reused"], reused["reused"]) == (False, True)
            assert made["seconds"] > 0
            assert reused["seconds"] == 0.0
            for column in ("reused", "seconds"):
                del made[column], reused[column]
            assert reused == made

    def test_replan_disabled_keeps_planned_rounds(self, zipf_setup, zipf_result):
        problem, relations, profile = zipf_setup
        records = SharesSchema.input_records(relations)
        run = zipf_result.best.execute(
            records, engine=MapReduceEngine(), replan=False
        )
        assert run.replan_count == 0
        assert [r.plan_name for r in run.executed] == [
            round_.name for round_ in zipf_result.best.rounds
        ]
        _, oracle_rows = multiway_join_oracle(relations)
        assert sorted(run.outputs) == sorted(oracle_rows)

    def test_replan_events_are_logged_and_certified(self, zipf_setup):
        """Plan on sampled statistics: skew must violate the expectation
        certificate mid-flight and force a logged, certified re-plan."""
        problem, relations, _ = zipf_setup
        sampled = profile_relations(relations, mode="sample", sample_size=64)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=2000, profile=sampled)
        cascades = result.cascades()
        assert cascades
        records = SharesSchema.input_records(relations)
        run = cascades[0].execute(records, engine=MapReduceEngine())
        _, oracle_rows = multiway_join_oracle(relations)
        assert sorted(run.outputs) == sorted(oracle_rows)
        # Deterministic for this seed: the sketch-projected certificate is
        # beaten or violated by the observed intermediate.
        assert run.replan_count >= 1
        event = run.replan_events[0]
        assert event.reason in ("certificate-improved", "certificate-violated")
        assert [r for r in run.executed if r.replanned]
        assert run.certificates_hold()
        assert run.max_certified_load >= run.max_observed_load

    def test_failed_replan_recorded_as_scorable_loss(
        self, zipf_setup, monkeypatch
    ):
        """A triggered re-plan that finds nothing feasible keeps the
        original plan but still emits a scorable event — old plan's name,
        observed bound — so the wasted planning work reaches the adaptive
        ``replan_factor`` tuner as a loss instead of vanishing."""
        problem, relations, _ = zipf_setup
        sampled = profile_relations(relations, mode="sample", sample_size=64)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=2000, profile=sampled)
        cascade = result.cascades()[0]
        records = SharesSchema.input_records(relations)

        import repro.pipeline.execute as execute_module

        def nothing_fits(*_args, **_kwargs):
            raise PlanningError("no feasible replacement on observed data")

        monkeypatch.setattr(execute_module, "replan_round", nothing_fits)
        observed = []
        run = cascade.execute(
            records, engine=MapReduceEngine(), replan_observer=observed.append
        )
        # Same trigger as test_replan_events_are_logged_and_certified, but
        # every re-plan attempt now fails: events record a loss instead.
        assert run.replan_count >= 1
        assert observed == run.replan_events
        for event in run.replan_events:
            assert event.new_plan == event.old_plan
            assert event.new_bound == event.observed_bound
            assert event.new_bound is not None  # scorable, not legacy
            assert not event.won
        # No round was actually replaced; outputs stay correct under the
        # original (still sound) plans.
        assert not [r for r in run.executed if r.replanned]
        _, oracle_rows = multiway_join_oracle(relations)
        assert sorted(run.outputs) == sorted(oracle_rows)

    def test_one_round_execution_wraps_pipeline_result(self, zipf_setup, zipf_result):
        problem, relations, profile = zipf_setup
        records = SharesSchema.input_records(relations)
        run = zipf_result.one_round().execute(records, engine=MapReduceEngine())
        assert run.replan_count == 0
        assert len(run.result.round_results) == 1
        assert run.result.round_certified_loads is not None
        assert run.result.per_round_rows == [len(run.outputs)]

    def test_matmul_two_phase_execution(self):
        import numpy as np

        from repro.datagen.matrices import (
            integer_matrix,
            multiplication_records,
            records_to_matrix,
        )

        problem = MatrixMultiplicationProblem(8)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=64)
        two_phase = [plan for plan in result if plan.op.phases == 2][0]
        left = integer_matrix(8, seed=71, low=1, high=5)
        right = integer_matrix(8, seed=72, low=1, high=5)
        run = two_phase.execute(multiplication_records(left, right))
        assert len(run.result.round_results) == 2
        assert run.result.round_certified_loads is not None
        assert np.allclose(records_to_matrix(run.outputs, 8, 8), left @ right)


# ----------------------------------------------------------------------
# The cascade round coroutine driven round by round
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain4_cascade():
    """A three-round left-deep 4-chain cascade whose second round consumes
    the first round's intermediate and re-certifies it to a different
    bound than planning gave it (16 planned, 19 observed)."""
    relations = skewed_chain_join_instance(4, 60, 24, skew=1.2, seed=7)
    problem = MultiwayJoinProblem(JoinQuery.chain(4), domain_size=24)
    planner = PipelinePlanner(CostBasedPlanner.min_replication())
    result = planner.plan(problem, q=240, profile=profile_relations(relations))
    plan = next(
        plan
        for plan in result.cascades()
        if len(plan.rounds) == 3
        and plan.rounds[1].op.left.schema.name == plan.rounds[0].op.schema.name
    )
    return plan, SharesSchema.input_records(relations)


def _drive(rounds, work, outcome):
    """Send ``outcome`` for ``work`` and execute every later round serially."""
    try:
        while True:
            work = rounds.send(outcome)
            outcome = work.execute()
    except StopIteration as stop:
        return stop.value


class _CountingRows(list):
    """A row list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestCascadeRoundCoroutine:
    def test_only_rounds_feeding_a_later_round_are_profiled(self, chain4_cascade):
        import dataclasses

        from repro.obs import Tracer

        plan, records = chain4_cascade
        tracer = Tracer()
        engine = MapReduceEngine(dataclasses.replace(plan.cluster, tracer=tracer))
        run = plan.execute(records, engine=engine)
        profiled = [
            span.attributes["round"]
            for span in tracer.spans()
            if span.name == "profile-intermediate"
        ]
        assert len(run.executed) == 3
        assert profiled == [0, 1]

    def test_shared_rows_without_a_profile_are_profiled_by_the_consumer(
        self, chain4_cascade
    ):
        """A store may hand a producer's *final* round (rows, no profile)
        to a cascade in which that round feeds another: the consumer must
        re-certify and re-plan exactly as a one-shot run does."""
        from repro.pipeline.execute import (
            RoundOutcome,
            execute_pipeline,
            pipeline_rounds,
        )

        plan, records = chain4_cascade
        one_shot = execute_pipeline(plan, records)
        assert one_shot.executed[1].certification != plan.rounds[1].certification
        rounds = pipeline_rounds(plan, records, reuse_keys=True)
        first = next(rounds)
        job = first.execute().job
        shared = RoundOutcome(job, list(job.outputs), profile=None, reused=True)
        run = _drive(rounds, first, shared)
        assert run.executed[0].reused
        assert run.executed[1].certification == one_shot.executed[1].certification
        assert run.replan_events == one_shot.replan_events
        assert run.outputs == one_shot.outputs

    def test_a_round_answered_from_the_store_never_reads_its_inputs(
        self, chain4_cascade
    ):
        from repro.pipeline.execute import RoundOutcome, pipeline_rounds

        plan, records = chain4_cascade
        producer = pipeline_rounds(plan, records, reuse_keys=True)
        work = next(producer)
        produced = []
        try:
            while True:
                produced.append(work.execute())
                work = producer.send(produced[-1])
        except StopIteration:
            pass
        consumer = pipeline_rounds(plan, records, reuse_keys=True)
        work = next(consumer)
        intermediate = _CountingRows(produced[0].rows)
        served = [
            RoundOutcome(
                outcome.job,
                intermediate if index == 0 else outcome.rows,
                outcome.profile,
                reused=True,
            )
            for index, outcome in enumerate(produced)
        ]
        # Round 1 consumes round 0's rows; it is yielded, and answered from
        # the store, without its input list ever being built.
        work = consumer.send(served[0])
        assert work.index == 1 and intermediate.iterations == 0
        work = consumer.send(served[1])
        assert work.index == 2 and intermediate.iterations == 0
        with pytest.raises(StopIteration) as stop:
            consumer.send(served[2])
        assert intermediate.iterations == 0
        assert stop.value.value.outputs == plan.execute(records).outputs
        # The producer's final round published its rows without a profile.
        assert [outcome.profile is None for outcome in produced] == [
            False,
            False,
            True,
        ]
