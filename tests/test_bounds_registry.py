"""Bound-registry contracts: the PR-9 tentpole acceptance criteria.

Four contracts are pinned here:

1. **Registry mechanics** — registration order, minimum-wins evaluation
   with ties to the earliest registration, decorator-style registration,
   and loud failures for malformed estimators.
2. **Bit-identity** — the legacy registry (per-value histogram + AGM
   only) reproduces the pre-refactor estimator's numbers and method
   labels exactly, against hand-computed math and node-by-node against
   the default registry on exact profiles (where the exact per-value sum
   dominates every new bound, so the refactor cannot shift a number).
3. **Routing** — every AGM call site outside :mod:`repro.bounds` is gone,
   and the cover cache / registry surface their observability counters.
4. **The acceptance flip** — on a seeded FD-bearing key→FK chain with a
   sampled profile, the degree-constraint bound clamps a legacy
   histogram overestimate, flipping the planner's cascade-vs-one-round
   decision; the chosen plan still joins correctly and its certificate
   still bounds the observed per-reducer load.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bounds import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    AGMBound,
    BoundCandidate,
    BoundContext,
    BoundEstimator,
    BoundRegistry,
    ChildView,
    PerValueHistogramBound,
    agm_bound,
    clear_cover_cache,
    cover_cache_stats,
    default_bound_registry,
    per_value_sum,
)
from repro.datagen.relations import (
    chain_join_instance,
    fk_chain_join_instance,
    multiway_join_oracle,
)
from repro.exceptions import ConfigurationError
from repro.mapreduce import MapReduceEngine
from repro.obs import MetricsRegistry
from repro.pipeline import PipelinePlanner, SizeEstimator
from repro.pipeline.logical import BinaryJoinOp, RelationLeaf
from repro.planner import CostBasedPlanner
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.schemas.join_shares import SharesSchema
from repro.stats import profile_relations

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def legacy_bound_registry():
    """The pre-PR-9 estimator pair (histogram + AGM), the bit-identity oracle."""
    registry = BoundRegistry()
    registry.register(PerValueHistogramBound())
    registry.register(AGMBound())
    return registry


class _Fixed(BoundEstimator):
    def __init__(self, name: str, value: float, estimate=None) -> None:
        self.name = name
        self._value = value
        self._estimate = estimate

    def estimate(self, context: BoundContext) -> BoundCandidate:
        return BoundCandidate(
            method=self.name, value=self._value, estimate=self._estimate
        )


def _context(rows: float = 10.0) -> BoundContext:
    query = JoinQuery.chain(2)
    return BoundContext(
        query=query, row_counts={r.name: rows for r in query.relations}
    )


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
class TestRegistryMechanics:
    def test_default_registry_contents_and_order(self):
        assert default_bound_registry.names() == (
            METHOD_HISTOGRAM,
            METHOD_AGM,
            METHOD_DEGREE,
            METHOD_TOPK,
        )

    def test_legacy_registry_is_the_pre_refactor_pair(self):
        assert legacy_bound_registry().names() == (METHOD_HISTOGRAM, METHOD_AGM)

    def test_register_accepts_instances_and_classes(self):
        registry = BoundRegistry()
        registry.register(_Fixed("a", 5.0))

        @registry.register
        class _Decorated(BoundEstimator):
            name = "b"

            def estimate(self, context):
                return BoundCandidate(method=self.name, value=7.0)

        assert registry.names() == ("a", "b")

    def test_register_rejects_junk(self):
        registry = BoundRegistry()
        with pytest.raises(ConfigurationError):
            registry.register(object())
        with pytest.raises(ConfigurationError):
            registry.register(_Fixed("", 1.0))
        registry.register(_Fixed("dup", 1.0))
        with pytest.raises(ConfigurationError):
            registry.register(_Fixed("dup", 2.0))

    def test_minimum_wins_and_ties_go_to_earliest_registration(self):
        registry = BoundRegistry()
        registry.register(_Fixed("first", 4.0))
        registry.register(_Fixed("tied", 4.0))
        registry.register(_Fixed("loose", 9.0))
        decision = registry.evaluate(_context())
        assert decision.value == 4.0
        assert decision.method == "first"
        assert len(decision.candidates) == 3

    def test_evaluate_raises_when_nothing_applies(self):
        registry = BoundRegistry()
        with pytest.raises(ConfigurationError):
            registry.evaluate(_context())

    def test_candidates_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            BoundCandidate(method="bad", value=-1.0)

    def test_decision_estimate_refines_but_never_exceeds_value(self):
        registry = BoundRegistry()
        registry.register(_Fixed("bound", 10.0))
        registry.register(_Fixed("sketch", 12.0, estimate=6.0))
        decision = registry.evaluate(_context())
        assert decision.value == 10.0
        assert decision.method == "bound"
        assert decision.estimate == 6.0
        assert decision.candidate("sketch").value == 12.0
        assert decision.candidate("missing") is None


# ----------------------------------------------------------------------
# Bit-identity with the pre-refactor estimator
# ----------------------------------------------------------------------
class TestLegacyBitIdentity:
    @pytest.fixture(scope="class")
    def exact_setup(self):
        relations = chain_join_instance(3, 60, 12, seed=3)
        return relations, profile_relations(relations)

    def test_join_context_matches_hand_computed_legacy_math(self, exact_setup):
        relations, profile = exact_setup
        left, right = relations[0], relations[1]
        histograms = {}
        for relation in (left, right):
            relation_profile = profile.relation(relation.name)
            histograms[relation.name] = {
                attribute: {
                    value: float(count)
                    for value, count in relation_profile.attribute(
                        attribute
                    ).histogram.items()
                }
                for attribute in relation.attributes
            }
        query = JoinQuery.chain(3)
        induced = JoinQuery(
            [query.relation(left.name), query.relation(right.name)], name="pair"
        )
        context = BoundContext(
            query=induced,
            row_counts={left.name: float(left.size), right.name: float(right.size)},
            profile=profile,
            left=ChildView(
                name=left.name,
                rows=float(left.size),
                sound_histograms=histograms[left.name],
            ),
            right=ChildView(
                name=right.name,
                rows=float(right.size),
                sound_histograms=histograms[right.name],
            ),
            shared_attributes=("A1",),
        )
        decision = legacy_bound_registry().evaluate(context)
        hand_sum = per_value_sum(
            histograms[left.name]["A1"], histograms[right.name]["A1"]
        )
        hand_agm = min(
            agm_bound(induced, context.row_counts),
            float(left.size) * float(right.size),
        )
        assert decision.candidate(METHOD_HISTOGRAM).value == hand_sum
        assert decision.candidate(METHOD_AGM).value == hand_agm
        assert decision.value == min(hand_sum, hand_agm)
        assert decision.method == (
            METHOD_HISTOGRAM if hand_sum <= hand_agm else METHOD_AGM
        )

    def test_unprofiled_join_context_labels_model_domain(self):
        query = JoinQuery.chain(2)
        names = [r.name for r in query.relations]
        context = BoundContext(
            query=query,
            row_counts={name: 20.0 for name in names},
            left=ChildView(name=names[0], rows=20.0),
            right=ChildView(name=names[1], rows=20.0),
            shared_attributes=("A1",),
        )
        decision = legacy_bound_registry().evaluate(context)
        assert decision.method == METHOD_DOMAIN
        assert decision.value == agm_bound(query, context.row_counts)

    def test_whole_query_context_is_plain_agm(self, exact_setup):
        relations, _ = exact_setup
        query = JoinQuery.chain(3)
        row_counts = {r.name: float(r.size) for r in relations}
        decision = legacy_bound_registry().evaluate(
            BoundContext(query=query, row_counts=row_counts)
        )
        assert decision.method == METHOD_AGM
        assert decision.value == agm_bound(query, row_counts)

    def test_default_registry_is_node_identical_on_exact_profiles(self, exact_setup):
        """Exact per-value sums dominate the new bounds on base-table joins,
        so leaf-level numbers and method labels cannot move; on deeper nodes
        (where exact histograms are no longer available and legacy fell back
        to AGM) the default registry may only *tighten* the bound, and the
        calibrated estimate is identical everywhere."""
        relations, profile = exact_setup
        query = JoinQuery.chain(3)
        leaves = {r.name: RelationLeaf(query.relation(r.name)) for r in relations}
        names = [r.name for r in relations]
        base_ops = [
            BinaryJoinOp(leaves[names[0]], leaves[names[1]]),
            BinaryJoinOp(leaves[names[1]], leaves[names[2]]),
        ]
        deep_ops = [
            BinaryJoinOp(base_ops[0], leaves[names[2]]),
            BinaryJoinOp(leaves[names[0]], base_ops[1]),
        ]
        results = {}
        for key, registry in (("legacy", legacy_bound_registry()), ("default", None)):
            estimator = SizeEstimator(query, 12, profile=profile, bounds=registry)
            results[key] = [
                (
                    estimator.estimate(op).size_bound,
                    estimator.estimate(op).size_estimate,
                    estimator.estimate(op).method,
                )
                for op in base_ops + deep_ops
            ]
        for legacy, default in zip(results["legacy"][: len(base_ops)], results["default"]):
            assert default == legacy
        for legacy, default in zip(results["legacy"], results["default"]):
            assert default[0] <= legacy[0]  # never looser
            assert default[1] == legacy[1]  # calibrated estimates identical

    def test_planner_output_is_identical_on_exact_profiles(self, exact_setup):
        relations, profile = exact_setup
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=12)
        rankings = []
        for registry in (legacy_bound_registry(), None):
            planner = PipelinePlanner(
                CostBasedPlanner.min_replication(), bound_registry=registry
            )
            result = planner.plan(problem, q=200, profile=profile).complete()
            rankings.append(
                [(plan.name, plan.total_cost, plan.num_rounds) for plan in result.plans]
            )
        assert rankings[0] == rankings[1]


# ----------------------------------------------------------------------
# Routing and observability
# ----------------------------------------------------------------------
class TestRoutingAndObservability:
    def test_no_agm_call_sites_outside_the_bounds_package(self):
        offenders = []
        for path in SRC_ROOT.rglob("*.py"):
            if (SRC_ROOT / "bounds") in path.parents:
                continue
            if "agm_bound(" in path.read_text():
                offenders.append(str(path.relative_to(SRC_ROOT)))
        assert offenders == []

    def test_evaluate_counts_wins_per_method(self):
        metrics = MetricsRegistry()
        registry = BoundRegistry()
        registry.register(_Fixed("tight", 1.0))
        registry.register(_Fixed("loose", 2.0))
        query = JoinQuery.chain(2)
        context = BoundContext(
            query=query,
            row_counts={r.name: 5.0 for r in query.relations},
            metrics=metrics,
        )
        registry.evaluate(context)
        registry.evaluate(context)
        assert metrics.counter("bounds_evaluations_total").value() == 2
        assert metrics.counter("bounds_method_wins_total").value(method="tight") == 2
        assert metrics.counter("bounds_method_wins_total").value(method="loose") == 0

    def test_cover_cache_hits_and_misses_are_counted(self):
        clear_cover_cache()
        metrics = MetricsRegistry()
        query = JoinQuery.chain(4)
        row_counts = {r.name: 10.0 for r in query.relations}
        first = agm_bound(query, row_counts, metrics=metrics)
        second = agm_bound(query, row_counts, metrics=metrics)
        assert first == second
        assert metrics.counter("bounds_cover_cache_misses_total").value() == 1
        assert metrics.counter("bounds_cover_cache_hits_total").value() == 1
        stats = cover_cache_stats()
        assert stats.size >= 1
        assert stats.hits >= 1

    def test_agm_estimator_reports_its_method(self):
        query = JoinQuery.chain(2)
        context = BoundContext(
            query=query, row_counts={r.name: 9.0 for r in query.relations}
        )
        candidate = AGMBound().estimate(context)
        assert candidate.method == METHOD_AGM
        assert candidate.value == agm_bound(query, context.row_counts)


# ----------------------------------------------------------------------
# The acceptance flip
# ----------------------------------------------------------------------
# A seeded key→FK chain (degree-capped keys, Zipf(1.6) foreign keys) with
# an under-covering sampled profile: the legacy estimator's approximate
# histogram inflates both cascade intermediates (the heavy FK value lands
# in the key side's 64-row reservoir and is scaled up by rows/sample),
# while the degree-constraint bound clamps them to |R1|.  At FLIP_Q the
# one-round plan prices between the two, so the registries disagree on
# cascade-vs-one-round.
FLIP_SEED = 186
FLIP_SIZE = 300
FLIP_DOMAIN = 600
FLIP_SKEW = 1.6
FLIP_SAMPLE = 64
FLIP_Q = 700


class TestAcceptanceFlip:
    @pytest.fixture(scope="class")
    def flip_setup(self):
        relations = fk_chain_join_instance(
            3,
            FLIP_SIZE,
            FLIP_DOMAIN,
            degree_cap=1,
            fk_skew=FLIP_SKEW,
            seed=FLIP_SEED,
        )
        profile = profile_relations(
            relations, mode="sample", sample_size=FLIP_SAMPLE, seed=FLIP_SEED
        )
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=FLIP_DOMAIN)
        results = {}
        for key, registry in (
            ("legacy", legacy_bound_registry()),
            ("default", None),
        ):
            planner = PipelinePlanner(
                CostBasedPlanner.min_replication(), bound_registry=registry
            )
            results[key] = planner.plan(problem, q=FLIP_Q, profile=profile)
        return relations, results

    def test_degree_bound_is_strictly_tighter_than_agm(self, flip_setup):
        relations, _ = flip_setup
        profile = profile_relations(
            relations, mode="sample", sample_size=FLIP_SAMPLE, seed=FLIP_SEED
        )
        query = JoinQuery.chain(3)
        decision = default_bound_registry.evaluate(
            BoundContext(
                query=query,
                row_counts={r.name: float(r.size) for r in relations},
                profile=profile,
            )
        )
        agm = decision.candidate(METHOD_AGM)
        degree = decision.candidate(METHOD_DEGREE)
        assert agm is not None and degree is not None
        assert degree.value < agm.value
        assert decision.method == METHOD_DEGREE

    def test_registries_disagree_on_cascade_vs_one_round(self, flip_setup):
        _, results = flip_setup
        assert results["legacy"].best.is_cascade != results["default"].best.is_cascade

    def test_flipped_winner_joins_correctly_and_certificate_holds(self, flip_setup):
        relations, results = flip_setup
        records = SharesSchema.input_records(relations)
        _, oracle_rows = multiway_join_oracle(relations)
        run = results["default"].best.execute(records, engine=MapReduceEngine())
        assert sorted(run.outputs) == sorted(oracle_rows)
        assert run.certificates_hold()
        assert run.max_certified_load >= run.max_observed_load
