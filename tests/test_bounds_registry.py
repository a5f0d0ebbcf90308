"""Size-bound contracts: one ``size_bound`` in place of the bound registry.

Four contracts are pinned here:

1. **The decision** — ``BoundDecision``'s estimate/candidate accessors,
   non-negative candidates, the candidate order (histogram, AGM, degree,
   top-k) and its tie-breaking, the cross-product and AGM clamps, equality
   with the verbatim oracle registry on hand-built contexts, and AGM
   computed once per evaluation while planning (the registry it replaced
   computed it twice whenever a degree chain applied).
2. **Bit-identity** — ``size_bound`` reproduces the pre-refactor
   estimator's numbers and method labels exactly, against hand-computed
   math, and node-by-node against the legacy pair (per-value histogram +
   AGM, kept in ``bound_oracle``) on exact profiles, where the exact
   per-value sum dominates every newer bound.
3. **Routing** — every AGM call site outside :mod:`repro.bounds` is gone,
   and the cover cache / size bound surface their observability counters.
4. **The acceptance flip** — on a seeded FD-bearing key→FK chain with a
   sampled profile, the degree-constraint bound clamps a legacy
   histogram overestimate, flipping the planner's cascade-vs-one-round
   decision; the chosen plan still joins correctly and its certificate
   still bounds the observed per-reducer load.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.bounds.estimators
from repro.bounds import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundCandidate,
    BoundContext,
    BoundDecision,
    ChildView,
    agm_bound,
    clear_cover_cache,
    cover_cache_stats,
    per_value_sum,
    size_bound,
)
from repro.datagen.relations import (
    chain_join_instance,
    fk_chain_join_instance,
    multiway_join_oracle,
    skewed_chain_join_instance,
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

from bound_oracle import legacy_registry, oracle_registry, route_size_bound

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


@contextmanager
def legacy_bounds():
    """Planning inside bounds every node with the legacy pair instead."""
    with pytest.MonkeyPatch.context() as patch:
        route_size_bound(patch, legacy_registry().evaluate)
        yield


def _leaf_view(relation, profile):
    """A base relation as the planner's estimator shows it to the bound."""
    stats = profile.relation(relation.name).attributes
    exact = all(attribute.exact for attribute in stats.values())
    return ChildView(
        name=relation.name,
        rows=float(relation.size),
        sound_histograms=(
            {
                name: {value: float(count) for value, count in attribute.histogram.items()}
                for name, attribute in stats.items()
            }
            if exact
            else None
        ),
        degree_caps={name: float(attribute.degree_cap) for name, attribute in stats.items()},
        attribute_profiles=stats,
    )


def _profiled_join_context(mode):
    relations = skewed_chain_join_instance(2, 60, 12, skew=1.6, seed=3)
    if mode == "exact":
        profile = profile_relations(relations)
    else:
        profile = profile_relations(relations, mode="sample", sample_size=16, seed=3)
    return BoundContext(
        query=JoinQuery.chain(2),
        row_counts={r.name: float(r.size) for r in relations},
        profile=profile,
        left=_leaf_view(relations[0], profile),
        right=_leaf_view(relations[1], profile),
        shared_attributes=("A1",),
    )


def _small_join_context(left, right, rows=4.0):
    """``R1(A0,A1) ⋈ R2(A1,A2)`` with ``rows`` base rows each: AGM is rows²."""
    query = JoinQuery.chain(2)
    return BoundContext(
        query=query,
        row_counts={r.name: rows for r in query.relations},
        left=ChildView(name="R1", **left),
        right=ChildView(name="R2", **right),
        shared_attributes=("A1",),
    )


def _oracle_contexts():
    relations = chain_join_instance(3, 60, 12, seed=3)
    return {
        "exact-join": lambda: _profiled_join_context("exact"),
        "sampled-join": lambda: _profiled_join_context("sample"),
        "unprofiled-join": lambda: _small_join_context(
            {"rows": 4.0, "degree_caps": {"A1": 4.0}}, {"rows": 4.0}
        ),
        "profiled-query": lambda: BoundContext(
            query=JoinQuery.chain(3),
            row_counts={r.name: float(r.size) for r in relations},
            profile=profile_relations(relations),
        ),
    }


# ----------------------------------------------------------------------
# The decision
# ----------------------------------------------------------------------
class TestDecision:
    def test_candidates_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            BoundCandidate(method="bad", value=-1.0)

    def test_decision_estimate_refines_but_never_exceeds_value(self):
        decision = BoundDecision(
            value=10.0,
            method="bound",
            candidates=(
                BoundCandidate(method="bound", value=10.0),
                BoundCandidate(method="sketch", value=12.0, estimate=6.0),
            ),
        )
        assert decision.estimate == 6.0
        assert decision.candidate("sketch").value == 12.0
        assert decision.candidate("missing") is None

    def test_candidates_come_in_histogram_agm_degree_topk_order(self):
        decision = size_bound(_profiled_join_context("exact"))
        assert tuple(c.method for c in decision.candidates) == (
            METHOD_HISTOGRAM,
            METHOD_AGM,
            METHOD_DEGREE,
            METHOD_TOPK,
        )
        assert decision.value == min(c.value for c in decision.candidates)

    def test_join_agm_is_clamped_by_the_children_cross_product(self):
        query = JoinQuery.chain(2)
        context = BoundContext(
            query=query,
            row_counts={r.name: 100.0 for r in query.relations},
            left=ChildView(name="R1", rows=3.0),
            right=ChildView(name="R2", rows=5.0),
            shared_attributes=("A1",),
        )
        assert agm_bound(query, context.row_counts) > 15.0
        decision = size_bound(context)
        assert decision.candidates == (BoundCandidate(method=METHOD_DOMAIN, value=15.0),)

    def test_degree_chain_is_clamped_by_agm(self):
        context = _small_join_context(
            {"rows": 4.0, "degree_caps": {"A1": 100.0}}, {"rows": 4.0}
        )
        decision = size_bound(context)
        assert agm_bound(context.query, context.row_counts) == 16.0
        assert decision.candidate(METHOD_DEGREE).value == 16.0  # raw chain: 400

    def test_histogram_tie_with_agm_keeps_the_histogram_label(self):
        heavy = {"rows": 4.0, "sound_histograms": {"A1": {0: 4.0}}}
        decision = size_bound(_small_join_context(heavy, heavy))
        assert decision.candidate(METHOD_DOMAIN).value == 16.0
        assert decision.value == 16.0
        assert decision.method == METHOD_HISTOGRAM

    def test_degree_tie_with_agm_keeps_the_agm_label(self):
        """The AGM/degree ties are broken by candidate order, as the
        registry broke them by registration order."""
        context = _small_join_context(
            {"rows": 4.0, "degree_caps": {"A1": 4.0}}, {"rows": 4.0}
        )
        context = dataclasses.replace(
            context, profile=profile_relations(chain_join_instance(2, 4, 4, seed=1))
        )
        decision = size_bound(context)
        assert decision.candidate(METHOD_DEGREE).value == 16.0
        assert decision.value == 16.0
        assert decision.method == METHOD_AGM

    @pytest.mark.parametrize("case", sorted(_oracle_contexts()))
    def test_size_bound_equals_the_oracle_registry(self, case):
        context = _oracle_contexts()[case]()
        decision = size_bound(context)
        assert decision == oracle_registry().evaluate(context)
        assert decision.estimate == oracle_registry().evaluate(context).estimate

    def test_agm_runs_once_per_evaluation(self, monkeypatch):
        """The 12 ``plan-chain`` benchmark instances, planned and completed:
        60 size-bound evaluations and one AGM bound each (the registry that
        ``size_bound`` replaced made 120 AGM calls for the same 60)."""
        calls = {"agm": 0, "size_bound": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            repro.bounds.estimators, "agm_bound", counted("agm", agm_bound)
        )
        route_size_bound(monkeypatch, counted("size_bound", size_bound))
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=16)
        for seed in (5, 17, 61):
            for index in range(4):
                relations = skewed_chain_join_instance(
                    3, 40, 16, skew=1.6, seed=seed * 100_003 + 7 * (index + 1)
                )
                PipelinePlanner(CostBasedPlanner.min_replication()).plan(
                    problem, q=160, profile=profile_relations(relations)
                ).complete()
        assert calls["size_bound"] == 60
        assert calls["agm"] <= calls["size_bound"]


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
        decision = size_bound(context)
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
        decision = size_bound(context)
        assert decision.method == METHOD_DOMAIN
        assert decision.value == agm_bound(query, context.row_counts)

    def test_whole_query_context_is_plain_agm(self, exact_setup):
        relations, _ = exact_setup
        query = JoinQuery.chain(3)
        row_counts = {r.name: float(r.size) for r in relations}
        decision = size_bound(BoundContext(query=query, row_counts=row_counts))
        assert decision.method == METHOD_AGM
        assert decision.value == agm_bound(query, row_counts)
        assert decision.candidates == (
            BoundCandidate(method=METHOD_AGM, value=decision.value),
        )

    def test_size_bound_is_node_identical_on_exact_profiles(self, exact_setup):
        """Exact per-value sums dominate the newer bounds on base-table joins,
        so leaf-level numbers and method labels cannot move; on deeper nodes
        (where exact histograms are no longer available and legacy fell back
        to AGM) ``size_bound`` may only *tighten* the bound, and the
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
        def node_rows():
            estimator = SizeEstimator(query, 12, profile=profile)
            return [
                (
                    estimator.estimate(op).size_bound,
                    estimator.estimate(op).size_estimate,
                    estimator.estimate(op).method,
                )
                for op in base_ops + deep_ops
            ]

        with legacy_bounds():
            results = {"legacy": node_rows()}
        results["default"] = node_rows()
        for legacy, default in zip(results["legacy"][: len(base_ops)], results["default"]):
            assert default == legacy
        for legacy, default in zip(results["legacy"], results["default"]):
            assert default[0] <= legacy[0]  # never looser
            assert default[1] == legacy[1]  # calibrated estimates identical

    def test_planner_output_is_identical_on_exact_profiles(self, exact_setup):
        relations, profile = exact_setup
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=12)
        def ranking():
            planner = PipelinePlanner(CostBasedPlanner.min_replication())
            result = planner.plan(problem, q=200, profile=profile).complete()
            return [(plan.name, plan.total_cost, plan.num_rounds) for plan in result]

        with legacy_bounds():
            legacy = ranking()
        assert ranking() == legacy


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

    def test_size_bound_counts_wins_per_method(self):
        metrics = MetricsRegistry()
        query = JoinQuery.chain(2)
        context = BoundContext(
            query=query,
            row_counts={r.name: 5.0 for r in query.relations},
            metrics=metrics,
        )
        size_bound(context)
        size_bound(context)
        wins = metrics.counter("bounds_method_wins_total")
        assert metrics.counter("bounds_evaluations_total").value() == 2
        assert wins.value(method=METHOD_AGM) == 2
        assert wins.value(method=METHOD_DEGREE) == 0

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


# ----------------------------------------------------------------------
# The acceptance flip
# ----------------------------------------------------------------------
# A seeded key→FK chain (degree-capped keys, Zipf(1.6) foreign keys) with
# an under-covering sampled profile: the legacy estimator's approximate
# histogram inflates both cascade intermediates (the heavy FK value lands
# in the key side's 64-row reservoir and is scaled up by rows/sample),
# while the degree-constraint bound clamps them to |R1|.  At FLIP_Q the
# one-round plan prices between the two, so the legacy pair and
# ``size_bound`` disagree on cascade-vs-one-round.
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
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        with legacy_bounds():
            results = {"legacy": planner.plan(problem, q=FLIP_Q, profile=profile)}
        results["default"] = planner.plan(problem, q=FLIP_Q, profile=profile)
        return relations, results

    def test_degree_bound_is_strictly_tighter_than_agm(self, flip_setup):
        relations, _ = flip_setup
        profile = profile_relations(
            relations, mode="sample", sample_size=FLIP_SAMPLE, seed=FLIP_SEED
        )
        query = JoinQuery.chain(3)
        decision = size_bound(
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

    def test_legacy_pair_and_size_bound_disagree_on_cascade_vs_one_round(
        self, flip_setup
    ):
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
