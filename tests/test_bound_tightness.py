"""Bound-tightness regression suite.

PostBOUND-style contracts over :func:`repro.bounds.size_bound`:

* **Soundness** — on seeded uniform, Zipf and key→FK chain instances,
  every candidate ``size_bound`` emits upper-bounds the *true* join size,
  for exact and sampled profiles alike (sampled profiles only feed the
  refinements deterministic sketch bounds, so soundness holds without
  probability qualifiers).  Every decision these tests make also equals
  the pre-``size_bound`` bound registry's (``bound_oracle``).
* **Dominance** — the degree-constraint bound never exceeds AGM whenever
  both apply (it is clamped by construction; pinned here so the clamp
  cannot be refactored away).
* **Tightness** — on FD-bearing key→FK chains the degree bound is orders
  of magnitude tighter than AGM, and the tightness ratios stay pinned.
* **Planned join nodes** — on a key→FK and a Zipf chain planned by the
  pipeline planner and executed, every method's candidate at each join
  node covers the node's executed output, degree ≤ AGM there too, and the
  executed rounds' bounding certificates hold.
* **Metadata plumbing** — ``max_degree`` / ``functional_dependencies``
  agree between batch and streaming profilers and survive the JSON
  round-trip that ships profiles between planner and service.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundContext,
    ChildView,
    size_bound,
)
from repro.datagen.relations import (
    chain_join_instance,
    fk_chain_join_instance,
    multiway_join_oracle,
    skewed_chain_join_instance,
)
from repro.pipeline import SizeEstimator
from repro.pipeline.logical import BinaryJoinOp, RelationLeaf
from repro.problems.joins import JoinQuery
from repro.stats import (
    DatasetProfile,
    StreamingRelationProfiler,
    profile_relations,
)
from repro.stats.profile import profile_relation

from bound_oracle import oracle_registry, route_size_bound

CHAIN = JoinQuery.chain(3)


def _instances(seed: int):
    """One instance per workload shape, keyed by a label."""
    return {
        "uniform": chain_join_instance(3, 60, 12, seed=seed),
        "zipf": skewed_chain_join_instance(3, 60, 40, skew=1.2, seed=seed),
        "fk": fk_chain_join_instance(3, 60, 120, degree_cap=1, fk_skew=1.4, seed=seed),
    }


def _truth(relations) -> float:
    return float(len(multiway_join_oracle(relations)[1]))


def _whole_query_context(relations, profile) -> BoundContext:
    return BoundContext(
        query=CHAIN,
        row_counts={r.name: float(r.size) for r in relations},
        profile=profile,
    )


def _exact_child_view(relation, profile) -> ChildView:
    relation_profile = profile.relation(relation.name)
    return ChildView(
        name=relation.name,
        rows=float(relation.size),
        sound_histograms={
            attribute: {
                value: float(count)
                for value, count in relation_profile.attribute(attribute).histogram.items()
            }
            for attribute in relation.attributes
        },
        degree_caps={
            attribute: float(relation_profile.attribute(attribute).degree_cap)
            for attribute in relation.attributes
        },
        attribute_profiles=relation_profile.attributes,
    )


def _leaves(relations):
    return {r.name: RelationLeaf(CHAIN.relation(r.name)) for r in relations}


def _node_checks(relations, profile):
    """(size_bound, truth) per cascade intermediate and for the full query."""
    estimator = SizeEstimator(CHAIN, 10**6, profile=profile)
    leaves = _leaves(relations)
    by_name = {r.name: r for r in relations}
    names = [r.name for r in relations]
    checks = []
    for pair in ((names[0], names[1]), (names[1], names[2])):
        op = BinaryJoinOp(leaves[pair[0]], leaves[pair[1]])
        estimate = estimator.estimate(op)
        checks.append(
            (estimate.size_bound, _truth([by_name[pair[0]], by_name[pair[1]]]))
        )
    bound, _ = estimator.query_output_bound()
    checks.append((bound, _truth(relations)))
    return checks


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("size_bound_checks")
class TestSoundness:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shape", ["uniform", "zipf", "fk"])
    def test_exact_candidates_upper_bound_truth(self, shape, seed):
        relations = _instances(seed)[shape]
        profile = profile_relations(relations)
        truth = _truth(relations)
        context = _whole_query_context(relations, profile)
        decision = size_bound(context)
        assert decision == oracle_registry().evaluate(context)
        for candidate in decision.candidates:
            assert candidate.value >= truth, candidate.method
        assert decision.value >= truth

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shape", ["uniform", "zipf", "fk"])
    def test_exact_node_bounds_upper_bound_truth(self, shape, seed):
        relations = _instances(seed)[shape]
        profile = profile_relations(relations)
        for bound, truth in _node_checks(relations, profile):
            assert bound >= truth

    @pytest.mark.parametrize("seed", range(25))
    def test_sampled_node_bounds_remain_sound(self, seed):
        """Sampled profiles feed only deterministic sketch bounds."""
        relations = fk_chain_join_instance(
            3, 120, 240, degree_cap=2, fk_skew=1.2, seed=seed
        )
        profile = profile_relations(
            relations, mode="sample", sample_size=48, seed=seed
        )
        for bound, truth in _node_checks(relations, profile):
            assert bound >= truth

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=5, max_value=40),
        domain=st.integers(min_value=4, max_value=10),
    )
    def test_binary_join_bound_sound_on_random_instances(
        self, seed, size, domain, size_bound_checks
    ):
        checked = len(size_bound_checks)
        size = min(size, domain * domain)  # distinct tuples need room
        relations = chain_join_instance(2, size, domain, seed=seed)[:2]
        query = JoinQuery.chain(2)
        profile = profile_relations(relations)
        estimator = SizeEstimator(query, domain, profile=profile)
        leaves = {r.name: RelationLeaf(query.relation(r.name)) for r in relations}
        op = BinaryJoinOp(leaves[relations[0].name], leaves[relations[1].name])
        assert estimator.estimate(op).size_bound >= _truth(relations)
        assert len(size_bound_checks) > checked


# ----------------------------------------------------------------------
# Dominance and tightness
# ----------------------------------------------------------------------
class TestTightness:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shape", ["uniform", "zipf", "fk"])
    def test_degree_bound_never_exceeds_agm(self, shape, seed):
        relations = _instances(seed)[shape]
        profile = profile_relations(relations)
        decision = size_bound(_whole_query_context(relations, profile))
        agm = decision.candidate(METHOD_AGM)
        degree = decision.candidate(METHOD_DEGREE)
        assert agm is not None
        if degree is not None:
            assert degree.value <= agm.value

    def test_degree_bound_orders_of_magnitude_tighter_on_fd_chain(self):
        """degree_cap=1 chains: AGM charges |R1|·|R3|, degree charges |R1|."""
        relations = fk_chain_join_instance(
            3, 300, 600, degree_cap=1, fk_skew=1.6, seed=186
        )
        profile = profile_relations(relations)
        truth = _truth(relations)
        decision = size_bound(_whole_query_context(relations, profile))
        agm = decision.candidate(METHOD_AGM)
        degree = decision.candidate(METHOD_DEGREE)
        assert agm is not None and degree is not None
        assert degree.value <= agm.value / 100  # strictly, and not by a hair
        assert degree.value >= truth
        # Pinned tightness ratios: AGM can only see row counts (3002 for
        # the chain cover |R1|·|R3|); the degree chain collapses to |R1|.
        assert agm.value == pytest.approx(300.0 * 300.0)
        assert degree.value == pytest.approx(300.0)

    def test_topk_bound_sound_and_tighter_than_agm_on_skewed_binary_join(self):
        relations = skewed_chain_join_instance(2, 150, 80, skew=1.3, seed=11)[:2]
        query = JoinQuery.chain(2)
        profile = profile_relations(relations)
        truth = _truth(relations)
        left, right = relations
        shared = set(left.attributes) & set(right.attributes)
        context = BoundContext(
            query=JoinQuery(
                [query.relation(left.name), query.relation(right.name)],
                name="topk-check",
            ),
            row_counts={left.name: float(left.size), right.name: float(right.size)},
            profile=profile,
            left=_exact_child_view(left, profile),
            right=_exact_child_view(right, profile),
            shared_attributes=tuple(sorted(shared)),
        )
        decision = size_bound(context)
        topk = decision.candidate(METHOD_TOPK)
        agm = decision.candidate(METHOD_AGM)
        histogram = decision.candidate(METHOD_HISTOGRAM)
        assert topk is not None and agm is not None and histogram is not None
        assert topk.value >= truth
        assert topk.value < agm.value
        # Exact histograms still win overall — top-k only ever sees the
        # head, so the full per-value sum is at least as tight.
        assert decision.method == METHOD_HISTOGRAM
        assert histogram.value <= topk.value


# ----------------------------------------------------------------------
# Planned and executed join nodes
# ----------------------------------------------------------------------
class _Recorder:
    """Wraps ``size_bound`` and keeps each join node's first decision, with
    every method's candidate, keyed by its base relations, and the set of
    methods its decisions chose."""

    def __init__(self):
        self.decisions = {}
        self.chosen = {}

    def __call__(self, context):
        decision = size_bound(context)
        if context.is_join:
            key = tuple(sorted(r.name for r in context.query.relations))
            self.decisions.setdefault(key, decision)
            self.chosen.setdefault(key, set()).add(decision.method)
        return decision


def _planned_join_nodes(relations, domain=120):
    """Plan a chain-3 cascade through the recorder, execute it, and pair
    each join round's decision with its frontier row and with the methods
    ``size_bound`` chose at that node."""
    from repro.mapreduce import MapReduceEngine
    from repro.pipeline import PipelinePlanner
    from repro.planner import CostBasedPlanner
    from repro.problems.joins import MultiwayJoinProblem
    from repro.schemas import SharesSchema

    recorder = _Recorder()
    with pytest.MonkeyPatch.context() as patch:
        route_size_bound(patch, recorder)
        result = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
            MultiwayJoinProblem(CHAIN, domain_size=domain),
            q=2000.0,
            profile=profile_relations(relations),
        )
        cascade = result.cascades()[0]
        run = cascade.execute(
            SharesSchema.input_records(relations), engine=MapReduceEngine()
        )
    keys = [tuple(sorted(set(round_.op.base_relations))) for round_ in cascade.rounds]
    nodes = [(recorder.decisions[key], row) for key, row in zip(keys, run.frontier())]
    chosen = [recorder.chosen[key] for key in keys]
    return run, nodes, chosen


class TestPlannedJoinNodes:
    """Every method's candidate at a join node the pipeline planner priced
    covers the size the node's round actually produced."""

    @pytest.fixture(
        scope="class",
        params=[
            pytest.param(
                lambda: fk_chain_join_instance(
                    3, 60, 120, degree_cap=2, fk_skew=0.6, seed=5
                ),
                id="fk-chain",
            ),
            pytest.param(
                lambda: skewed_chain_join_instance(3, 60, 120, skew=1.2, seed=7),
                id="zipf-chain",
            ),
        ],
    )
    def planned(self, request):
        return _planned_join_nodes(request.param())

    def test_every_method_bounds_the_executed_node(self, planned):
        _, nodes, _ = planned
        assert nodes
        methods = set()
        for decision, row in nodes:
            for candidate in decision.candidates:
                methods.add(candidate.method)
                assert candidate.value >= row["rows_out"], candidate.method
        assert methods == {METHOD_AGM, METHOD_DEGREE, METHOD_HISTOGRAM, METHOD_TOPK}

    def test_degree_bound_never_exceeds_agm_per_node(self, planned):
        _, nodes, _ = planned
        compared = 0
        for decision, _ in nodes:
            agm = decision.candidate(METHOD_AGM)
            degree = decision.candidate(METHOD_DEGREE)
            if agm is not None and degree is not None:
                assert degree.value <= agm.value
                compared += 1
        assert compared > 0

    def test_frontier_names_the_size_bound_choice(self, planned):
        # A re-planned round is priced again on the observed profile,
        # outside the recorded planning pass.
        _, nodes, chosen = planned
        planned_rows = [
            (row, methods)
            for (_, row), methods in zip(nodes, chosen)
            if not row["replanned"]
        ]
        assert planned_rows
        for row, methods in planned_rows:
            assert row["method"] in methods

    def test_bounding_certificates_hold(self, planned):
        from repro.planner.certify import CertificationKind

        bounding = {
            CertificationKind.EXACT.value,
            CertificationKind.HIGH_PROBABILITY.value,
        }
        run, nodes, _ = planned
        assert run.certificates_hold()
        assert any(row["kind"] in bounding for _, row in nodes)


# ----------------------------------------------------------------------
# Degree metadata plumbing
# ----------------------------------------------------------------------
class TestDegreeMetadata:
    def test_streaming_profile_matches_batch_fd_and_max_degree(self):
        relations = fk_chain_join_instance(
            3, 80, 160, degree_cap=1, fk_skew=1.2, seed=5
        )
        for relation in relations:
            batch = profile_relation(relation)
            streaming = StreamingRelationProfiler(relation.name, relation.attributes)
            for row in relation.tuples:
                streaming.observe(row)
            streamed = streaming.finish()
            for attribute in relation.attributes:
                expected = batch.attribute(attribute)
                observed = streamed.attribute(attribute)
                assert observed.max_degree == expected.max_degree
                assert set(observed.functional_dependencies) == set(
                    expected.functional_dependencies
                )

    def test_fk_chain_left_columns_carry_fd_witnesses(self):
        relations = fk_chain_join_instance(
            3, 80, 160, degree_cap=1, fk_skew=1.2, seed=5
        )
        profile = profile_relations(relations)
        for relation in relations:
            key_attribute, fk_attribute = relation.attributes
            key = profile.relation(relation.name).attribute(key_attribute)
            assert key.max_degree == 1
            assert fk_attribute in key.functional_dependencies

    def test_json_roundtrip_preserves_degree_metadata(self):
        relations = fk_chain_join_instance(
            3, 80, 160, degree_cap=2, fk_skew=1.2, seed=9
        )
        profile = profile_relations(relations)
        restored = DatasetProfile.from_json(profile.to_json())
        assert restored.fingerprint() == profile.fingerprint()
        for relation in relations:
            for attribute in relation.attributes:
                original = profile.relation(relation.name).attribute(attribute)
                copy = restored.relation(relation.name).attribute(attribute)
                assert copy.max_degree == original.max_degree
                assert copy.functional_dependencies == original.functional_dependencies
                assert copy.degree_cap == original.degree_cap
