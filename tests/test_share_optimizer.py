"""The profile-driven share-vector optimizer (PR-4 tentpole).

Four contracts are pinned here:

1. **Budget safety** — integer rounding plus repair can never exceed the
   reducer budget and can never emit a share of 0, over random budgets,
   arities and weights (hypothesis).
2. **Grid dominance** — on small chain-join instances, uniform and
   Zipf(1.2), the optimizer's chosen vector is never worse under the
   certified max-load bound than the best fixed-grid vector for the same
   budget (hypothesis over seeds and budgets).
3. **Structure** — the Lagrangean relaxation reproduces the paper's
   closed-form share shapes (chain joins put the budget on the interior
   attributes, endpoints stay at 1).
4. **Planner integration** — optimized candidates appear in profiled
   ``plan`` calls with exact certificates, and their schema-cache entries
   are keyed by the profile fingerprint so two profiles can never share a
   stale certificate (the PR-4 cache-correctness satellite).
5. **Enumeration-scoped state** — one ``join_candidates`` enumeration
   certifies through one certification cache and one skew selection
   across its three candidate kinds, optimizes each budget's main grid
   once and certifies no schema twice; every candidate's certificate
   equals the one a private certification would give.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.relations import (
    chain_join_instance,
    skewed_chain_join_instance,
)
from repro.exceptions import ConfigurationError
from repro.planner import (
    CertificationKind,
    CostBasedPlanner,
    default_schema_cache,
    optimize_shares,
    repair_shares,
)
from repro.planner import builtins, share_opt
from repro.planner.certify import certify_max_reducer_load
from repro.planner.share_opt import (
    GRID_REDUCER_SWEEP,
    grid_share_vectors,
    optimize_log_shares,
    optimize_skew_shares,
    share_product,
)
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import SharesSchema
from repro.stats import profile_relations

DOMAIN = 12


@pytest.fixture(autouse=True)
def fresh_cache():
    default_schema_cache.clear()
    yield
    default_schema_cache.clear()


class TestRepairInvariant:
    """Satellite: ``Π s ≤ k`` always, shares never 0 (hypothesis)."""

    @given(
        budget=st.integers(min_value=1, max_value=512),
        shares=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_never_exceeds_budget_never_zeroes(self, budget, shares):
        vector = {f"A{index}": share for index, share in enumerate(shares)}
        repaired = repair_shares(vector, budget)
        assert share_product(repaired) <= budget
        assert all(share >= 1 for share in repaired.values())
        assert set(repaired) == set(vector)

    @given(
        num_relations=st.integers(min_value=2, max_value=5),
        budget=st.integers(min_value=1, max_value=256),
        sizes=st.lists(
            st.integers(min_value=1, max_value=5000), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_rounded_relaxation_respects_budget_for_random_chains(
        self, num_relations, budget, sizes
    ):
        query = JoinQuery.chain(num_relations)
        weights = {
            relation.name: float(sizes[index % len(sizes)])
            for index, relation in enumerate(query.relations)
        }
        continuous = optimize_log_shares(query, budget, weights)
        assert math.prod(continuous.values()) == pytest.approx(budget, rel=1e-9)
        vectors = share_opt._rounding_candidates(continuous, budget)
        assert vectors
        for vector in vectors:
            assert share_product(vector) <= budget
            assert all(share >= 1 for share in vector.values())

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            repair_shares({"A": 2}, 0)
        query = JoinQuery.chain(2)
        profile = profile_relations(chain_join_instance(2, 10, 4, seed=0))
        with pytest.raises(ConfigurationError):
            optimize_shares(query, 0, profile=profile, domain_size=4)
        with pytest.raises(ConfigurationError, match="covering every relation"):
            optimize_shares(JoinQuery.chain(3), 4, profile=profile, domain_size=4)


def _instance(kind: str, seed: int):
    if kind == "uniform":
        return chain_join_instance(3, 60, DOMAIN, seed=seed)
    return skewed_chain_join_instance(3, 60, DOMAIN, skew=1.2, seed=seed)


class TestGridDominance:
    """Satellite: certified bound ≤ best fixed grid, uniform and Zipf."""

    @given(
        kind=st.sampled_from(["uniform", "zipf"]),
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([4, 8, 16, 27, 32, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimizer_never_worse_than_best_grid_vector(self, kind, seed, budget):
        query = JoinQuery.chain(3)
        relations = _instance(kind, seed)
        profile = profile_relations(relations)
        optimized = optimize_shares(
            query, budget, profile=profile, domain_size=DOMAIN
        )
        assert optimized.num_reducers <= budget
        optimized_bound = certify_max_reducer_load(
            SharesSchema(query, optimized.shares, DOMAIN), profile
        ).bound
        best_grid = min(
            certify_max_reducer_load(
                SharesSchema(query, vector, DOMAIN), profile
            ).bound
            for vector in grid_share_vectors(query, budget)
        )
        assert optimized_bound <= best_grid
        assert optimized.score == optimized_bound


class TestSharedBucketCache:
    def test_shared_cache_changes_no_certification(self):
        """Sharing the bucket-weight table across certifications is free.

        Exact *and* sampled profiles must certify identically with and
        without a shared cache — in particular the Hoeffding union bound
        must count a sampled cell the oracle consulted through a cache hit
        it never computed (the cell is part of what the certificate relies
        on either way).
        """
        query = JoinQuery.chain(3)
        relations = _instance("zipf", 7)
        for mode in ("exact", "sample"):
            profile = profile_relations(relations, mode=mode, seed=1)
            shared: dict = {}
            for vector in ({"A1": 3, "A2": 3}, {"A1": 4, "A2": 3}, {"A1": 3, "A2": 3}):
                schema = SharesSchema(query, vector, DOMAIN)
                fresh = certify_max_reducer_load(schema, profile)
                cached = certify_max_reducer_load(
                    schema, profile, bucket_cache=shared
                )
                assert cached.bound == fresh.bound
                assert cached.kind == fresh.kind
                assert cached.detail == fresh.detail


def _certificate(certification):
    return (
        certification.kind,
        certification.bound,
        certification.delta,
        certification.method,
        certification.detail,  # names the sampled-cell count behind epsilon
        None if certification.load.loads is None else tuple(certification.load.loads),
    )


class TestEnumerationScopedState:
    """One ``join_candidates`` call hoists what its candidate kinds share."""

    QUERY = JoinQuery.chain(3)
    #: Wide enough that distinct tuples leave room for a heavy A1 value.
    WIDE = 24

    def _enumerate(self, mode, monkeypatch=None):
        relations = skewed_chain_join_instance(3, 60, self.WIDE, skew=1.6, seed=7)
        profile = profile_relations(relations, mode=mode, seed=1)
        problem = MultiwayJoinProblem(self.QUERY, domain_size=self.WIDE)
        calls = []
        if monkeypatch is not None:
            for module in (builtins, share_opt):

                def spy(*args, _real=module.optimize_shares, **kwargs):
                    calls.append(args[1])
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, "optimize_shares", spy)
            selections = []
            real_skew = builtins._profiled_skew
            monkeypatch.setattr(
                builtins,
                "_profiled_skew",
                lambda *args: selections.append(real_skew(*args)) or selections[-1],
            )
            calls.append(selections)
        candidates = list(
            builtins.join_candidates(problem, float("inf"), profile=profile)
        )
        return profile, candidates, calls

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_main_grid_optimized_once_per_budget(self, mode, monkeypatch):
        _, candidates, (selections, *budgets) = self._enumerate(mode, monkeypatch)
        # Once per budget — the sub-grid optimizer reuses the opt-shares
        # vector instead of running optimize_shares a second time.
        assert sorted(budgets) == sorted(GRID_REDUCER_SWEEP)
        assert len(selections) == 1 and selections[0] is not None
        kinds = {candidate.name.split("[")[0] for candidate in candidates}
        assert kinds == {"opt-shares", "skew-shares", "opt-skew-shares"}

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_no_schema_is_certified_twice(self, mode, monkeypatch):
        certified = []
        for module in (builtins, share_opt):
            real = getattr(module, "certify_max_reducer_load", None)
            if real is None:
                continue

            def spy(schema, profile, *args, _real=real, **kwargs):
                certified.append((schema.name, profile.fingerprint()))
                return _real(schema, profile, *args, **kwargs)

            monkeypatch.setattr(module, "certify_max_reducer_load", spy)
        _, candidates, _ = self._enumerate(mode)
        assert len(certified) >= len(candidates)
        assert len(set(certified)) == len(certified)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_every_certificate_equals_a_private_tables(self, mode):
        profile, candidates, _ = self._enumerate(mode)
        assert len(candidates) > 40
        for candidate in candidates:
            private = certify_max_reducer_load(candidate.family, profile)
            assert _certificate(candidate.certification) == _certificate(private)
            assert candidate.q == max(private.bound, 1.0)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_optimized_sub_grids_equal_the_two_run_derivation(self, mode):
        profile, candidates, _ = self._enumerate(mode)
        by_budget = [c for c in candidates if c.name.startswith("opt-skew-shares[")]
        assert len(by_budget) == len(GRID_REDUCER_SWEEP)
        for budget, candidate in zip(GRID_REDUCER_SWEEP, by_budget):
            family = candidate.family
            # The parent's derivation: optimize the main grid privately.
            alone = optimize_skew_shares(
                self.QUERY,
                budget,
                profile=profile,
                domain_size=self.WIDE,
                skew_attribute=family.skew_attribute,
                heavy_values=tuple(family.heavy_values),
            )
            assert family.shares == alone.shares
            assert family.heavy_shares == {
                attribute: alone.heavy_shares.get(attribute, 1)
                for attribute in family.sub_attributes
            }
            assert _certificate(candidate.certification) == _certificate(
                alone.certification
            )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from(GRID_REDUCER_SWEEP),
        profiled=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_repair_is_idempotent_on_optimizer_output(self, seed, budget, profiled):
        """What feeding ``optimize_skew_shares(shares=...)`` rests on."""
        profile = (
            profile_relations(_instance("zipf", seed))
            if profiled
            else builtins._model_domain_profile(self.QUERY, DOMAIN)
        )
        shares = optimize_shares(
            self.QUERY, budget, profile=profile, domain_size=DOMAIN
        ).shares
        assert repair_shares(shares, budget) == shares


class TestRelaxationStructure:
    def test_chain_join_budget_goes_to_interior_attributes(self):
        query = JoinQuery.chain(3)
        weights = {name: 1000.0 for name in ("R1", "R2", "R3")}
        continuous = optimize_log_shares(query, 64, weights)
        # Endpoint attributes appear in one relation each: partitioning on
        # them replicates both other relations, so the relaxation zeroes
        # them and splits ln 64 between A1 and A2 (symmetric weights).
        assert continuous["A0"] == pytest.approx(1.0, abs=1e-6)
        assert continuous["A3"] == pytest.approx(1.0, abs=1e-6)
        assert continuous["A1"] == pytest.approx(8.0, rel=1e-3)
        assert continuous["A2"] == pytest.approx(8.0, rel=1e-3)
        product = math.prod(continuous.values())
        assert product == pytest.approx(64.0, rel=1e-6)

    def test_asymmetric_weights_shift_shares(self):
        # With R1 huge, replicating R1 is expensive: A2's share (the only
        # attribute whose partitioning replicates R1) should shrink
        # relative to A1's.
        query = JoinQuery.chain(3)
        weights = {"R1": 10_000.0, "R2": 10.0, "R3": 10.0}
        continuous = optimize_log_shares(query, 64, weights)
        assert continuous["A1"] > continuous["A2"]

    def test_budget_one_is_all_ones(self):
        query = JoinQuery.chain(4)
        profile = profile_relations(chain_join_instance(4, 20, 6, seed=0))
        result = optimize_shares(query, 1, profile=profile, domain_size=6)
        assert all(share == 1 for share in result.shares.values())


class TestPlannerIntegration:
    def test_profiled_plan_contains_optimized_candidates(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=DOMAIN)
        relations = _instance("zipf", 3)
        profile = profile_relations(relations)
        planner = CostBasedPlanner.min_replication()
        result = planner.plan(problem, q=200, profile=profile)
        optimized = [plan for plan in result.plans if plan.name.startswith("opt-")]
        assert optimized, "profiled planning must enumerate optimized vectors"
        for plan in optimized:
            assert plan.certification is not None
            assert plan.certification.bound == plan.q
        # Without a profile the optimizer serves the model's full domain.
        unprofiled = planner.plan(problem, q=200)
        assert any(plan.name.startswith("opt-") for plan in unprofiled.plans)
        assert all(
            plan.certification.kind is CertificationKind.EXACT
            for plan in unprofiled.plans
        )

    def test_two_profiles_never_share_a_certificate(self):
        """PR-4 cache satellite: fingerprint keys prevent stale reuse.

        Plans the same (problem, budget) under two different profiles and
        asserts the same-named candidates carry *distinct* certificates,
        each matching a fresh certification against its own profile — a
        schema-cache key that dropped the profile fingerprint would hand
        the second plan the first profile's stale bounds.
        """
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=DOMAIN)
        planner = CostBasedPlanner.min_replication()
        profiles = [
            profile_relations(_instance("uniform", 11)),
            profile_relations(_instance("zipf", 11)),
        ]
        results = [
            planner.plan(problem, q=10_000, profile=profile) for profile in profiles
        ]
        by_name = [
            {plan.name: plan for plan in result.plans} for result in results
        ]
        shared_names = [
            name
            for name in by_name[0]
            if name in by_name[1] and not name.endswith("(A0=1,A1=1,A2=1,A3=1)")
        ]
        assert shared_names, "expected overlapping candidates across profiles"
        distinct = 0
        for name in shared_names:
            first, second = by_name[0][name], by_name[1][name]
            # Each certificate must agree with a fresh certification of the
            # same schema against the profile the plan was made with.
            for plan, profile in ((first, profiles[0]), (second, profiles[1])):
                fresh = certify_max_reducer_load(plan.family, profile)
                assert plan.certification.bound == fresh.bound
            if first.certification.bound != second.certification.bound:
                distinct += 1
        assert distinct > 0, (
            "two different profiles produced identical certificates for every "
            "shared candidate — fingerprint keying is not being exercised"
        )

    def test_sample_graph_certificates_track_their_profile(self):
        """The same fingerprint-keying pin for the sample-graph builder."""
        from repro.datagen import skewed_graph
        from repro.problems.subgraphs import SampleGraph, SampleGraphProblem
        from repro.stats import profile_graph

        n = 20
        problem = SampleGraphProblem(n, SampleGraph.triangle())
        planner = CostBasedPlanner.min_replication()
        profiles = [
            profile_graph(skewed_graph(n, 60, seed=1)),
            profile_graph(skewed_graph(n, 60, seed=2)),
        ]
        bounds = []
        for profile in profiles:
            result = planner.plan(problem, q=10_000, profile=profile)
            balanced = [p for p in result.plans if "balanced" in p.name]
            assert balanced
            bounds.append(
                {p.name: p.certification.bound for p in balanced}
            )
        shared = set(bounds[0]) & set(bounds[1])
        assert shared
        assert any(bounds[0][name] != bounds[1][name] for name in shared)
