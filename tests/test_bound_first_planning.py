"""Bound-first structure search against the exhaustive sweep it replaced.

``PipelinePlanner._join_structures`` prices every cascade by its
closed-form lower bound, plans cheapest bound first and stops once the
incumbent beats the next bound.  The loop it replaced — plan the one-round
structure and *every* cascade, then sort — is kept here verbatim as the
oracle (``exhaustive_plan``), and these contracts are pinned against it:

1. **Same winner without completing** — ``plan().best`` equals the
   oracle's best (name, cost, ``describe()``, certificates) on seeded
   uniform / Zipf / FK-chain / 2-chain instances under exact and sampled
   profiles, five budgets and two cost models.
2. **Same everything after ``complete()``** — every plan's name / cost /
   rank / ``describe()`` and the ``rejected`` list.
3. **Soundness is enforced** — a completed plan below its recorded bound,
   a displaced winner or a candidate below its builder's declared floor
   raises; an undeclared floor prunes nothing.
4. **The deferred half is robust** — a crash mid-completion changes
   nothing and a retry finishes; infeasible budgets report as before.
5. **One size bound, the registry's numbers** — every ``size_bound``
   evaluation this module's planning makes equals the pre-``size_bound``
   bound registry's decision (``bound_oracle``), candidates and all.

The seeded sweep has 78 instance × profile-mode cases, each a cold
exhaustive plan (~0.2 s); tier-1 runs every seventh (all five kinds, both
modes, all five budgets, every outcome class) and ``--full-sweep`` — the
``pipeline-smoke`` CI job — runs them all.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import ClusterCostModel
from repro.datagen.relations import (
    chain_join_instance,
    fk_chain_join_instance,
    skewed_chain_join_instance,
)
from repro.exceptions import BoundDerivationError, ConfigurationError, PlanningError
from repro.mapreduce import ClusterConfig
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline import PipelinePlanner, SizeEstimator
from repro.pipeline import planner as pipeline_planner
from repro.pipeline.logical import MultiwayJoinOp, enumerate_join_trees
from repro.pipeline.planner import PipelinePlan, PipelineRound, _round_cost
from repro.planner import CostBasedPlanner, SchemaRegistry, default_registry
from repro.planner.builtins import join_candidates
from repro.planner.registry import PlanCandidate
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.stats import profile_relations

SIZE, DOMAIN, FK_DOMAIN = 30, 12, 40
FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0)
#: Odd and coprime with the five budgets, so the stride alternates profile
#: modes and cycles every budget.
TIER1_STRIDE = 7


# ----------------------------------------------------------------------
# The oracle: the pre-bound-first loop, every structure planned
# ----------------------------------------------------------------------
def exhaustive_join_structures(self, problem, cluster, budget, model, profile):
    query = problem.query
    estimator = SizeEstimator(
        query, problem.domain_size, profile, metrics=cluster.metrics
    )
    plans = []
    rejected = []
    # The one-round Shares structure (Section 5.5).
    one_round_op = MultiwayJoinOp(query)
    try:
        best = self.planner.plan(problem, cluster, q=budget, profile=profile).best
    except PlanningError as error:
        rejected.append((one_round_op.label(), str(error)))
    else:
        inputs = sum(
            estimator.leaf_rows(relation.name) for relation in query.relations
        )
        output, output_method = estimator.query_output_bound()
        plans.append(
            PipelinePlan(
                problem=problem,
                op=one_round_op,
                rounds=[
                    PipelineRound(
                        index=0,
                        op=one_round_op,
                        plan=best,
                        estimated_inputs=inputs,
                        estimated_output=output,
                        estimate_method=output_method,
                        estimate_exact=estimator.profile is not None
                        and estimator.profile.exact,
                        cost=_round_cost(best.cost, inputs),
                        estimated_output_bound=output,
                    )
                ],
                cluster=cluster,
                q_budget=budget,
                cost_model=model,
                planner=self.planner,
                profile=profile,
            )
        )
    # Every cascade of binary Shares joins.
    for tree in enumerate_join_trees(
        query,
        include_bushy=self.include_bushy,
        max_bushy_relations=self.max_bushy_relations,
    ):
        try:
            plans.append(
                self._plan_cascade(
                    problem, tree, estimator, cluster, budget, model, profile
                )
            )
        except PlanningError as error:
            rejected.append((tree.label(), str(error)))
    return plans, rejected


def exhaustive_plan(planner, problem, budget, profile):
    """``PipelinePlanner.plan`` as it ranked before: plan all, then sort."""
    cluster = ClusterConfig()
    model = planner.planner.cost_model
    plans, rejected = exhaustive_join_structures(
        planner, problem, cluster, float(budget), model, profile
    )
    if not plans:
        reasons = "; ".join(f"{label}: {reason}" for label, reason in rejected)
        raise PlanningError(
            f"no round structure for {problem.name!r} fits within the "
            f"reducer-size budget q={budget:g} ({reasons})"
        )
    plans.sort(key=lambda plan: (plan.total_cost, plan.num_rounds, plan.name))
    return plans, rejected


def certificate_row(certification):
    load = certification.load
    return (
        certification.kind,
        certification.bound,
        certification.delta,
        certification.method,
        certification.detail,
        None if load is None or load.loads is None else tuple(load.loads),
    )


def plan_row(plan, rank):
    return (
        plan.name,
        plan.rounds_cost,
        rank,
        plan.describe(),
        [certificate_row(round_.certification) for round_ in plan.rounds],
    )


# ----------------------------------------------------------------------
# The seeded cases
# ----------------------------------------------------------------------
def _instances():
    for seed in range(9):
        yield "uniform", 3, DOMAIN, chain_join_instance(3, SIZE, DOMAIN, seed=100 + seed)
    for skew, base in ((1.2, 200), (1.6, 300)):
        for seed in range(9):
            yield f"zipf{skew}", 3, DOMAIN, skewed_chain_join_instance(
                3, SIZE, DOMAIN, skew=skew, seed=base + seed
            )
    for seed in range(6):
        yield "fk", 3, FK_DOMAIN, fk_chain_join_instance(
            3, SIZE, FK_DOMAIN, fk_skew=1.6 if seed % 2 else 0.0, seed=400 + seed
        )
    for seed in range(6):
        yield "2chain", 2, DOMAIN, skewed_chain_join_instance(
            2, SIZE, DOMAIN, skew=1.4, seed=500 + seed
        )


def _cases():
    cases = []
    for index, (kind, relations_count, domain, relations) in enumerate(_instances()):
        for mode in ("exact", "sample"):
            cases.append((f"{kind}-{index}-{mode}", relations_count, domain, relations, mode))
    return cases


CASES = _cases()
assert len(CASES) == 78

#: Every size bound planned in this module equals the oracle registry's.
pytestmark = pytest.mark.usefixtures("size_bound_checks")

MODELS = {
    "min-replication": lambda: CostBasedPlanner.min_replication(),
    "processing-priced": lambda: CostBasedPlanner(
        cost_model=ClusterCostModel(communication_rate=1.0, processing_rate=0.05)
    ),
}


def pytest_generate_tests(metafunc):
    if "case_index" in metafunc.fixturenames:
        full = metafunc.config.getoption("--full-sweep", default=False)
        indices = range(0, len(CASES), 1 if full else TIER1_STRIDE)
        metafunc.parametrize(
            "case_index", indices, ids=[CASES[index][0] for index in indices]
        )


def _setup(case_index):
    label, relations_count, domain, relations, mode = CASES[case_index]
    profile = (
        profile_relations(relations)
        if mode == "exact"
        else profile_relations(relations, mode="sample", sample_size=16, seed=case_index)
    )
    problem = MultiwayJoinProblem(JoinQuery.chain(relations_count), domain_size=domain)
    return problem, profile


#: What the parametrized sweep saw, for the non-vacuity check after it.
SEEN = {"pruned": 0, "unpruned": 0, "cascade-wins": 0, "one-round-wins": 0,
        "one-round-infeasible": 0, "infeasible": 0}


class TestEqualsExhaustiveSweep:
    def test_best_then_complete_equal_the_oracle(self, case_index):
        problem, profile = _setup(case_index)
        # One budget per case, cycling the five factors; both models see it
        # (the schema cache makes the second model's candidates free).
        budget = FACTORS[case_index % len(FACTORS)] * SIZE
        for make_planner in MODELS.values():
            planner = PipelinePlanner(make_planner())
            try:
                expected, expected_rejected = exhaustive_plan(
                    planner, problem, budget, profile
                )
            except PlanningError as error:
                with pytest.raises(PlanningError) as caught:
                    planner.plan(problem, q=budget, profile=profile)
                assert str(caught.value) == str(error)
                SEEN["infeasible"] += 1
                continue
            result = planner.plan(problem, q=budget, profile=profile)
            # The winner, before anything deferred is planned.
            assert plan_row(result.best, 0) == plan_row(expected[0], 0)
            assert result.best.rank == 0
            planned = len(result.plans)
            assert planned + len(result.pruned) + len(result.rejected) == len(
                expected
            ) + len(expected_rejected)
            for plan in result.plans:
                assert plan.rounds_cost >= plan.lower_bound
            SEEN["pruned" if result.pruned else "unpruned"] += 1
            SEEN["cascade-wins" if result.best.is_cascade else "one-round-wins"] += 1
            SEEN["one-round-infeasible"] += result.one_round() is None
            best = result.best
            assert result.complete() is result and result.pruned == []
            assert result.best is best
            assert [plan_row(plan, plan.rank) for plan in result.plans] == [
                plan_row(plan, rank) for rank, plan in enumerate(expected)
            ]
            assert result.rejected == expected_rejected
            assert len({plan.planning_seconds for plan in result}) == 1
            for plan in result.plans:
                assert plan.rounds_cost >= plan.lower_bound

    def test_the_sweep_was_not_vacuous(self):
        # Runs after the parametrized cases (definition order).
        if not sum(SEEN.values()):
            pytest.skip("the sweep was deselected")
        assert all(SEEN.values()), SEEN


# ----------------------------------------------------------------------
# Fixed scenarios
# ----------------------------------------------------------------------
def _zipf(seed=7, skew=1.6, size=40, domain=16):
    relations = skewed_chain_join_instance(3, size, domain, skew=skew, seed=seed)
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=domain)
    return problem, profile_relations(relations)


def _planner(**kwargs):
    return PipelinePlanner(CostBasedPlanner.min_replication(**kwargs))


class TestSoundnessIsEnforced:
    def test_one_round_wins_and_both_cascades_are_pruned(self):
        problem, profile = _zipf()
        result = _planner().plan(problem, q=160, profile=profile)
        assert not result.best.is_cascade and len(result) == 1
        assert [entry.rounds for entry in result.pruned] == [2, 2]
        assert result.pruned == sorted(result.pruned, key=lambda entry: entry.key)
        for entry in result.pruned:
            assert entry.lower_bound > result.best.rounds_cost
        # best / plans / len / iteration / one_round() never force anything.
        assert result.one_round() is result.best and list(result) == result.plans
        assert len(result.pruned) == 2
        assert len(result.cascades()) == 2 and result.pruned == []

    def test_mutant_bound_makes_complete_raise(self, monkeypatch):
        problem, profile = _zipf()
        bound = pipeline_planner._cascade_lower_bound
        monkeypatch.setattr(
            pipeline_planner,
            "_cascade_lower_bound",
            lambda *args: 1.5 * bound(*args),
        )
        result = _planner().plan(problem, q=160, profile=profile)
        assert result.pruned
        with pytest.raises(BoundDerivationError, match="unsound"):
            result.complete()
        assert len(result.pruned) == 2 and len(result.plans) == 1

    def test_displaced_winner_makes_complete_raise(self):
        problem, profile = _zipf()
        result = _planner().plan(problem, q=160, profile=profile)
        # Forge a search that stopped too early: the incumbent is dearer
        # than a structure it claims to have pruned.
        round_ = result.best.rounds[0]
        result.best.rounds[0] = dataclasses.replace(round_, cost=10.0 * round_.cost)
        with pytest.raises(BoundDerivationError, match="wrong winner"):
            result.complete()

    def test_undeclared_floor_prunes_nothing(self):
        problem, profile = _zipf()
        registry = SchemaRegistry()
        registry.register(MultiwayJoinProblem, join_candidates, replication_floor=1.0)
        assert registry.replication_floor(problem) == 1.0
        declared = _planner(registry=registry).plan(problem, q=160, profile=profile)
        assert declared.pruned
        registry.register(MultiwayJoinProblem, lambda problem, q, profile=None: [])
        assert registry.replication_floor(problem) == 0.0
        undeclared = _planner(registry=registry).plan(problem, q=160, profile=profile)
        assert undeclared.pruned == [] and len(undeclared) == 3
        assert {entry.label for entry in declared.pruned} < {
            plan.name for plan in undeclared
        }
        assert [plan.lower_bound for plan in undeclared] == [0.0] * 3

    def test_candidate_below_declared_floor_raises(self):
        registry = SchemaRegistry()

        @registry.register(MultiwayJoinProblem, replication_floor=2.0)
        def thin(problem, q, profile=None):
            yield PlanCandidate(
                name="thin", q=1.0, replication_rate=1.5, job_factory=lambda _: None
            )

        problem = MultiwayJoinProblem(JoinQuery.chain(2), domain_size=4)
        with pytest.raises(ConfigurationError, match="below the floor 2"):
            registry.candidates(problem, 10.0)

    def test_builtin_floors(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=4)
        assert default_registry.replication_floor(problem) == 1.0

    @pytest.mark.parametrize("case_number", [0, 21, 45, 57, 67, 70])
    def test_every_join_candidate_replicates_at_least_once(self, case_number):
        problem, profile = _setup(case_number)
        candidates = list(join_candidates(problem, float("inf"), profile=profile))
        assert len(candidates) >= 10
        assert min(candidate.replication_rate for candidate in candidates) >= 1.0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        skew=st.sampled_from([0.0, 1.2, 1.8]),
        factor=st.sampled_from(FACTORS),
        processing=st.sampled_from([0.0, 0.05, 1.0]),
        wall_clock=st.sampled_from([0.0, 0.001]),
        planning=st.sampled_from([0.0, 5.0]),
    )
    def test_planned_cascades_never_undercut_their_bound(
        self, seed, skew, factor, processing, wall_clock, planning
    ):
        relations = (
            skewed_chain_join_instance(3, 24, 10, skew=skew, seed=seed)
            if skew
            else chain_join_instance(3, 24, 10, seed=seed)
        )
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=10)
        model = ClusterCostModel(
            communication_rate=1.0,
            processing_rate=processing,
            wall_clock_rate=wall_clock,
            planning_rate=planning,
        )
        planner = PipelinePlanner(CostBasedPlanner(cost_model=model))
        try:
            result = planner.plan(
                problem, q=factor * 24, profile=profile_relations(relations)
            )
        except PlanningError:
            return
        best = result.best
        for plan in result.complete():
            assert plan.total_cost - plan.planning_cost >= plan.lower_bound
            assert plan.rounds_cost >= plan.lower_bound > 0.0
        assert result.best is best


# ----------------------------------------------------------------------
# The deferred half
# ----------------------------------------------------------------------
class FlakyPlanner(CostBasedPlanner):
    """Raises ``RuntimeError`` on one chosen ``plan`` call, once."""

    calls = 0
    fail_on = None

    def plan(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("planner crashed")
        return super().plan(*args, **kwargs)


class TestDeferredHalf:
    def test_crash_mid_completion_changes_nothing_and_retry_finishes(self):
        problem, profile = _zipf()
        flaky = FlakyPlanner(
            cost_model=ClusterCostModel(communication_rate=1.0, processing_rate=0.0)
        )
        result = PipelinePlanner(flaky).plan(problem, q=160, profile=profile)
        assert flaky.calls == 1 and len(result.pruned) == 2
        before = (list(result.plans), list(result.pruned), list(result.rejected))
        # Two pruned cascades x two rounds: crash inside the second one.
        flaky.fail_on = flaky.calls + 3
        with pytest.raises(RuntimeError, match="planner crashed"):
            result.complete()
        assert (result.plans, result.pruned, result.rejected) == before
        assert [plan.rank for plan in result.plans] == [0]
        expected, expected_rejected = exhaustive_plan(
            PipelinePlanner(flaky), problem, 160, profile
        )
        assert result.complete() is result
        assert [plan_row(plan, plan.rank) for plan in result.plans] == [
            plan_row(plan, rank) for rank, plan in enumerate(expected)
        ]
        assert result.rejected == expected_rejected and result.pruned == []
        calls = flaky.calls
        assert result.complete() is result and flaky.calls == calls  # idempotent

    def test_all_infeasible_budget_reports_every_structure(self):
        problem, profile = _zipf()
        planner = _planner()
        with pytest.raises(PlanningError) as expected:
            exhaustive_plan(planner, problem, 2, profile)
        with pytest.raises(PlanningError) as caught:
            planner.plan(problem, q=2, profile=profile)
        assert str(caught.value) == str(expected.value)
        for label in ("one-round[", "cascade(R1*(R2*R3))", "cascade((R1*R2)*R3)"):
            assert label in str(caught.value)

    def test_one_round_infeasible_first_cascade_becomes_incumbent(self):
        problem, profile = _setup(60)  # key -> FK chain, exact profile
        planner = _planner()
        budget = 0.5 * SIZE
        expected, expected_rejected = exhaustive_plan(planner, problem, budget, profile)
        result = planner.plan(problem, q=budget, profile=profile)
        assert result.one_round() is None and result.best.is_cascade
        assert result.rejected[0][0].startswith("one-round[")
        # The cheapest-bound cascade was planned unconditionally, became
        # the incumbent, and proved the other one a loser.
        assert len(result) == 1 and len(result.pruned) == 1
        assert result.best.lower_bound < result.pruned[0].lower_bound
        assert plan_row(result.best, 0) == plan_row(expected[0], 0)
        result.complete()
        assert [plan.name for plan in result] == [plan.name for plan in expected]
        assert result.rejected == expected_rejected

    def test_deferred_planning_error_is_a_rejection(self):
        problem, profile = _zipf()
        result = _planner().plan(problem, q=160, profile=profile)
        label = result.pruned[0].label

        def infeasible():
            raise PlanningError("round 1 (X): nothing fits")

        result._deferred[label] = infeasible
        result.complete()
        assert (label, "round 1 (X): nothing fits") in result.rejected
        assert result.pruned == [] and len(result) == 2


# ----------------------------------------------------------------------
# Observability of the decision
# ----------------------------------------------------------------------
class TestDecisionIsObservable:
    def test_table_lists_pruned_rows_after_ranked_rows(self):
        problem, profile = _zipf()
        result = _planner().plan(problem, q=160, profile=profile)
        table = result.table()
        assert [row["rank"] for row in table] == [0, None, None]
        ranked, pruned = table[0], table[1:]
        assert set(ranked) == {
            "rank", "structure", "rounds", "total_cost", "max_certified_load",
            "est_communication", "planning_s", "lower_bound",
        }
        assert ranked["lower_bound"] == 120.0 <= ranked["total_cost"]
        for row, entry in zip(pruned, result.pruned):
            assert set(row) == set(ranked)
            assert row["total_cost"] is None and row["planning_s"] is None
            assert (row["structure"], row["lower_bound"], row["rounds"]) == entry
        completed = result.complete().table()
        assert [row["rank"] for row in completed] == [0, 1, 2]
        assert all(row["total_cost"] >= row["lower_bound"] for row in completed)

    def test_span_and_counter_report_pruned(self):
        problem, profile = _zipf()
        tracer, metrics = Tracer(), MetricsRegistry()
        cluster = ClusterConfig(tracer=tracer, metrics=metrics)
        result = _planner().plan(problem, cluster, q=160, profile=profile)
        (span,) = [s for s in tracer.spans() if s.name == "pipeline-plan"]
        assert span.attributes["structures"] == 1
        assert span.attributes["pruned"] == 2
        assert metrics.counter("planner_pruned_total").value() == 2
        assert metrics.counter("planner_structures_total").value() == 1
        assert len(result.pruned) == 2

    def test_completed_plans_carry_the_original_planning_term(self):
        problem, profile = _zipf()
        model = ClusterCostModel(
            communication_rate=1.0, processing_rate=0.0, planning_rate=3.0
        )
        result = PipelinePlanner(CostBasedPlanner(cost_model=model)).plan(
            problem, q=160, profile=profile
        )
        seconds, cost = result.best.planning_seconds, result.best.planning_cost
        assert cost == 3.0 * seconds > 0.0
        for plan in result.complete():
            assert (plan.planning_seconds, plan.planning_cost) == (seconds, cost)
            assert plan.total_cost == plan.rounds_cost + cost


def test_size_bound_checks_saw_the_planning(size_bound_checks):
    before = len(size_bound_checks)
    problem, profile = _zipf()
    _planner().plan(problem, q=160, profile=profile).complete()
    assert len(size_bound_checks) > before
