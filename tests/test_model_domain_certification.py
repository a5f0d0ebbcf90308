"""Shares plans are certified on the model's full domain, and shown bounds hold.

Without a profile the planner certifies every Shares candidate against the
exact profile of the model's full domain (``n^arity`` tuples per relation,
``n^(arity-1)`` per value).  Three contracts are pinned here:

1. **Soundness** — on full-domain chain, star, cycle and ternary joins,
   every ranked candidate's certificate is at least its executed maximum
   reducer load, which fits the budget.  The loads are counted by routing
   every input of the full domain through ``reducers_for``.
2. **No candidate below the curve** — the paper's recipe r ≥ q·|O| /
   (g(q)·|I|) is a theorem on the full domain, so no profile-less
   candidate may report a replication rate under its own lower bound.
   ``--full-sweep`` adds domain size 8.
3. **Profiled plans show no model-domain bound** — a sparse instance has
   far fewer outputs than ``n^m``, so the model curve is not a bound there
   and a profiled plan carries none.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen.relations import skewed_chain_join_instance
from repro.exceptions import PlanningError
from repro.planner import CertificationKind, CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.problems.joins import RelationSchema
from repro.schemas import SharesSchema
from repro.stats import profile_relations

TERNARY = JoinQuery(
    [RelationSchema("R", ("A", "B", "C")), RelationSchema("S", ("C", "D", "E"))],
    name="ternary-join",
)
SOUNDNESS_QUERIES = {
    "chain-2": JoinQuery.chain(2),
    "chain-3": JoinQuery.chain(3),
    "chain-4": JoinQuery.chain(4),
    "star-2": JoinQuery.star(2),
    "star-3": JoinQuery.star(3),
    "cycle-3": JoinQuery.cycle(3),
    "ternary": TERNARY,
}
CURVE_QUERIES = ("chain-3", "cycle-3", "star-2", "ternary")
CURVE_BUDGETS = (8, 20, 50, 120)


def full_domain_max_load(schema, problem: MultiwayJoinProblem) -> int:
    """Route every input of the full domain and return the largest load."""
    loads: Dict[object, int] = {}
    for relation_name, values in problem.inputs():
        for point in schema.reducers_for(relation_name, values):
            loads[point] = loads.get(point, 0) + 1
    return max(loads.values())


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SOUNDNESS_QUERIES)),
    n=st.integers(2, 6),
    fraction=st.floats(0.0, 1.0),
)
# R(A,B,C) ⋈ S(C,D,E) at n = 6, q = 50: once planned C=256, certified
# 1.69 and executed 72.
@example(name="ternary", n=6, fraction=50 / 432)
@example(name="chain-3", n=6, fraction=30 / 108)
def test_every_certificate_bounds_the_full_domain_load(name, n, fraction):
    problem = MultiwayJoinProblem(SOUNDNESS_QUERIES[name], n)
    q = max(1, round(fraction * problem.num_inputs))
    try:
        result = CostBasedPlanner.min_replication().plan(problem, q=q)
    except PlanningError:
        return
    for plan in result.plans:
        observed = full_domain_max_load(plan.family, problem)
        assert observed <= plan.certification.bound <= q, (name, n, q, plan.name)
        assert plan.certification.kind is CertificationKind.EXACT


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("name", CURVE_QUERIES)
def test_no_profile_less_candidate_sits_below_the_curve(request, name, n):
    if n == 8 and not request.config.getoption("--full-sweep"):
        pytest.skip("domain size 8 runs under --full-sweep")
    planner = CostBasedPlanner.min_replication()
    problem = MultiwayJoinProblem(SOUNDNESS_QUERIES[name], n)
    for q in CURVE_BUDGETS:
        try:
            result = planner.plan(problem, q=q)
        except PlanningError:
            continue  # the ternary join at n = 8 fits no budget here
        for plan in result.plans:
            assert plan.lower_bound is not None
            assert plan.replication_rate >= plan.lower_bound - 1e-9, (q, plan.name)


class TestProfiledPlansCarryNoModelBound:
    """3-chain(40) with skew 1.2 on a 64-value domain, q = 30."""

    def test_profiled_plan_has_no_lower_bound(self):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), 64)
        relations = skewed_chain_join_instance(3, 40, 64, skew=1.2, seed=5)
        profile = profile_relations(relations)
        result = CostBasedPlanner.min_replication().plan(
            problem, q=30, profile=profile
        )
        assert all(
            plan.lower_bound is None and plan.optimality_gap is None
            for plan in result.plans
        )
        assert result.best.describe()["lower_bound"] is None
        # The model curve at q = 30 claims more replication than the winner
        # executes with on this sparse instance: it is not a bound here.
        executed = result.best.execute(SharesSchema.input_records(relations))
        assert executed.replication_rate < problem.lower_bound(30)
