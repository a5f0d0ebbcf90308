"""Round-pricing census: each planned round is the cheapest at the price the pipeline sums.

A pipeline's cost is the sum of its rounds' prices, ``a·r·|I| + b·load
(+ c·t)`` with ``|I|`` the records entering the round.  Over the seeded
cases of ``test_bound_first_planning`` × its five budgets × both of its
cost models, every round decision of ``PipelinePlanner.plan(...)
.complete()`` is wrapped — the single-round planner call behind it and the
ranked candidates that call returned — and three things are pinned:

1. **The round is the price's minimum** — no ranked candidate of the same
   planner call is cheaper at the pipeline's round price than the one
   chosen.  The price is the deleted ``_round_cost`` of the candidate's
   per-record breakdown (``pipeline_price``), and the chosen round's
   ``cost`` equals it bit for bit.
2. **Min-replication decisions do not move** — with ``b = 0`` scaling
   ``a·r`` by one call's ``|I|`` keeps the order, so every call picks the
   winner (name, q, certificate, rank 0) the per-record price picked, and
   the structures rank as they did.  (Below the winner, a float tie the
   scaling creates may swap two candidates; that is not a decision.)
3. **No structure costs more** — each structure costs at most what the
   per-record winners of its rounds cost at the pipeline price.

Before the planner priced rounds over their inputs, point 1 failed on
processing-priced rounds (282 of the 1 553 decisions).  Tier-1 runs every
seventh case, which holds failing decisions (``test_the_census_has_teeth``);
``--full-sweep`` runs all 78.
"""

from __future__ import annotations

import pytest

from repro.exceptions import PlanningError
from repro.pipeline import PipelinePlanner
from test_bound_first_planning import (
    CASES,
    FACTORS,
    MODELS,
    SIZE,
    TIER1_STRIDE,
    _setup,
    certificate_row,
    pipeline_price,
)

#: Every size bound the census plans equals the oracle registry's.
pytestmark = pytest.mark.usefixtures("size_bound_checks")


def pytest_generate_tests(metafunc):
    if "case_index" in metafunc.fixturenames:
        full = metafunc.config.getoption("--full-sweep", default=False)
        indices = range(0, len(CASES), 1 if full else TIER1_STRIDE)
        metafunc.parametrize(
            "case_index", indices, ids=[CASES[index][0] for index in indices]
        )


def recorded_calls(planner):
    """Record each ``planner.plan`` result, keyed by its best plan's id."""
    calls = {}
    plan = planner.plan

    def recording(*args, **kwargs):
        result = plan(*args, **kwargs)
        calls[id(result.best)] = result  # kept alive, so ids stay unique
        return result

    planner.plan = recording
    return calls


def per_record_winner(plans, model):
    """The plan a call ranked first when it priced per input record."""
    return min(
        plans,
        key=lambda plan: (pipeline_price(plan, model, 1.0), plan.q, plan.name),
    )


def decision_row(plan):
    return (plan.name, plan.q, certificate_row(plan.certification), plan.rank)


#: What the parametrized census saw, for the checks after it.
SEEN = {"decisions": 0, "min-replication": 0, "moved-by-the-price": 0}


def test_every_round_is_the_cheapest_at_the_pipeline_price(case_index):
    problem, profile = _setup(case_index)
    for factor in FACTORS:
        budget = factor * SIZE
        for model_name, make_planner in MODELS.items():
            planner = make_planner()
            model = planner.cost_model
            calls = recorded_calls(planner)
            try:
                result = PipelinePlanner(planner).plan(
                    problem, q=budget, profile=profile
                ).complete()
            except PlanningError:
                continue
            old_keys = {}
            for structure in result:
                per_record_cost = 0.0
                for round_ in structure.rounds:
                    where = (budget, model_name, structure.name, round_.index)
                    ranked = calls[id(round_.plan)].plans
                    inputs = round_.estimated_inputs
                    chosen = pipeline_price(round_.plan, model, inputs)
                    assert round_.cost == chosen, where
                    cheaper = [
                        (plan.name, pipeline_price(plan, model, inputs))
                        for plan in ranked
                        if pipeline_price(plan, model, inputs) < chosen
                    ]
                    assert cheaper == [], (where, round_.name, chosen)
                    old_winner = per_record_winner(ranked, model)
                    if model_name == "min-replication":
                        assert decision_row(round_.plan) == decision_row(
                            old_winner
                        ), where
                        SEEN["min-replication"] += 1
                    SEEN["moved-by-the-price"] += old_winner is not round_.plan
                    SEEN["decisions"] += 1
                    per_record_cost += pipeline_price(old_winner, model, inputs)
                assert structure.total_cost <= per_record_cost, structure.name
                old_keys[structure.name] = (
                    per_record_cost, structure.num_rounds, structure.name
                )
            if model_name == "min-replication":
                old_ranking = sorted(old_keys, key=old_keys.get)
                assert [structure.name for structure in result] == old_ranking


def test_the_census_has_teeth():
    # Runs after the parametrized cases (definition order): the cases it
    # ran hold decisions the per-record ranking got wrong, so the census
    # fails wherever the planner ranks in a unit the pipeline does not sum.
    if not SEEN["decisions"]:
        pytest.skip("the census was deselected")
    assert SEEN["min-replication"] > 0, SEEN
    assert SEEN["moved-by-the-price"] > 0, SEEN
