"""Multi-round pipeline planner: cascades vs one-round Shares (PR-5 headline).

Three seeded 3-chain scenarios exercise the full
:mod:`repro.pipeline` story — enumeration, intermediate-size bounds and
adaptive mid-flight re-planning:

* **zipf-sparse** — Zipf(1.2) join attribute over a sparse domain under a
  tight reducer budget.  The per-value histogram bounds tell the planner
  the ``R2 ⋈ R3`` intermediate is tiny, so the selected **binary-join
  cascade's summed certified cost beats the best one-round Shares
  candidate** (which must replicate every relation heavily to certify
  under the budget); the executed cascade's outputs are bit-identical to
  the one-round plan's.
* **uniform-dense** — a dense uniform chain, where the intermediate is
  larger than the inputs: shipping it again costs more than one round's
  replication, and the planner correctly keeps the **one-round** plan.
* **sampled-replan** — the Zipf chain planned from *sampled* statistics
  (reservoir + Misra–Gries sketches).  The projected certificate of the
  cascade's second round is beaten or violated by the observed
  intermediate, forcing a logged **mid-flight re-plan** whose final
  certificate bounds the observed max reducer load.

Rows are written to ``BENCH_pipeline.json`` (override with the
``BENCH_PIPELINE_JSON`` environment variable) so CI can archive the
cascade-vs-one-round costs and re-plan counts across commits.
"""

from __future__ import annotations

import os

from repro.datagen.relations import (
    chain_join_instance,
    multiway_join_oracle,
    skewed_chain_join_instance,
)
from repro.mapreduce import MapReduceEngine
from repro.obs.harness import write_bench_artifact
from repro.pipeline import PipelinePlanner
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import SharesSchema
from repro.stats import profile_relations

SIZE_EACH = 220
#: Sparse scenario: a wide attribute domain keeps ``R2 ⋈ R3`` small.
SPARSE_DOMAIN = 400
#: Tight instance-scale reducer budget for the sparse Zipf scenario.
TIGHT_BUDGET = 120
#: Dense scenario: a narrow domain makes every intermediate explode.
DENSE_DOMAIN = 30
DENSE_BUDGET = 250
#: Generous budget for the sampled-statistics re-planning scenario.
SAMPLED_BUDGET = 2000

ARTIFACT = os.environ.get("BENCH_PIPELINE_JSON", "BENCH_pipeline.json")


def _pipeline_planner() -> PipelinePlanner:
    return PipelinePlanner(CostBasedPlanner.min_replication())


def run_pipeline_comparison():
    engine = MapReduceEngine()
    rows = []
    outcomes = {}

    # -- zipf-sparse: the cascade beats one-round under a tight budget ----
    relations = skewed_chain_join_instance(
        3, SIZE_EACH, SPARSE_DOMAIN, skew=1.2, seed=7
    )
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=SPARSE_DOMAIN)
    profile = profile_relations(relations)
    result = _pipeline_planner().plan(problem, q=TIGHT_BUDGET, profile=profile)
    records = SharesSchema.input_records(relations)
    _, oracle_rows = multiway_join_oracle(relations)
    best = result.best
    one_round = result.one_round()
    cascade_run = best.execute(records, engine=engine)
    one_round_run = one_round.execute(records, engine=engine)
    for plan in result.complete():  # the table lists pruned structures too
        rows.append(
            [
                "zipf-sparse",
                plan.name,
                plan.num_rounds,
                plan.total_cost,
                plan.max_certified_load,
                plan.rank == 0,
            ]
        )
    outcomes["zipf-sparse"] = {
        "result": result,
        "best": best,
        "one_round": one_round,
        "cascade_run": cascade_run,
        "one_round_run": one_round_run,
        "oracle": sorted(oracle_rows),
    }

    # -- uniform-dense: one round stays the right call -------------------
    relations = chain_join_instance(3, SIZE_EACH, DENSE_DOMAIN, seed=17)
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=DENSE_DOMAIN)
    profile = profile_relations(relations)
    result = _pipeline_planner().plan(problem, q=DENSE_BUDGET, profile=profile)
    records = SharesSchema.input_records(relations)
    _, oracle_rows = multiway_join_oracle(relations)
    dense_run = result.best.execute(records, engine=engine)
    for plan in result.complete():  # the table lists pruned structures too
        rows.append(
            [
                "uniform-dense",
                plan.name,
                plan.num_rounds,
                plan.total_cost,
                plan.max_certified_load,
                plan.rank == 0,
            ]
        )
    outcomes["uniform-dense"] = {
        "result": result,
        "run": dense_run,
        "oracle": sorted(oracle_rows),
    }

    # -- sampled-replan: sketch-planned cascade adapts mid-flight --------
    relations = skewed_chain_join_instance(
        3, SIZE_EACH, SPARSE_DOMAIN, skew=1.2, seed=7
    )
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=SPARSE_DOMAIN)
    sampled = profile_relations(relations, mode="sample", sample_size=64)
    result = _pipeline_planner().plan(problem, q=SAMPLED_BUDGET, profile=sampled)
    records = SharesSchema.input_records(relations)
    _, oracle_rows = multiway_join_oracle(relations)
    cascade = result.cascades()[0]
    replan_run = cascade.execute(records, engine=engine)
    rows.append(
        [
            "sampled-replan",
            cascade.name,
            cascade.num_rounds,
            cascade.total_cost,
            cascade.max_certified_load,
            True,
        ]
    )
    outcomes["sampled-replan"] = {
        "cascade": cascade,
        "run": replan_run,
        "oracle": sorted(oracle_rows),
    }
    return rows, outcomes


def test_pipeline_cascades(benchmark, table_printer, quick):
    rows, outcomes = benchmark(run_pipeline_comparison)
    table_printer(
        f"Multi-round pipelines: 3-chain joins, |R|={SIZE_EACH} "
        f"(zipf n={SPARSE_DOMAIN} q={TIGHT_BUDGET}; "
        f"uniform n={DENSE_DOMAIN} q={DENSE_BUDGET})",
        ["scenario", "structure", "rounds", "total cost", "max certified", "picked"],
        rows,
    )

    # --- zipf-sparse: cascade wins, bit-identical outputs ----------------
    sparse = outcomes["zipf-sparse"]
    best, one_round = sparse["best"], sparse["one_round"]
    assert best.is_cascade and best.num_rounds == 2
    assert one_round is not None, "one-round Shares must stay feasible"
    assert best.total_cost < one_round.total_cost
    cascade_run, one_round_run = sparse["cascade_run"], sparse["one_round_run"]
    assert sorted(cascade_run.outputs) == sparse["oracle"]
    assert sorted(one_round_run.outputs) == sparse["oracle"]
    # Every executed round's final certificate bounds what was observed.
    assert cascade_run.certificates_hold()
    for round_ in best.rounds:
        assert round_.certified_load <= TIGHT_BUDGET

    # --- uniform-dense: one round wins and the cascades were priced ------
    dense = outcomes["uniform-dense"]
    assert not dense["result"].best.is_cascade
    assert dense["result"].cascades(), "cascades must be feasible, just pricier"
    assert sorted(dense["run"].outputs) == dense["oracle"]
    assert dense["run"].replan_count == 0

    # --- sampled-replan: a logged, certified mid-flight re-plan ----------
    replan = outcomes["sampled-replan"]
    run = replan["run"]
    assert sorted(run.outputs) == replan["oracle"]
    assert run.replan_count >= 1, "the sketch-planned cascade must re-plan"
    event = run.replan_events[0]
    assert event.reason in ("certificate-improved", "certificate-violated")
    assert run.certificates_hold()
    assert run.max_certified_load >= run.max_observed_load

    # --- artifact --------------------------------------------------------
    artifact_rows = [
        {
            "scenario": scenario,
            "structure": structure,
            "rounds": rounds,
            "total_cost": cost,
            "max_certified_load": certified,
            "picked": picked,
        }
        for scenario, structure, rounds, cost, certified, picked in rows
    ]
    zipf_sparse = {
        "cascade_cost": outcomes["zipf-sparse"]["best"].total_cost,
        "one_round_cost": outcomes["zipf-sparse"]["one_round"].total_cost,
    }
    write_bench_artifact(
        "pipeline",
        {
            "rows": artifact_rows,
            "replans": [
                event.describe()
                for event in outcomes["sampled-replan"]["run"].replan_events
            ],
            "zipf_sparse": zipf_sparse,
        },
        quick=quick,
        artifact=ARTIFACT,
        metrics={
            "zipf_cascade_over_one_round": (
                zipf_sparse["cascade_cost"] / zipf_sparse["one_round_cost"]
            ),
            "replan_count": float(run.replan_count),
            "max_certified_load": float(run.max_certified_load),
        },
        fingerprint_extra={"scenarios": sorted(outcomes)},
    )
