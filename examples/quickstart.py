#!/usr/bin/env python3
"""Quickstart: the model, the planner, validation, bounds, and execution.

This walks through the library's core objects on the paper's flagship
example — finding pairs of bit strings at Hamming distance 1:

1. define the problem (inputs, outputs, dependency mapping),
2. ask the cost-based planner for the best mapping schema within a
   reducer-size budget (it picks the Splitting algorithm),
3. validate the chosen schema's two constraints and read off its
   replication rate,
4. check it against the generic lower-bound recipe the planner attached,
5. execute the winning plan as a real map-reduce job on the streaming
   engine.

Run with:  python examples/quickstart.py [--profiled-join]

``--profiled-join`` appends the statistics-and-certification walkthrough:
profile a Zipf-skewed chain join, watch the observed reducer load blow
through the paper's hash-balanced expectation while the model-domain
certificate holds, and let the profile-aware planner select a
skew-resistant plan whose exact certificate holds at a far smaller budget
— the CI skew-smoke job runs exactly that.
"""

from __future__ import annotations

import argparse

from repro.datagen import bernoulli_bitstrings
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.planner import CostBasedPlanner
from repro.problems import HammingDistanceProblem


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profiled-join",
        action="store_true",
        help="also demonstrate profile -> certify -> plan on a skewed join",
    )
    return parser.parse_args()


def profiled_join_demo() -> None:
    """Profile a skewed join, certify candidates, plan skew-resistantly."""
    from repro.datagen.relations import (
        multiway_join_oracle,
        skewed_chain_join_instance,
    )
    from repro.problems import JoinQuery, MultiwayJoinProblem
    from repro.schemas import SharesSchema
    from repro.stats import profile_relations

    print("\n--- statistics & certification: a Zipf(1.2) chain join ---")
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=60)
    relations = skewed_chain_join_instance(3, 220, 60, skew=1.2, seed=7)
    profile = profile_relations(relations)
    records = SharesSchema.input_records(relations)
    planner = CostBasedPlanner.min_replication()
    engine = MapReduceEngine()

    # Without a profile, candidates are certified on the model's full
    # domain: sound on every instance, but sized for n^2 rows per relation.
    vanilla = planner.plan(problem, q=2000).best
    expectation = vanilla.family.expected_reducer_load(profile.row_counts())
    result = vanilla.execute(records, engine=engine)
    observed = result.metrics.shuffle.max_reducer_size
    print(f"model-domain plan: {vanilla.name}")
    print(f"  expected reducer load (the paper's Section 5.5) = {expectation:.1f}")
    print(f"  observed max reducer load                       = {observed}")
    print(f"  full-domain certificate                         = "
          f"{vanilla.certification.bound:.1f} (holds: "
          f"{observed <= vanilla.certification.bound})")

    # The profile-aware planner at an instance-scale budget.
    budget = 120
    profiled = planner.plan(problem, q=budget, profile=profile)
    best = profiled.best
    print(f"\nprofile-aware planner (budget q={budget}): "
          f"{len(profiled)} certified plans")
    print(f"chosen: {best.name}")
    print(f"  certificate = {best.certification_label}, "
          f"bound = {best.certification.bound:.1f}")
    result = best.execute(records, engine=engine)
    observed = result.metrics.shuffle.max_reducer_size
    _, expected_rows = multiway_join_oracle(relations)
    print(f"  observed max reducer load = {observed} (certificate holds: "
          f"{observed <= best.certification.bound})")
    print(f"  join correct = {sorted(result.outputs) == sorted(expected_rows)}")


def main() -> None:
    args = parse_args()
    # 1. The problem: all 2^b bit strings are potential inputs; every pair at
    #    Hamming distance 1 is a potential output.
    b = 8
    problem = HammingDistanceProblem(b)
    print(f"problem: {problem.name}")
    print(f"  |I| = {problem.num_inputs} inputs, |O| = {problem.num_outputs} outputs")

    # 2. Plan: reducers may hold at most q = 2^(b/2) = 16 strings.  The
    #    planner enumerates every registered schema family that fits the
    #    budget and ranks them; with the replication-minimizing objective it
    #    picks the Splitting algorithm with c = 2 segments.
    q_budget = 2 ** (b // 2)
    planner = CostBasedPlanner.min_replication()
    plans = planner.plan(problem, ClusterConfig(), q=q_budget)
    best = plans.best
    print(f"\nplanner (budget q={q_budget}): {len(plans)} candidate plans")
    for plan in plans:
        print(
            f"  #{plan.rank}  {plan.name:<28} q={plan.q:>6.0f}  r={plan.replication_rate:.3f}"
        )
    print(f"chosen: {best.name}")

    # 3. Materialize and validate the chosen schema's two constraints
    #    (reducer size, output coverage) and read off its replication rate.
    schema = best.family.build(problem)
    report = schema.validate()
    print(f"\nschema: {schema.name}")
    print(f"  reducers          = {schema.num_reducers}")
    print(f"  max reducer size  = {schema.max_reducer_size()}")
    print(f"  replication rate  = {schema.replication_rate():.3f}")
    print(f"  valid             = {report.valid}")

    # 4. The generic lower-bound recipe of Section 2.4, which the planner
    #    evaluated at the plan's q: Splitting meets it with no gap.
    print(f"\nlower bound at q={best.q:.0f}: r >= {best.lower_bound:.3f}")
    assert best.optimality_gap == 1.0, best.optimality_gap
    print("  -> the planner's choice matches the bound exactly")

    # 5. Execute the winning plan over a sampled instance.  The model's
    #    counts assume all inputs are present; an instance holds a random
    #    subset (each string present with probability 0.3).
    present = bernoulli_bitstrings(b, probability=0.3, seed=7)
    result = best.execute(present, engine=MapReduceEngine())
    print(f"\nexecuted on {len(present)} present strings:")
    print(f"  distance-1 pairs found = {len(result.outputs)}")
    print(f"  key-value pairs shuffled = {result.communication_cost}")
    print(f"  measured replication rate = {result.replication_rate:.3f}")
    print(f"  largest reducer input = {result.metrics.shuffle.max_reducer_size}")

    # 6. Optionally: dataset statistics, tail-bound certification and the
    #    skew-resistant Shares join (see README "Statistics & certification").
    if args.profiled_join:
        profiled_join_demo()


if __name__ == "__main__":
    main()
