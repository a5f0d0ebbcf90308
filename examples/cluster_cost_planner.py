#!/usr/bin/env python3
"""Choosing the reducer size for a priced cluster (Section 1.2 / Example 1.1).

Scenario: the similarity-join and triangle workloads of the other examples
are to be run on a rented cluster (the paper's EC2 discussion).  Given

* a — the cost per unit of replication (communication),
* b — the cost per unit of reducer size (processor rental), and
* optionally c — a wall-clock penalty proportional to the per-reducer
  running time (q² for all-pairs reducers, Example 1.1),

the cost-based planner enumerates every registered schema family, prices
each candidate with a·r + b·q (+ c·q²), and reports which concrete
algorithm to run.  The last section finds the continuous optimum along
the problem's lower-bound curve, ``Problem.replication_lower_bound``.

Run with:  python examples/cluster_cost_planner.py
"""

from __future__ import annotations

import math

from repro.core import ClusterCostModel
from repro.planner import CostBasedPlanner
from repro.problems import HammingDistanceProblem, TriangleProblem


def plan(title: str, problem, q_budget: float, scenarios) -> None:
    print(f"\n== {title} ==")
    header = (
        f"{'scenario':<28} {'a':>10} {'b':>10} {'c':>10} "
        f"{'chosen algorithm':<34} {'q':>12} {'r':>8} {'cost':>12}"
    )
    print(header)
    print("-" * len(header))
    for name, a, b_rate, c_rate in scenarios:
        model = ClusterCostModel(
            communication_rate=a, processing_rate=b_rate, wall_clock_rate=c_rate
        )
        planner = CostBasedPlanner(cost_model=model)
        best = planner.plan(problem, q=q_budget).best
        print(
            f"{name:<28} {a:>10g} {b_rate:>10g} {c_rate:>10g} {best.name:<34} "
            f"{best.q:>12.0f} {best.replication_rate:>8.2f} {best.total_cost:>12.1f}"
        )


def main() -> None:
    # Similarity join on 24-bit signatures.
    b = 24
    scenarios = [
        ("cheap network, pricey CPUs", 0.001, 10.0, 0.0),
        ("balanced pricing", 1.0, 1.0, 0.0),
        ("pricey network", 1000.0, 1.0, 0.0),
        ("wall-clock sensitive", 1.0, 0.0, 0.0005),
    ]
    hamming = HammingDistanceProblem(b)
    plan(
        f"Hamming-distance-1 similarity join (b={b})",
        hamming,
        q_budget=2.0 ** b,
        scenarios=scenarios,
    )

    # Triangle analytics over a 4096-node graph domain.
    n = 4096
    plan(
        f"Triangle finding (n={n})",
        TriangleProblem(n),
        q_budget=float(n * (n - 1) // 2),
        scenarios=scenarios,
    )

    # The continuous optimum of Section 1.2 for the similarity join, showing
    # how the best q moves as the network gets pricier, along the same
    # lower-bound curve the planner attaches to its plans.
    print("\ncontinuous optimum along the lower-bound curve (similarity join):")
    print(f"  {'a (network price)':>18} {'optimal q':>14} {'log2 q':>8} {'r':>7}")
    for a in (0.1, 1.0, 10.0, 100.0, 1000.0):
        model = ClusterCostModel(communication_rate=a, processing_rate=1.0)
        best = model.optimal_q_continuous(
            hamming.replication_lower_bound, q_min=2.0, q_max=2.0 ** b
        )
        print(
            f"  {a:>18g} {best.q:>14.0f} {math.log2(best.q):>8.2f} "
            f"{best.replication_rate:>7.2f}"
        )
    print(
        "\nSection 1.2 takeaway: the dearer the network relative to processors, "
        "the larger the reducers you should use (less replication, less "
        "parallelism), and vice versa."
    )


if __name__ == "__main__":
    main()
