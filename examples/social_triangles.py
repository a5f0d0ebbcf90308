#!/usr/bin/env python3
"""Triangle counting in a social-network-style graph (Section 4).

Scenario: a community-analysis job needs every triangle of a sparse
friendship graph, but each reduce worker can only hold a limited number of
edges in memory.  The script:

1. generates a sparse random graph (and a skewed variant with hub users),
2. converts the memory budget of *actual* edges into the model's target
   reducer size using the Section 4.2 scaling q_t = q·n(n-1)/(2m),
3. asks the cost-based planner for the best schema within that budget (it
   picks the bucket count of the partition algorithm),
4. executes the winning plan, verifies the triangles against a serial
   oracle, and compares the measured replication rate with the Ω(√(m/q))
   bound.

Run with:  python examples/social_triangles.py
"""

from __future__ import annotations

from repro.datagen import (
    count_triangles_oracle,
    enumerate_triangles_oracle,
    gnm_random_graph,
    node_degrees,
    skewed_graph,
)
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.planner import CostBasedPlanner
from repro.problems import TriangleProblem
from repro.problems.sparse import edge_target_reducer_size, overload_probability

PLANNER = CostBasedPlanner.min_replication()


def analyse(engine, name, edges, n, q_actual):
    m = len(edges)
    q_target = edge_target_reducer_size(q_actual, n, m)
    problem = TriangleProblem(n)
    plan = PLANNER.plan(problem, engine.config, q=q_target).best
    result = plan.execute(edges, engine=engine)
    expected = enumerate_triangles_oracle(edges)
    bound = problem.lower_bound_sparse(q_actual, m)
    print(f"\n--- {name}: n={n}, m={m}, memory budget q={q_actual} edges ---")
    print(f"  target reducer size (potential edges) q_t = {q_target:.0f}")
    print(f"  planner chose {plan.name}  ->  replication rate = {result.replication_rate:.1f}")
    print(f"  sparse lower bound ~ sqrt(m/q) = {bound:.1f}")
    print(f"  largest reducer received {result.metrics.shuffle.max_reducer_size} actual edges")
    print(f"  chance a reducer exceeds 2x its expected load: "
          f"{overload_probability(q_actual, 2.0):.2e}")
    print(f"  triangles found = {len(result.outputs)} "
          f"(oracle: {count_triangles_oracle(edges)}, match: {set(result.outputs) == expected})")
    print(f"  key-value pairs shuffled = {result.communication_cost}")
    return result


def main() -> None:
    engine = MapReduceEngine(ClusterConfig(num_workers=32))
    n = 60
    q_budget = 120  # actual edges a reduce worker is willing to buffer

    # A uniform sparse graph — the Section 4.2 setting.
    uniform_edges = gnm_random_graph(n, 360, seed=11)
    analyse(engine, "uniform G(n, m)", uniform_edges, n, q_budget)

    # A skewed graph with hub users: the same algorithm still works, but the
    # reducer-size distribution becomes lopsided — the skew statistic shows
    # why the related work on skew handling matters (Section 1.4).
    hubby_edges = skewed_graph(n, 360, hub_fraction=0.05, seed=12)
    degrees = node_degrees(hubby_edges)
    top = sorted(degrees.values(), reverse=True)[:3]
    print(f"\nskewed graph top degrees: {top}")
    result = analyse(engine, "skewed graph with hubs", hubby_edges, n, q_budget)
    print(f"  reducer-size skew (max / mean) = {result.metrics.shuffle.skew():.2f}")

    # Sweep the memory budget to expose the tradeoff curve numerically.
    print("\nmemory budget sweep (uniform graph):")
    print(f"  {'q (edges)':>10} {'plan':>28} {'replication':>12} {'sqrt(m/q)':>10}")
    problem = TriangleProblem(n)
    for q_actual in (40, 80, 160, 320):
        m = len(uniform_edges)
        q_target = edge_target_reducer_size(q_actual, n, m)
        plan = PLANNER.plan(problem, engine.config, q=q_target).best
        run = plan.execute(uniform_edges, engine=engine)
        print(
            f"  {q_actual:>10} {plan.name:>28} {run.replication_rate:>12.1f} "
            f"{problem.lower_bound_sparse(q_actual, m):>10.1f}"
        )


if __name__ == "__main__":
    main()
