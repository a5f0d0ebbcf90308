"""``Problem.replication_lower_bound`` against the recipe object it replaced.

``tests/recipe_oracle.py`` keeps ``LowerBoundRecipe`` verbatim.  Every
evaluation here must be ``==`` (``inf`` included) across every problem class
that defines ``g(q)``, over a q grid reaching below 2, exactly ``|I|`` and
past ``|I|``.  The planner's unprofiled plans and sweep frontiers must carry
the same values.  The recipe's precondition, ``g(q)/q`` non-decreasing, is
checked for every class with an analytic ``g`` over the q values the reports
and the paper-series golden use.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator

import pytest

from recipe_oracle import LowerBoundRecipe, g_over_q_non_decreasing
from repro.core import ExplicitProblem, Problem
from repro.exceptions import BoundDerivationError
from repro.planner import CostBasedPlanner
from repro.problems import (
    GroupByAggregationProblem,
    HammingDistanceProblem,
    JoinQuery,
    MatrixMultiplicationProblem,
    MultiwayJoinProblem,
    RelationSchema,
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
    WordCountProblem,
)
from repro.schemas import splitting_points


def oracle_bound(problem: Problem, q: float) -> float:
    return LowerBoundRecipe.from_problem(problem).bound_at(q).replication_rate_bound


def _word_count() -> WordCountProblem:
    return WordCountProblem([["a", "b", "a"], ["b", "c"], ["a"]])


#: One or more instances of every problem class that defines g(q).
PROBLEMS = {
    "hamming-8": lambda: HammingDistanceProblem(8),
    "hamming-20": lambda: HammingDistanceProblem(20),
    "hamming-6-distance-2": lambda: HammingDistanceProblem(6, distance=2),
    "triangles-12": lambda: TriangleProblem(12),
    "triangles-1000": lambda: TriangleProblem(1000),
    "sample-clique-4": lambda: SampleGraphProblem(30, SampleGraph.clique(4)),
    "sample-cycle-4": lambda: SampleGraphProblem(20, SampleGraph.cycle(4)),
    "two-paths-10": lambda: TwoPathProblem(10),
    "two-paths-1000": lambda: TwoPathProblem(1000),
    "chain-3-join": lambda: MultiwayJoinProblem(JoinQuery.chain(3), 10),
    "ternary-join": lambda: MultiwayJoinProblem(
        JoinQuery(
            [RelationSchema("R", ("A", "B", "C")), RelationSchema("S", ("C", "D", "E"))]
        ),
        6,
    ),
    "chain-3-rho-2": lambda: MultiwayJoinProblem(JoinQuery.chain(3), 100, rho=2.0),
    "matmul-4": lambda: MatrixMultiplicationProblem(4),
    "matmul-100": lambda: MatrixMultiplicationProblem(100),
    "group-by": lambda: GroupByAggregationProblem(8, 50),
    "word-count": _word_count,
    # Outputs needing 1, 2 and 3 inputs: g(q) is 0 below q = 1 (bound inf)
    # and steps up at q = 2 and q = 3.
    "explicit-steps": lambda: ExplicitProblem(
        ["a", "b", "c", "d"],
        {"x": ["a"], "y": ["a", "b"], "z": ["b", "c", "d"], "w": ["c", "d"]},
    ),
    # One output over every input: inf until q reaches |I|.
    "explicit-one-output": lambda: ExplicitProblem(
        ["a", "b", "c"], {"abc": ["a", "b", "c"]}
    ),
    # No outputs at all: g(q) = 0 and the bound is the trivial floor.
    "explicit-no-outputs": lambda: ExplicitProblem(["a", "b"], {}),
}


def q_grid(problem: Problem) -> Iterator[float]:
    """q < 2, small integers, powers of two, and |I| itself and past it."""
    size = float(problem.num_inputs)
    yield from (0.25, 0.5, 1, 1.0, 1.5, 1.999, 2, 2.5, 3, 4, 7.5, 16, 100, 2 ** 12)
    yield from (size - 1, problem.num_inputs, size, size + 0.5, 2 * size, 10 * size)


class TestEqualsTheVerbatimRecipe:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_every_q_on_the_grid(self, name):
        problem = PROBLEMS[name]()
        checked = 0
        for q in q_grid(problem):
            new = problem.replication_lower_bound(q)
            old = oracle_bound(problem, q)
            assert new == old, (name, q, new, old)
            assert type(new) is float
            checked += 1
        assert checked >= 18

    def test_grid_reaches_infinite_and_floored_values(self):
        values = {}
        for name, build in PROBLEMS.items():
            problem = build()
            values[name] = {problem.replication_lower_bound(q) for q in q_grid(problem)}
        assert math.inf in values["hamming-8"]  # g(q) = 0 for q <= 1
        assert math.inf in values["explicit-one-output"]
        assert values["explicit-no-outputs"] == {1.0}
        assert 1.0 in values["two-paths-10"]  # 2n/q floored for large q
        assert all(min(found) >= 1.0 for found in values.values())

    def test_non_positive_q_raises_on_both(self):
        problem = HammingDistanceProblem(6)
        for q in (0, 0.0, -1.0):
            with pytest.raises(BoundDerivationError):
                problem.replication_lower_bound(q)
            with pytest.raises(BoundDerivationError):
                oracle_bound(problem, q)

    def test_no_inputs_raises_on_both(self):
        problem = ExplicitProblem([], {})
        with pytest.raises(BoundDerivationError):
            problem.replication_lower_bound(4.0)
        with pytest.raises(BoundDerivationError):
            oracle_bound(problem, 4.0)

    def test_problem_without_g_raises_not_implemented_on_both(self):
        class NoG(Problem):
            name = "no-g"

            def inputs(self):
                return iter(range(4))

            def outputs(self):
                return iter([(0, 1)])

            def inputs_of(self, output):
                return frozenset(output)

        with pytest.raises(NotImplementedError):
            NoG().replication_lower_bound(2.0)
        with pytest.raises(NotImplementedError):
            oracle_bound(NoG(), 2.0)

    def test_non_alon_sample_graph_raises_on_both(self):
        problem = SampleGraphProblem(20, SampleGraph.path(2))
        with pytest.raises(BoundDerivationError):
            problem.replication_lower_bound(50.0)
        with pytest.raises(BoundDerivationError):
            oracle_bound(problem, 50.0)


#: Unprofiled plans whose lower bounds must equal the oracle's.
PLANNED = {
    "hamming-8": (lambda: HammingDistanceProblem(8), (2.0, 4.0, 16.0, 256.0)),
    "triangles-12": (lambda: TriangleProblem(12), (10.0, 30.0, 66.0)),
    "matmul-4": (lambda: MatrixMultiplicationProblem(4), (8.0, 16.0, 32.0)),
    "chain-3-join": (
        lambda: MultiwayJoinProblem(JoinQuery.chain(3), 6),
        (20.0, 40.0, 80.0, 200.0),
    ),
}


class TestPlansCarryTheOracleBound:
    @pytest.mark.parametrize("name", sorted(PLANNED))
    def test_every_plan_and_frontier_row(self, name):
        build, budgets = PLANNED[name]
        problem = build()
        planner = CostBasedPlanner.min_replication()
        sweep = planner.sweep(problem, budgets)
        one_round = 0
        for point in sweep.feasible_points:
            for plan in point.result:
                if plan.rounds == 1:
                    assert plan.lower_bound == oracle_bound(problem, plan.q)
                    one_round += 1
                else:
                    assert plan.lower_bound is None
        assert one_round > 0
        rows = [row for row in sweep.frontier() if row["plan"] is not None]
        assert rows
        for row, best in zip(rows, sweep.best_plans()):
            expected = oracle_bound(problem, row["q"]) if best.rounds == 1 else None
            assert row["lower_bound"] == expected


# ----------------------------------------------------------------------
# The recipe's precondition: g(q)/q non-decreasing
# ----------------------------------------------------------------------
SERIES = json.loads(
    (Path(__file__).parent / "goldens" / "paper_series.json").read_text()
)


def _series_q(*names: str) -> list:
    return [float(row["q"]) for name in names for row in SERIES[name] if "q" in row]


#: The q values the reports evaluate: Tables 1 and 2, Fig. 1's Splitting
#: dots at b = 24 (also the cost report's search interval ends) and the
#: Section 6.3 matmul sweep.
REPORT_Q = (
    [2.0 ** k for k in (4, 8, 12, 16)]
    + [2.0 ** k for k in (6, 10, 14)]
    + [2.0 ** log_q for _, log_q, _ in splitting_points(24)]
    + [1e4, 1e5, 1e6, 4e6]
)
ALL_SERIES_Q = _series_q(*(name for name in SERIES))

#: Every class with an analytic g(q), with the series that plan it.
#: ExplicitProblem is left out: its trivial g is a step function.
MONOTONE = {
    "hamming": (
        lambda: HammingDistanceProblem(24),
        ("fig1_hamming", "fig2_weight_partition"),
    ),
    "hamming-distance-2": (
        lambda: HammingDistanceProblem(6, distance=2),
        ("sec36_distance_two",),
    ),
    "triangles": (
        lambda: TriangleProblem(1000),
        ("sec4_sparse_triangles", "ablation_bucketing"),
    ),
    "sample-graph": (
        lambda: SampleGraphProblem(1000, SampleGraph.clique(4)),
        ("sec52_sample_graphs",),
    ),
    "two-paths": (lambda: TwoPathProblem(1000), ("sec54_two_paths",)),
    "multiway-join": (
        lambda: MultiwayJoinProblem(JoinQuery.chain(3), 100),
        ("sec55_chain_join",),
    ),
    "matmul": (
        lambda: MatrixMultiplicationProblem(100),
        ("sec6_matmul", "ablation_two_phase_shapes"),
    ),
    "group-by": (lambda: GroupByAggregationProblem(8, 50), ()),
    "word-count": (_word_count, ()),
}


class TestRecipePrecondition:
    @pytest.mark.parametrize("name", sorted(MONOTONE))
    def test_g_over_q_is_non_decreasing(self, name):
        build, series = MONOTONE[name]
        # Classes no series plans are checked on every q any series uses.
        q_values = REPORT_Q + (_series_q(*series) if series else ALL_SERIES_Q)
        assert len(q_values) > len(REPORT_Q)
        assert g_over_q_non_decreasing(build().max_outputs_covered, q_values)
