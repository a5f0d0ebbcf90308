"""The exact fractional edge cover (Section 5.5) and the AGM bound it prices.

The pinned table fixes ρ and the per-relation weights of every standard
query shape, so the AGM bound ``Π_e |R_e|^{x_e}`` cannot change with the
environment.  The solver against an independent LP solver is
``tests/test_cover_oracle.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.bounds import (
    agm_bound,
    clear_cover_cache,
    cover_cache_stats,
    fractional_edge_cover,
)
from repro.problems import JoinQuery, MultiwayJoinProblem, RelationSchema

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (query, ρ, weights in relation order).  Every entry is the cover scipy's
# HiGHS linprog returns, except cycle(4): there ρ = 2 is tied between
# (1, 0, 1, 0) and (0, 1, 0, 1); linprog returns the second.
PINNED = [
    (JoinQuery.binary_join(), 2, (1, 1)),
    (JoinQuery.chain(2), 2, (1, 1)),
    (JoinQuery.chain(3), 2, (1, 0, 1)),
    (JoinQuery.chain(4), 3, (1, 1, 0, 1)),
    (JoinQuery.chain(5), 3, (1, 0, 1, 0, 1)),
    (JoinQuery.chain(6), 4, (1, 1, 0, 1, 0, 1)),
    (JoinQuery.cycle(3), 1.5, (0.5, 0.5, 0.5)),
    (JoinQuery.cycle(4), 2, (1, 0, 1, 0)),
    (JoinQuery.cycle(5), 2.5, (0.5, 0.5, 0.5, 0.5, 0.5)),
    (JoinQuery.cycle(6), 3, (1, 0, 1, 0, 1, 0)),
    (JoinQuery.star(1), 1, (0, 1)),
    (JoinQuery.star(2), 2, (0, 1, 1)),
    (JoinQuery.star(3), 3, (0, 1, 1, 1)),
    (JoinQuery.star(4), 4, (0, 1, 1, 1, 1)),
]


@pytest.mark.parametrize(
    "query, rho, weights", PINNED, ids=[query.name for query, _, _ in PINNED]
)
def test_pinned_cover(query, rho, weights):
    cover = fractional_edge_cover(query)
    assert cover.value == rho
    assert cover.weights == {
        relation.name: weight for relation, weight in zip(query.relations, weights)
    }


class TestFractionalEdgeCover:
    def test_cover_weights_are_feasible(self):
        query = JoinQuery.cycle(5)
        cover = fractional_edge_cover(query)
        for attribute in query.attributes:
            coverage = sum(
                cover.weights[relation.name]
                for relation in query.relations
                if attribute in relation.attributes
            )
            assert coverage >= 1.0 - 1e-6

    def test_cover_ignores_relation_order(self):
        """The pivot order follows the canonical hypergraph, not the
        caller's relation order, so a tied cover is the same either way."""
        query = JoinQuery.cycle(4)
        reordered = JoinQuery(list(reversed(query.relations)))
        clear_cover_cache()
        first = fractional_edge_cover(reordered)
        clear_cover_cache()
        assert fractional_edge_cover(query) == first

    def test_cover_is_memoized(self):
        clear_cover_cache()
        query = JoinQuery.chain(4)
        first = fractional_edge_cover(query)
        before = cover_cache_stats()
        assert fractional_edge_cover(query) is first
        assert cover_cache_stats().hits == before.hits + 1

    def test_rho_reads_the_cached_cover(self):
        clear_cover_cache()
        ternary = JoinQuery(
            [RelationSchema("R", ("A", "B", "C")), RelationSchema("S", ("C", "D", "E"))]
        )
        assert MultiwayJoinProblem(ternary, 4).rho == 2.0
        assert cover_cache_stats().misses == 1
        assert MultiwayJoinProblem(ternary, 5).rho == 2.0
        assert cover_cache_stats().hits == 1

    def test_solver_keyword_is_gone(self):
        with pytest.raises(TypeError):
            fractional_edge_cover(JoinQuery.binary_join(), solver="exact")


class TestAGMBound:
    def test_binary_join(self):
        assert agm_bound(JoinQuery.binary_join(), {"R": 100.0, "S": 400.0}) == pytest.approx(
            100.0 * 400.0
        )

    def test_triangle(self):
        bound = agm_bound(JoinQuery.cycle(3), {name: 100.0 for name in ("R1", "R2", "R3")})
        assert bound == pytest.approx(100.0 ** 1.5)

    def test_chain4_prices_the_pinned_cover(self):
        """chain(4) ties (1,1,0,1) with (1,0,1,1); the pinned cover takes the
        heavy R2, whatever else is installed."""
        sizes = {"R1": 10, "R2": 1000, "R3": 10, "R4": 10}
        assert agm_bound(JoinQuery.chain(4), sizes) == pytest.approx(100_000)


def test_planning_a_profiled_join_does_not_import_scipy():
    script = textwrap.dedent(
        """
        import sys
        from repro.bounds import cover_cache_stats
        from repro.datagen.relations import skewed_chain_join_instance
        from repro.pipeline import PipelinePlanner
        from repro.planner import CostBasedPlanner
        from repro.problems import JoinQuery, MultiwayJoinProblem
        from repro.stats import profile_relations

        relations = skewed_chain_join_instance(3, 40, 16, skew=1.6, seed=7)
        result = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
            MultiwayJoinProblem(JoinQuery.chain(3), 16),
            q=160,
            profile=profile_relations(relations),
        )
        assert result.best is not None
        assert cover_cache_stats().misses >= 1
        assert "scipy" not in sys.modules, "planning imported scipy"
        """
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
