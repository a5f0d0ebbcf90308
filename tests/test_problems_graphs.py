"""Unit tests for the triangle, sample-graph (Alon class), and 2-path problems."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.exceptions import BoundDerivationError, ConfigurationError, ProblemDomainError
from repro.problems import (
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
    triangle_g,
)


class TestTriangleProblem:
    def test_rejects_small_n(self):
        with pytest.raises(ConfigurationError):
            TriangleProblem(2)

    def test_counts(self):
        problem = TriangleProblem(7)
        assert problem.num_inputs == math.comb(7, 2)
        assert problem.num_outputs == math.comb(7, 3)
        assert problem.num_inputs == sum(1 for _ in problem.inputs())
        assert problem.num_outputs == sum(1 for _ in problem.outputs())

    def test_inputs_of_triangle(self):
        problem = TriangleProblem(5)
        assert problem.inputs_of((0, 2, 4)) == frozenset({(0, 2), (0, 4), (2, 4)})

    def test_inputs_of_rejects_unsorted(self):
        with pytest.raises(ProblemDomainError):
            TriangleProblem(5).inputs_of((2, 0, 4))

    def test_inputs_of_rejects_out_of_range(self):
        with pytest.raises(ProblemDomainError):
            TriangleProblem(5).inputs_of((0, 1, 5))

    def test_g_formula(self):
        assert triangle_g(0) == 0.0
        assert triangle_g(2) == pytest.approx(math.sqrt(2) / 3 * 2 ** 1.5)

    def test_g_ratio_monotone(self):
        ratios = [triangle_g(q) / q for q in (1, 3, 10, 100, 1000)]
        assert ratios == sorted(ratios)

    def test_clique_edges_cover_expected_triangles(self):
        """A reducer holding all C(k,2) edges among k nodes covers C(k,3)
        triangles, which is what the g(q) derivation uses."""
        problem = TriangleProblem(10)
        for k in (3, 4, 5, 6):
            edges = list(itertools.combinations(range(k), 2))
            covered = problem.outputs_covered_by(edges)
            assert len(covered) == math.comb(k, 3)
            assert len(covered) <= triangle_g(len(edges)) + 1e-9

    def test_exact_extremal_count_below_analytic_g(self):
        problem = TriangleProblem(30)
        for q in (3, 6, 10, 15, 21, 45, 100):
            assert problem.max_outputs_covered_exact(q) <= triangle_g(q) + 1e-9

    def test_random_edge_sets_respect_g(self, rng):
        problem = TriangleProblem(9)
        all_edges = list(problem.inputs())
        for _ in range(30):
            size = rng.randint(3, 20)
            subset = rng.sample(all_edges, size)
            covered = problem.outputs_covered_by(subset)
            assert len(covered) <= triangle_g(size) + 1e-9

    def test_lower_bound_formula(self):
        problem = TriangleProblem(100)
        assert problem.lower_bound(50) == pytest.approx(100 / math.sqrt(100))
        assert problem.lower_bound(0) == float("inf")
        # Large q floors at 1.
        assert problem.lower_bound(10 ** 9) == 1.0

    def test_sparse_lower_bound(self):
        problem = TriangleProblem(1000)
        assert problem.lower_bound_sparse(100, m=10_000) == pytest.approx(10.0)


class TestSampleGraph:
    def test_triangle_is_alon(self):
        assert SampleGraph.triangle().is_in_alon_class()

    def test_even_cycle_is_alon(self):
        assert SampleGraph.cycle(4).is_in_alon_class()

    def test_odd_cycle_is_alon(self):
        assert SampleGraph.cycle(5).is_in_alon_class()

    def test_clique_is_alon(self):
        assert SampleGraph.clique(4).is_in_alon_class()

    def test_odd_path_is_alon(self):
        # A path with 3 edges (4 nodes) has a perfect matching of 2 edges.
        assert SampleGraph.path(3).is_in_alon_class()

    def test_even_path_is_not_alon(self):
        # The 2-path (3 nodes) cannot be partitioned into edges / odd cycles.
        assert not SampleGraph.path(2).is_in_alon_class()

    def test_single_edge_is_alon(self):
        assert SampleGraph.path(1).is_in_alon_class()

    def test_star_with_three_leaves_is_not_alon(self):
        star = SampleGraph([(0, 1), (0, 2), (0, 3)], name="star-3")
        assert not star.is_in_alon_class()

    def test_constructors_validate(self):
        with pytest.raises(ConfigurationError):
            SampleGraph.cycle(2)
        with pytest.raises(ConfigurationError):
            SampleGraph.clique(1)
        with pytest.raises(ConfigurationError):
            SampleGraph.path(0)
        with pytest.raises(ConfigurationError):
            SampleGraph([])

    def test_edges_are_canonicalized(self):
        graph = SampleGraph([(2, 1), (1, 2), (0, 1)])
        assert graph.edges == ((0, 1), (1, 2))
        assert graph.num_nodes == 3

    def test_automorphism_counts(self):
        assert SampleGraph.triangle().automorphism_count() == 6  # S_3
        assert SampleGraph.cycle(4).automorphism_count() == 8  # dihedral D_4
        assert SampleGraph.clique(4).automorphism_count() == 24  # S_4
        assert SampleGraph.path(2).automorphism_count() == 2  # flip

    def test_num_outputs_closed_form_matches_enumeration(self):
        """|O| = n!/(n-s)!/|Aut(S)| — the planner reads |O| per plan call,
        so it must not fall back to the Θ(n^s) enumeration default."""
        shapes = [
            SampleGraph.triangle(),
            SampleGraph.cycle(4),
            SampleGraph.clique(4),
            SampleGraph.path(2),
            SampleGraph([(0, 1), (1, 2), (1, 3)], name="star-3"),
        ]
        for sample in shapes:
            for n in (sample.num_nodes, sample.num_nodes + 2, 8):
                problem = SampleGraphProblem(n, sample)
                assert problem.num_outputs == sum(1 for _ in problem.outputs())


class TestSampleGraphProblem:
    def test_rejects_too_small_domain(self):
        with pytest.raises(ConfigurationError):
            SampleGraphProblem(2, SampleGraph.triangle())

    def test_triangle_instances_match_triangle_problem(self):
        problem = SampleGraphProblem(6, SampleGraph.triangle())
        instances = list(problem.outputs())
        assert len(instances) == math.comb(6, 3)

    def test_four_cycle_instance_count(self):
        problem = SampleGraphProblem(5, SampleGraph.cycle(4))
        # Distinct 4-cycles on 5 labelled nodes: C(5,4) * 3 = 15.
        assert len(list(problem.outputs())) == 15

    def test_inputs_of_returns_edges(self):
        problem = SampleGraphProblem(5, SampleGraph.triangle())
        output = next(iter(problem.outputs()))
        assert problem.inputs_of(output) == output

    def test_inputs_of_rejects_non_frozenset(self):
        problem = SampleGraphProblem(5, SampleGraph.triangle())
        with pytest.raises(ProblemDomainError):
            problem.inputs_of((0, 1, 2))

    def test_g_requires_alon_class(self):
        problem = SampleGraphProblem(5, SampleGraph.path(2))
        with pytest.raises(BoundDerivationError):
            problem.max_outputs_covered(10)

    def test_lower_bounds_require_alon_class(self):
        star = SampleGraph([(0, 1), (0, 2), (0, 3)], name="star-3")
        problem = SampleGraphProblem(60, star)
        assert star.is_in_alon_class() is False
        with pytest.raises(BoundDerivationError):
            problem.lower_bound(300)
        with pytest.raises(BoundDerivationError):
            problem.lower_bound_sparse(300, m=1000)

    def test_g_for_triangle_matches_alon_exponent(self):
        problem = SampleGraphProblem(8, SampleGraph.triangle())
        assert problem.max_outputs_covered(16) == pytest.approx(16 ** 1.5)

    def test_lower_bounds(self):
        problem = SampleGraphProblem(100, SampleGraph.clique(4))
        assert problem.lower_bound(100) == pytest.approx((100 / 10) ** 2)
        assert problem.lower_bound_sparse(100, m=10_000) == pytest.approx(100.0)

    def test_describe_reports_alon_membership(self):
        problem = SampleGraphProblem(6, SampleGraph.cycle(4))
        assert problem.describe()["alon_class"] is True


class TestTwoPathProblem:
    def test_rejects_small_n(self):
        with pytest.raises(ConfigurationError):
            TwoPathProblem(2)

    def test_counts(self):
        problem = TwoPathProblem(6)
        assert problem.num_inputs == math.comb(6, 2)
        assert problem.num_outputs == 3 * math.comb(6, 3)
        assert problem.num_outputs == sum(1 for _ in problem.outputs())

    def test_inputs_of(self):
        problem = TwoPathProblem(6)
        assert problem.inputs_of((0, 3, 5)) == frozenset({(0, 3), (3, 5)})

    def test_inputs_of_rejects_bad_triples(self):
        problem = TwoPathProblem(6)
        with pytest.raises(ProblemDomainError):
            problem.inputs_of((5, 3, 0))  # endpoints out of order
        with pytest.raises(ProblemDomainError):
            problem.inputs_of((0, 0, 1))  # repeated node
        with pytest.raises(ProblemDomainError):
            problem.inputs_of((0, 6, 1))  # out of range

    def test_g_is_all_pairs(self):
        problem = TwoPathProblem(6)
        assert problem.max_outputs_covered(5) == pytest.approx(10.0)
        assert problem.max_outputs_covered(1) == 0.0

    def test_star_edges_cover_quadratic_outputs(self):
        """q edges sharing a center cover C(q,2) two-paths — g(q) is tight."""
        problem = TwoPathProblem(8)
        star_edges = [(0, other) for other in range(1, 6)]
        covered = problem.outputs_covered_by(star_edges)
        assert len(covered) == math.comb(5, 2)

    def test_random_edge_sets_respect_g(self, rng):
        problem = TwoPathProblem(7)
        all_edges = list(problem.inputs())
        for _ in range(30):
            size = rng.randint(2, 15)
            subset = rng.sample(all_edges, size)
            covered = problem.outputs_covered_by(subset)
            assert len(covered) <= problem.max_outputs_covered(size) + 1e-9

    def test_lower_bound_with_trivial_floor(self):
        problem = TwoPathProblem(100)
        assert problem.lower_bound(10) == pytest.approx(20.0)
        assert problem.lower_bound(1000) == 1.0
        assert problem.lower_bound(0) == float("inf")
