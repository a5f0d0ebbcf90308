"""The exact fractional edge cover against scipy's LP solver as the oracle.

scipy is a test-only dependency: the library never imports it, and this
file is skipped where it is not installed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

linprog = pytest.importorskip("scipy.optimize").linprog

from repro.bounds import fractional_edge_cover  # noqa: E402
from repro.problems import JoinQuery, RelationSchema  # noqa: E402

ATTRIBUTES = [f"A{index}" for index in range(9)]


@st.composite
def hypergraphs(draw):
    """≤ 8 relations of arity 1..4 over ≤ 9 attributes."""
    edges = draw(
        st.lists(
            st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=8,
        )
    )
    return JoinQuery(
        [RelationSchema(f"R{index}", tuple(edge)) for index, edge in enumerate(edges)]
    )


def _linprog_rho(query: JoinQuery) -> float:
    relations = list(query.relations)
    constraints = [
        [-1.0 if attribute in relation.attributes else 0.0 for relation in relations]
        for attribute in query.attributes
    ]
    result = linprog(
        c=[1.0] * len(relations),
        A_ub=constraints,
        b_ub=[-1.0] * len(constraints),
        bounds=[(0.0, None)] * len(relations),
        method="highs",
    )
    assert result.success, result.message
    return float(result.fun)


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_exact_cover_matches_linprog(query):
    cover = fractional_edge_cover(query)
    assert cover.value == pytest.approx(_linprog_rho(query), abs=1e-9)
    for attribute in query.attributes:
        coverage = sum(
            cover.weights[relation.name]
            for relation in query.relations
            if attribute in relation.attributes
        )
        assert coverage >= 1.0 - 1e-9
    assert all(weight >= 0.0 for weight in cover.weights.values())
    assert sum(cover.weights.values()) == pytest.approx(cover.value, abs=1e-9)
