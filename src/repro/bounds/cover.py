"""Optimal fractional edge covers and the AGM bound (Section 5.5).

The multiway-join coverage bound ``g(q) = q^ρ`` and the AGM output-size
bound ``Π_e |R_e|^{x_e}`` both read the optimal fractional edge cover of
the query hypergraph (Atserias–Grohe–Marx; refs. [6] and [10] in the
paper):

    minimize   Σ_e x_e
    subject to Σ_{e ∋ v} x_e >= 1   for every attribute v
               x_e >= 0

(one constraint per attribute/node; one variable per relation/hyperedge).
Chain joins give ρ = ⌈(N+1)/2⌉, triangles ρ = 3/2, star joins ρ = N.

The LP is solved exactly, in :class:`fractions.Fraction`, by a Bland-rule
simplex on its packing dual (maximize Σ_v y_v subject to Σ_{v ∈ e} y_v <= 1),
which is feasible at ``y = 0``; the cover is read off the slack columns'
reduced costs at the optimum.  The pivot order depends only on the
canonical hypergraph, so the chosen cover is the same on every machine and
in every call order.

Cascade enumeration asks for the cover of the same induced sub-query once
per tree containing that subtree, so covers are memoized in a process-wide
:class:`~repro.planner.cache.SchemaCache` keyed by
:func:`canonical_query_key`.  Hits and misses surface both through
:func:`cover_cache_stats` and, when a metrics registry is supplied, the
``bounds_cover_cache_{hits,misses}_total`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Mapping, Tuple

from repro.obs.metrics import NULL_METRICS
from repro.planner.cache import CacheStats, SchemaCache
from repro.problems.joins import JoinQuery

QueryKey = Tuple[Tuple[str, Tuple[str, ...]], ...]

_COVER_CACHE = SchemaCache(maxsize=4096)


@dataclass(frozen=True)
class FractionalEdgeCover:
    """An optimal fractional edge cover: ρ plus the per-relation weights."""

    value: float
    weights: Dict[str, float]


def canonical_query_key(query: JoinQuery) -> QueryKey:
    """A hashable identity for a query's hypergraph, order-independent."""
    return tuple(
        sorted(
            (relation.name, tuple(relation.attributes))
            for relation in query.relations
        )
    )


def fractional_edge_cover(
    query: JoinQuery, metrics: Any = NULL_METRICS
) -> FractionalEdgeCover:
    """The optimal fractional edge cover, memoized per canonical query."""
    key = canonical_query_key(query)
    built = []

    def build() -> FractionalEdgeCover:
        built.append(True)
        return _solve(key)

    cover = _COVER_CACHE.get(key, build)
    if metrics is not None and metrics.enabled:
        if built:
            metrics.counter(
                "bounds_cover_cache_misses_total",
                "Fractional-edge-cover LP solves (cover-cache misses).",
            ).inc()
        else:
            metrics.counter(
                "bounds_cover_cache_hits_total",
                "Fractional-edge-cover cache hits.",
            ).inc()
    return cover


def _solve(key: QueryKey) -> FractionalEdgeCover:
    """Bland-rule simplex on the packing dual, exact in Fractions.

    Tableau rows are the relations (``Σ_{v ∈ e} y_v + s_e = 1``); columns
    are the attributes' ``y_v`` then the slacks ``s_e``, which form the
    starting basis.  The objective row holds ``-c_j`` plus reduced costs;
    at the optimum the slack ``s_e``'s entry is the cover weight ``x_e``.
    """
    attributes = list(dict.fromkeys(a for _, attrs in key for a in attrs))
    m, n = len(attributes), len(key)
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [one if a in attrs else zero for a in attributes]
        + [one if i == j else zero for j in range(n)]
        + [one]
        for i, (_, attrs) in enumerate(key)
    ]
    objective = [-one] * m + [zero] * (n + 1)
    basis = list(range(m, m + n))
    while True:
        enter = next((j for j in range(m + n) if objective[j] < 0), None)
        if enter is None:
            break
        # Every attribute lies in some relation, so the ratio test is never empty.
        _, _, leave = min(
            (row[-1] / row[enter], basis[i], i)
            for i, row in enumerate(rows)
            if row[enter] > 0
        )
        pivot = [value / rows[leave][enter] for value in rows[leave]]
        rows[leave] = pivot
        for i, row in enumerate(rows):
            if i != leave and row[enter]:
                factor = row[enter]
                rows[i] = [a - factor * b for a, b in zip(row, pivot)]
        factor = objective[enter]
        objective = [a - factor * b for a, b in zip(objective, pivot)]
        basis[leave] = enter
    weights = {name: float(objective[m + j]) for j, (name, _) in enumerate(key)}
    return FractionalEdgeCover(value=float(objective[-1]), weights=weights)


def cover_cache_stats() -> CacheStats:
    """Hit/miss/eviction snapshot of the process-wide cover cache."""
    return _COVER_CACHE.stats()


def clear_cover_cache() -> None:
    """Drop the memoized covers (tests; profiles never invalidate covers)."""
    _COVER_CACHE.clear()


def agm_bound(
    query: JoinQuery, row_counts: Mapping[str, float], metrics: Any = NULL_METRICS
) -> float:
    """The AGM output-size bound ``Π_e |R_e|^{x_e}`` for a join query.

    ``x`` is the optimal fractional edge cover of the query hypergraph —
    the same LP behind the ``g(q) = q^ρ`` coverage bounds, reused here with
    per-relation weights.
    """
    cover = fractional_edge_cover(query, metrics)
    bound = 1.0
    for relation in query.relations:
        weight = cover.weights.get(relation.name, 0.0)
        if weight <= 0.0:
            continue
        rows = float(row_counts[relation.name])
        if rows <= 0.0:
            return 0.0
        bound *= rows**weight
    return bound
