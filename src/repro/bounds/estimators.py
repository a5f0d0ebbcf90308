"""The built-in bound estimators, registered on the default registry.

Registration order is load-bearing: ties on the minimum go to the earliest
registration, and the legacy estimator resolved histogram-vs-AGM ties in
the histogram's favour — so ``PerValueHistogramBound`` registers first,
then ``AGMBound``, then the two estimators new in this layer.

* :class:`PerValueHistogramBound` — ``min_s Σ_v cnt_L(s=v)·cnt_R(s=v)``
  over the children's *sound* histograms.
* :class:`AGMBound` — ``Π_e |R_e|^{x_e}`` from the cover cache, clamped by
  the cross product in join contexts.
* :class:`DegreeConstraintBound` — the Abo Khamis–Ngo–Suciu style chain
  bound from per-attribute degree caps (``max_degree`` / functional
  dependencies), clamped by AGM so it is ≤ AGM whenever it applies.
* :class:`TopKFrequencyBound` — the UES-style bound (PostBOUND): sorted
  top-k frequency-upper-bound vectors paired positionally (sound by the
  rearrangement inequality), deterministic tail caps, KMV distinct counts
  feeding only the estimate-grade refinement.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.bounds.base import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundCandidate,
    BoundContext,
    BoundEstimator,
    ChildView,
    default_bound_registry,
)
from repro.bounds.cover import agm_bound
from repro.stats.profile import AttributeProfile

#: Head length for top-k frequency vectors built from full histograms
#: (Misra–Gries summaries are already capped at their capacity).
TOP_K_HEAD = 32


def per_value_sum(
    left: Mapping[Hashable, float], right: Mapping[Hashable, float]
) -> float:
    """``Σ_v left(v)·right(v)`` over the histograms' common support."""
    small, large = left, right
    if len(large) < len(small):
        small, large = large, small
    total = 0.0
    for value, count in small.items():
        other = large.get(value)
        if other:
            total += count * other
    return total


def _cross_product(context: BoundContext) -> float:
    return context.left.rows * context.right.rows


class PerValueHistogramBound(BoundEstimator):
    """Per-value sums over sound histograms — the exact-profile workhorse."""

    name = METHOD_HISTOGRAM

    def estimate(self, context: BoundContext) -> Optional[BoundCandidate]:
        if not context.is_join:
            return None
        left, right = context.left, context.right
        if left.sound_histograms is None or right.sound_histograms is None:
            return None
        sound_shared = [
            attribute
            for attribute in context.shared_attributes
            if attribute in left.sound_histograms
            and attribute in right.sound_histograms
        ]
        if not sound_shared:
            return None
        value = min(
            per_value_sum(
                left.sound_histograms[attribute], right.sound_histograms[attribute]
            )
            for attribute in sound_shared
        )
        return BoundCandidate(method=METHOD_HISTOGRAM, value=value)


class AGMBound(BoundEstimator):
    """The AGM bound from base row counts; always applicable, always sound.

    In join contexts the candidate is clamped by the children's cross
    product, and labels itself ``model-domain`` when no profile backs the
    row counts — both legacy behaviours the bit-identity tests pin.
    """

    name = METHOD_AGM

    def estimate(self, context: BoundContext) -> Optional[BoundCandidate]:
        value = agm_bound(context.query, context.row_counts, context.metrics)
        method = METHOD_AGM
        if context.is_join:
            value = min(value, _cross_product(context))
            if context.profile is None:
                method = METHOD_DOMAIN
        return BoundCandidate(method=method, value=value)


class DegreeConstraintBound(BoundEstimator):
    """Chain bounds from per-attribute degree caps (polymatroid style).

    A degree cap ``cap_R(a)`` bounds how many ``R``-rows any single value
    of ``a`` can match, so ``|L ⋈ R| ≤ |L| · min_{a shared} cap_R(a)`` (and
    symmetrically).  For whole queries the same step composes along an
    ordering of the relations — the chain instantiation of the Abo
    Khamis–Ngo–Suciu polymatroid bound.  The candidate is clamped by AGM,
    so it is ≤ AGM whenever it applies and degenerates to exactly AGM when
    every cap is trivial.  Caps are deterministic in both profile modes
    (``max_degree`` is collected exactly even for sampled profiles).
    """

    name = METHOD_DEGREE

    def estimate(self, context: BoundContext) -> Optional[BoundCandidate]:
        if context.is_join:
            chain = self._join_chain(context)
        else:
            chain = self._query_chain(context)
        if chain is None:
            return None
        agm = agm_bound(context.query, context.row_counts, context.metrics)
        if context.is_join:
            agm = min(agm, _cross_product(context))
        return BoundCandidate(method=METHOD_DEGREE, value=min(chain, agm))

    @staticmethod
    def _join_chain(context: BoundContext) -> Optional[float]:
        left, right = context.left, context.right
        terms: List[float] = []
        for attribute in context.shared_attributes:
            left_cap = (left.degree_caps or {}).get(attribute)
            right_cap = (right.degree_caps or {}).get(attribute)
            if right_cap is not None:
                terms.append(left.rows * right_cap)
            if left_cap is not None:
                terms.append(right.rows * left_cap)
        if not terms:
            return None
        return min(terms)

    def _query_chain(self, context: BoundContext) -> Optional[float]:
        if context.profile is None:
            return None
        relations = list(context.query.relations)
        if len(relations) < 2:
            return None
        caps: Dict[str, Dict[str, float]] = {}
        for relation in relations:
            profiled = context.profile.relation(relation.name)
            caps[relation.name] = {
                attribute: float(stats.degree_cap)
                for attribute, stats in profiled.attributes.items()
            }
        best: Optional[float] = None
        for ordering in self._orderings(relations, context.row_counts, caps):
            bound = self._chain_value(ordering, context.row_counts, caps)
            if best is None or bound < best:
                best = bound
        return best

    @staticmethod
    def _chain_value(
        ordering: Sequence,
        row_counts: Mapping[str, float],
        caps: Mapping[str, Mapping[str, float]],
    ) -> float:
        covered: set = set()
        bound = 1.0
        for index, relation in enumerate(ordering):
            rows = float(row_counts[relation.name])
            if index == 0:
                factor = rows
            else:
                connecting = [
                    caps[relation.name][attribute]
                    for attribute in relation.attributes
                    if attribute in covered and attribute in caps[relation.name]
                ]
                factor = min(connecting + [rows])
            bound *= factor
            covered.update(relation.attributes)
        return bound

    def _orderings(self, relations, row_counts, caps):
        if len(relations) <= 6:
            yield from itertools.permutations(relations)
            return
        # Too many relations to enumerate: greedy chain from each start,
        # always extending with the cheapest next factor.
        for start in range(len(relations)):
            ordering = [relations[start]]
            remaining = relations[:start] + relations[start + 1 :]
            covered = set(relations[start].attributes)
            while remaining:
                def factor(relation):
                    connecting = [
                        caps[relation.name][attribute]
                        for attribute in relation.attributes
                        if attribute in covered and attribute in caps[relation.name]
                    ]
                    return min(connecting + [float(row_counts[relation.name])])

                next_relation = min(remaining, key=factor)
                ordering.append(next_relation)
                covered.update(next_relation.attributes)
                remaining.remove(next_relation)
            yield ordering


class _FrequencyView:
    """One column's sorted frequency-upper-bound vector plus tail caps."""

    __slots__ = ("uppers", "lowers", "total", "tail_cap", "tail_count", "tail_count_estimate")

    def __init__(
        self,
        uppers: Sequence[float],
        lowers: Sequence[float],
        total: float,
        tail_cap: float,
        tail_count: Optional[float],
        tail_count_estimate: Optional[float],
    ) -> None:
        self.uppers = list(uppers)
        self.lowers = list(lowers)
        self.total = total
        self.tail_cap = tail_cap
        self.tail_count = tail_count
        self.tail_count_estimate = tail_count_estimate


class TopKFrequencyBound(BoundEstimator):
    """UES-style top-k frequency pairing over leaf attribute statistics.

    Per shared attribute, both sides' top frequencies (exact histogram
    heads, or Misra–Gries deterministic uppers clamped by ``max_degree``)
    are sorted descending and paired positionally; the rearrangement
    inequality makes the aligned product sum dominate the true common-value
    matching.  Tail mass is capped by the first frequency *not* in the head
    (exact) or the Misra–Gries error bound (sampled), with the exact
    distinct count tightening the tail deterministically and the KMV
    distinct estimate feeding only the estimate-grade ``estimate`` field.
    """

    name = METHOD_TOPK

    def estimate(self, context: BoundContext) -> Optional[BoundCandidate]:
        if not context.is_join:
            return None
        best: Optional[float] = None
        best_estimate: Optional[float] = None
        for attribute in context.shared_attributes:
            left_view = self._view(context.left, attribute)
            right_view = self._view(context.right, attribute)
            if left_view is None or right_view is None:
                continue
            value, estimate = self._paired_bound(left_view, right_view)
            if best is None or value < best:
                best = value
            if best_estimate is None or estimate < best_estimate:
                best_estimate = estimate
        if best is None:
            return None
        return BoundCandidate(
            method=METHOD_TOPK, value=best, estimate=min(best_estimate, best)
        )

    @staticmethod
    def _view(child: ChildView, attribute: str) -> Optional[_FrequencyView]:
        if child.attribute_profiles is None:
            return None
        stats: Optional[AttributeProfile] = child.attribute_profiles.get(attribute)
        if stats is None:
            return None
        if stats.exact:
            counts = sorted(stats.histogram.values(), reverse=True)
            head = [float(count) for count in counts[:TOP_K_HEAD]]
            tail_cap = float(counts[TOP_K_HEAD]) if len(counts) > TOP_K_HEAD else 0.0
            tail_count = float(max(0, len(counts) - TOP_K_HEAD))
            return _FrequencyView(
                uppers=head,
                lowers=head,
                total=float(stats.total_count),
                tail_cap=tail_cap,
                tail_count=tail_count,
                tail_count_estimate=tail_count,
            )
        if not stats.heavy_hitters:
            return None
        cap = float(stats.degree_cap)
        error = float(stats.heavy_hitter_error)
        pairs = sorted(stats.heavy_hitters.values(), reverse=True)
        uppers = [min(float(low) + error, cap) for low in pairs]
        lowers = [float(low) for low in pairs]
        return _FrequencyView(
            uppers=uppers,
            lowers=lowers,
            total=float(stats.total_count),
            tail_cap=min(error, cap),
            tail_count=None,
            tail_count_estimate=max(0.0, stats.distinct_estimate - len(uppers)),
        )

    @staticmethod
    def _paired_bound(
        left: _FrequencyView, right: _FrequencyView
    ) -> Tuple[float, float]:
        head = min(len(left.uppers), len(right.uppers))
        head_sum = sum(
            left.uppers[i] * right.uppers[i] for i in range(head)
        )
        left_rem = max(0.0, left.total - sum(left.lowers[:head]))
        right_rem = max(0.0, right.total - sum(right.lowers[:head]))
        left_cap = left.uppers[head] if head < len(left.uppers) else left.tail_cap
        right_cap = right.uppers[head] if head < len(right.uppers) else right.tail_cap
        tail_terms = [left_rem * right_cap, right_rem * left_cap]
        if left.tail_count is not None and right.tail_count is not None:
            left_beyond = left.tail_count + max(0, len(left.uppers) - head)
            right_beyond = right.tail_count + max(0, len(right.uppers) - head)
            tail_terms.append(
                left_cap * right_cap * min(left_beyond, right_beyond)
            )
        tail = max(0.0, min(tail_terms))
        value = head_sum + tail
        estimate = value
        if (
            left.tail_count_estimate is not None
            and right.tail_count_estimate is not None
        ):
            estimated_tail = (
                left_cap
                * right_cap
                * min(left.tail_count_estimate, right.tail_count_estimate)
            )
            estimate = head_sum + max(0.0, min(tail + 0.0, estimated_tail, *tail_terms))
        return value, estimate


default_bound_registry.register(PerValueHistogramBound())
default_bound_registry.register(AGMBound())
default_bound_registry.register(DegreeConstraintBound())
default_bound_registry.register(TopKFrequencyBound())
