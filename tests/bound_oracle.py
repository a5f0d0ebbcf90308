"""The pre-``size_bound`` bound registry, kept verbatim as a value oracle.

:func:`repro.bounds.size_bound` replaced a pluggable registry of four
estimator strategies with one function.  The registry and its estimators
are kept here unchanged: ``oracle_registry()`` holds them in their original
registration order (histogram, AGM, degree, top-k), and its
:class:`~repro.bounds.BoundDecision` must equal ``size_bound``'s on every
context — value, method, candidates and estimate.  ``legacy_registry()`` is
the pre-degree-constraint pair (histogram + AGM).

``route_size_bound`` and ``check_size_bound`` replace the
:func:`~repro.bounds.size_bound` that :class:`~repro.pipeline.SizeEstimator`
calls, so every planner evaluation goes through a registry or is checked
against one.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import repro.pipeline.estimate
from repro.bounds import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundCandidate,
    BoundContext,
    BoundDecision,
    ChildView,
    agm_bound,
    per_value_sum,
    size_bound,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import NULL_METRICS
from repro.stats.profile import AttributeProfile

#: Head length for top-k frequency vectors built from full histograms
#: (Misra–Gries summaries are already capped at their capacity).
TOP_K_HEAD = 32


class BoundEstimator(abc.ABC):
    """One bound strategy. Subclass, set ``name``, implement ``estimate``."""

    #: Registry identity; also the default method label.
    name: str = ""

    @abc.abstractmethod
    def estimate(self, context: BoundContext) -> Optional[BoundCandidate]:
        """The estimator's bound for ``context``, or ``None`` if N/A."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BoundRegistry:
    """An ordered collection of bound estimators.

    Mirrors the planner's :class:`~repro.planner.registry.SchemaRegistry`
    convention: ``register`` works as a plain call or a class decorator,
    and consumers evaluate against whatever is registered.  Order matters —
    ties on the minimum go to the earliest registration.
    """

    def __init__(self) -> None:
        self._estimators: List[BoundEstimator] = []

    def register(self, estimator):
        """Register an estimator instance (or class, decorator-style)."""
        instance = estimator() if isinstance(estimator, type) else estimator
        if not isinstance(instance, BoundEstimator):
            raise ConfigurationError(
                f"bound estimators subclass BoundEstimator, got {instance!r}"
            )
        if not instance.name:
            raise ConfigurationError("bound estimators need a non-empty name")
        if instance.name in self.names():
            raise ConfigurationError(
                f"bound estimator {instance.name!r} is already registered"
            )
        self._estimators.append(instance)
        return estimator

    @property
    def estimators(self) -> Tuple[BoundEstimator, ...]:
        return tuple(self._estimators)

    def names(self) -> Tuple[str, ...]:
        return tuple(estimator.name for estimator in self._estimators)

    def evaluate(self, context: BoundContext) -> BoundDecision:
        """The minimum over applicable bounds; ties to earliest registered."""
        candidates: List[BoundCandidate] = []
        winner: Optional[BoundCandidate] = None
        for estimator in self._estimators:
            candidate = estimator.estimate(context)
            if candidate is None:
                continue
            candidates.append(candidate)
            if winner is None or candidate.value < winner.value:
                winner = candidate
        if winner is None:
            raise ConfigurationError(
                f"no registered bound applies to {context.query.name!r} "
                f"(registered: {list(self.names())})"
            )
        metrics = context.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter(
                "bounds_evaluations_total", "Bound-registry evaluations."
            ).inc()
            metrics.counter(
                "bounds_method_wins_total", "Winning size-bound method."
            ).inc(method=winner.method)
        return BoundDecision(
            value=winner.value, method=winner.method, candidates=tuple(candidates)
        )


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


def oracle_registry() -> BoundRegistry:
    """The four estimators in the order ``size_bound`` must reproduce."""
    registry = BoundRegistry()
    registry.register(PerValueHistogramBound())
    registry.register(AGMBound())
    registry.register(DegreeConstraintBound())
    registry.register(TopKFrequencyBound())
    return registry


def legacy_registry() -> BoundRegistry:
    """The pre-degree-constraint pair: per-value histogram and AGM."""
    registry = BoundRegistry()
    registry.register(PerValueHistogramBound())
    registry.register(AGMBound())
    return registry


def route_size_bound(patch, evaluate) -> None:
    """Make ``SizeEstimator`` bound every context with ``evaluate``."""
    patch.setattr(repro.pipeline.estimate, "size_bound", evaluate)


def check_size_bound(patch) -> List[BoundDecision]:
    """Check every ``SizeEstimator`` evaluation against the oracle registry.

    Returns the list the checked decisions are appended to.  The oracle
    runs without the context's metrics, so counters see one evaluation.
    """
    oracle = oracle_registry()
    checked: List[BoundDecision] = []

    def size_bound_checked(context: BoundContext) -> BoundDecision:
        decision = size_bound(context)
        expected = oracle.evaluate(dataclasses.replace(context, metrics=NULL_METRICS))
        assert decision == expected, (decision, expected)
        checked.append(decision)
        return decision

    route_size_bound(patch, size_bound_checked)
    return checked
