"""One size bound: AGM as the ceiling, data-driven refinements under it.

Every place the planner needs an upper bound on a join's output size —
cascade node pricing in :mod:`repro.pipeline.estimate`, one-round output
bounds in :mod:`repro.pipeline.planner` — calls :func:`size_bound` with a
:class:`BoundContext` describing either

* a **binary join** — two :class:`ChildView`\\ s (already-bounded inputs,
  their sound histograms, degree caps and leaf attribute profiles) plus the
  shared attributes; or
* a **whole query** — no children, just the induced query and base-relation
  row counts (the one-round Shares output bound).

``size_bound`` computes the AGM bound ``Π_e |R_e|^{x_e}`` once, from the
cover cache, and offers each refinement that applies as a further
candidate:

* **per-value histogram** — ``min_s Σ_v cnt_L(s=v)·cnt_R(s=v)`` over the
  children's *sound* histograms;
* **degree constraint** — the Abo Khamis–Ngo–Suciu style chain bound from
  per-attribute degree caps (``max_degree`` / functional dependencies),
  clamped by AGM so it is ≤ AGM whenever it applies;
* **top-k frequency** — the UES-style bound (PostBOUND): sorted top-k
  frequency-upper-bound vectors paired positionally (sound by the
  rearrangement inequality), deterministic tail caps, KMV distinct counts
  feeding only the estimate-grade refinement.

The candidates are listed in the order histogram, AGM, degree, top-k, and
the first strict minimum wins: a histogram tie keeps the histogram label,
and a degree chain that only matches AGM keeps the AGM label.

Every candidate ``value`` is a *deterministically sound* upper bound on
the true output size in both profile fidelities — sampled profiles only
feed the refinements deterministic sketch bounds (Misra–Gries uppers,
exact ``max_degree`` scalars), never reservoir or KMV estimates.
Estimate-grade refinements (KMV tail counts) travel separately in
``estimate`` and may only tighten the planner's *calibrated estimate*,
never the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any, Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.bounds.cover import agm_bound
from repro.exceptions import ConfigurationError
from repro.obs.metrics import NULL_METRICS
from repro.problems.joins import JoinQuery
from repro.stats.profile import AttributeProfile, DatasetProfile

#: Size-bound methods, in decreasing fidelity.
METHOD_HISTOGRAM = "per-value-histogram"
METHOD_AGM = "agm"
METHOD_DOMAIN = "model-domain"
METHOD_DEGREE = "degree-constraint"
METHOD_TOPK = "top-k-frequency"

#: Head length for top-k frequency vectors built from full histograms
#: (Misra–Gries summaries are already capped at their capacity).
TOP_K_HEAD = 32


@dataclass(frozen=True)
class ChildView:
    """What the size bound may know about one join input.

    ``rows`` is a sound upper bound on the input's cardinality (exact for
    base relations, the child's own certified size bound for
    intermediates).  ``sound_histograms`` carries per-attribute value →
    upper-bound maps, ``degree_caps`` per-attribute caps on any single
    value's multiplicity, and ``attribute_profiles`` the *collected* (not
    synthetic) per-attribute statistics — present only for base-relation
    leaves, which is what keeps the sketch-driven refinement sound.
    """

    name: str
    rows: float
    sound_histograms: Optional[Mapping[str, Mapping[Hashable, float]]] = None
    degree_caps: Optional[Mapping[str, float]] = None
    attribute_profiles: Optional[Mapping[str, AttributeProfile]] = None


@dataclass(frozen=True)
class BoundContext:
    """One size-bound request.

    ``query`` is the induced sub-query of the relations below this node
    (the whole query for one-round bounds); ``row_counts`` its base
    relations' row counts.  ``left``/``right`` are present for binary-join
    contexts and ``None`` for whole-query contexts.
    """

    query: JoinQuery
    row_counts: Mapping[str, float]
    profile: Optional[DatasetProfile] = None
    left: Optional[ChildView] = None
    right: Optional[ChildView] = None
    shared_attributes: Tuple[str, ...] = ()
    metrics: Any = NULL_METRICS

    @property
    def is_join(self) -> bool:
        return self.left is not None and self.right is not None


@dataclass(frozen=True)
class BoundCandidate:
    """One method's answer: a sound bound, optionally a tighter estimate.

    ``value`` is deterministically sound.  ``estimate``, when present, is
    an estimate-grade refinement (e.g. KMV-paired tail counts) that the
    planner may use to calibrate expectations but never as a bound.
    """

    method: str
    value: float
    estimate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigurationError(f"bound values are non-negative, got {self.value}")


@dataclass(frozen=True)
class BoundDecision:
    """The winning bound plus every candidate."""

    value: float
    method: str
    candidates: Tuple[BoundCandidate, ...]

    @property
    def estimate(self) -> float:
        """The tightest estimate-grade value across candidates (≤ value)."""
        best = self.value
        for candidate in self.candidates:
            if candidate.estimate is not None and candidate.estimate < best:
                best = candidate.estimate
        return best

    def candidate(self, method: str) -> Optional[BoundCandidate]:
        for candidate in self.candidates:
            if candidate.method == method:
                return candidate
        return None


def size_bound(context: BoundContext) -> BoundDecision:
    """The least sound bound for ``context``, with every candidate.

    AGM always applies, so there is always a winner.  In join contexts it
    is clamped by the children's cross product and labelled
    ``model-domain`` when no profile backs the row counts.
    """
    agm = agm_bound(context.query, context.row_counts, context.metrics)
    agm_method = METHOD_AGM
    candidates: List[BoundCandidate] = []
    top_k: Optional[BoundCandidate] = None
    if context.is_join:
        agm = min(agm, context.left.rows * context.right.rows)
        if context.profile is None:
            agm_method = METHOD_DOMAIN
        histogram = _histogram_bound(context)
        if histogram is not None:
            candidates.append(BoundCandidate(method=METHOD_HISTOGRAM, value=histogram))
        chain = _join_chain(context)
        top_k = _top_k_candidate(context)
    else:
        chain = _query_chain(context)
    candidates.append(BoundCandidate(method=agm_method, value=agm))
    if chain is not None:
        candidates.append(BoundCandidate(method=METHOD_DEGREE, value=min(chain, agm)))
    if top_k is not None:
        candidates.append(top_k)
    # ``min`` keeps the first of equal values: ties go to the earlier method.
    winner = min(candidates, key=lambda candidate: candidate.value)
    metrics = context.metrics
    if metrics is not None and metrics.enabled:
        metrics.counter("bounds_evaluations_total", "Size-bound evaluations.").inc()
        metrics.counter(
            "bounds_method_wins_total", "Winning size-bound method."
        ).inc(method=winner.method)
    return BoundDecision(
        value=winner.value, method=winner.method, candidates=tuple(candidates)
    )


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


# ----------------------------------------------------------------------
# Per-value histogram
# ----------------------------------------------------------------------
def _histogram_bound(context: BoundContext) -> Optional[float]:
    """Per-value sums over sound histograms — the exact-profile workhorse."""
    left, right = context.left, context.right
    if left.sound_histograms is None or right.sound_histograms is None:
        return None
    sound_shared = [
        attribute
        for attribute in context.shared_attributes
        if attribute in left.sound_histograms and attribute in right.sound_histograms
    ]
    if not sound_shared:
        return None
    return min(
        per_value_sum(
            left.sound_histograms[attribute], right.sound_histograms[attribute]
        )
        for attribute in sound_shared
    )


# ----------------------------------------------------------------------
# Degree constraints
# ----------------------------------------------------------------------
# A degree cap ``cap_R(a)`` bounds how many ``R``-rows any single value of
# ``a`` can match, so ``|L ⋈ R| ≤ |L| · min_{a shared} cap_R(a)`` (and
# symmetrically).  For whole queries the same step composes along an
# ordering of the relations — the chain instantiation of the Abo
# Khamis–Ngo–Suciu polymatroid bound.  Caps are deterministic in both
# profile modes (``max_degree`` is collected exactly even for sampled
# profiles).
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


def _query_chain(context: BoundContext) -> Optional[float]:
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
    for ordering in _orderings(relations, context.row_counts, caps):
        bound = _chain_value(ordering, context.row_counts, caps)
        if best is None or bound < best:
            best = bound
    return best


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


def _orderings(relations, row_counts, caps):
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


# ----------------------------------------------------------------------
# Top-k frequency pairing
# ----------------------------------------------------------------------
# Per shared attribute, both sides' top frequencies (exact histogram heads,
# or Misra–Gries deterministic uppers clamped by ``max_degree``) are sorted
# descending and paired positionally; the rearrangement inequality makes
# the aligned product sum dominate the true common-value matching.  Tail
# mass is capped by the first frequency *not* in the head (exact) or the
# Misra–Gries error bound (sampled), with the exact distinct count
# tightening the tail deterministically and the KMV distinct estimate
# feeding only the estimate-grade ``estimate`` field.
class _FrequencyView(NamedTuple):
    """One column's sorted frequency-upper-bound vector plus tail caps."""

    uppers: List[float]
    lowers: List[float]
    total: float
    tail_cap: float
    tail_count: Optional[float]
    tail_count_estimate: Optional[float]


def _top_k_candidate(context: BoundContext) -> Optional[BoundCandidate]:
    best: Optional[float] = None
    best_estimate: Optional[float] = None
    for attribute in context.shared_attributes:
        left_view = _frequency_view(context.left, attribute)
        right_view = _frequency_view(context.right, attribute)
        if left_view is None or right_view is None:
            continue
        value, estimate = _paired_bound(left_view, right_view)
        if best is None or value < best:
            best = value
        if best_estimate is None or estimate < best_estimate:
            best_estimate = estimate
    if best is None:
        return None
    return BoundCandidate(
        method=METHOD_TOPK, value=best, estimate=min(best_estimate, best)
    )


def _frequency_view(child: ChildView, attribute: str) -> Optional[_FrequencyView]:
    if child.attribute_profiles is None:
        return None
    stats: Optional[AttributeProfile] = child.attribute_profiles.get(attribute)
    if stats is None:
        return None
    if stats.exact:
        counts = sorted(stats.histogram.values(), reverse=True)
        head = [float(count) for count in counts[:TOP_K_HEAD]]
        tail_count = float(max(0, len(counts) - TOP_K_HEAD))
        return _FrequencyView(
            uppers=head,
            lowers=head,
            total=float(stats.total_count),
            tail_cap=float(counts[TOP_K_HEAD]) if len(counts) > TOP_K_HEAD else 0.0,
            tail_count=tail_count,
            tail_count_estimate=tail_count,
        )
    if not stats.heavy_hitters:
        return None
    cap = float(stats.degree_cap)
    error = float(stats.heavy_hitter_error)
    pairs = sorted(stats.heavy_hitters.values(), reverse=True)
    uppers = [min(float(low) + error, cap) for low in pairs]
    return _FrequencyView(
        uppers=uppers,
        lowers=[float(low) for low in pairs],
        total=float(stats.total_count),
        tail_cap=min(error, cap),
        tail_count=None,
        tail_count_estimate=max(0.0, stats.distinct_estimate - len(uppers)),
    )


def _paired_bound(
    left: _FrequencyView, right: _FrequencyView
) -> Tuple[float, float]:
    head = min(len(left.uppers), len(right.uppers))
    head_sum = sum(left.uppers[i] * right.uppers[i] for i in range(head))
    left_rem = max(0.0, left.total - sum(left.lowers[:head]))
    right_rem = max(0.0, right.total - sum(right.lowers[:head]))
    left_cap = left.uppers[head] if head < len(left.uppers) else left.tail_cap
    right_cap = right.uppers[head] if head < len(right.uppers) else right.tail_cap
    tail_terms = [left_rem * right_cap, right_rem * left_cap]
    if left.tail_count is not None and right.tail_count is not None:
        left_beyond = left.tail_count + max(0, len(left.uppers) - head)
        right_beyond = right.tail_count + max(0, len(right.uppers) - head)
        tail_terms.append(left_cap * right_cap * min(left_beyond, right_beyond))
    tail = max(0.0, min(tail_terms))
    value = head_sum + tail
    estimate = value
    if left.tail_count_estimate is not None and right.tail_count_estimate is not None:
        estimated_tail = (
            left_cap * right_cap * min(left.tail_count_estimate, right.tail_count_estimate)
        )
        estimate = head_sum + max(0.0, min(tail, estimated_tail, *tail_terms))
    return value, estimate
