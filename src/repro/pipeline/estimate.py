"""Intermediate-cardinality bounds and synthetic profiles for cascades.

A cascade planner must price round *k+1* before round *k* has produced a
single record, so it needs two things about every intermediate result:

* an **upper bound on its size** — the records round *k+1* will have to
  ship; and
* a **profile** of its columns — so the downstream round can reuse the
  existing certification stack (:func:`~repro.planner.certify.
  certify_max_reducer_load`, :func:`~repro.planner.share_opt.
  optimize_shares`) unchanged.

Size bounds come from :func:`repro.bounds.size_bound`: the AGM bound
computed once as the ceiling, each applicable refinement offered under
it, the minimum winning, and the decision recording which method produced
it.  The candidates are:

1. **per-value histogram bounds** — with exact histograms on both join
   sides, ``|L ⋈ R| ≤ min_{s ∈ shared} Σ_v cnt_L(s=v) · cnt_R(s=v)``;
   exact (not just a bound) when exactly one attribute is shared, since
   distinct tuple pairs produce distinct outputs;
2. **AGM bounds** — ``Π_e |R_e|^{x_e}`` over the subtree's induced
   sub-query with the optimal fractional edge cover weights ``x`` (Atserias
   –Grohe–Marx; the output-size bounds Abo Khamis–Ngo–Suciu build on),
   needing only row counts, so it also covers sampled profiles — labelled
   ``model-domain`` when no profile covers the query (the paper's
   full-domain ``n^arity`` accounting);
3. **degree-constraint chain bounds** — from exact ``max_degree`` caps and
   functional dependencies, ≤ AGM whenever they apply;
4. **top-k frequency bounds** — UES-style positional pairing of the
   columns' top frequency vectors (deterministic Misra–Gries uppers on
   sampled profiles; KMV refinements feed only the calibrated estimate).

Synthetic profiles mix two fidelities, deliberately.  The **join columns**
(attributes shared by the two inputs) get sound per-value upper bounds —
``cnt_T(s=v) ≤ cnt_L(s=v)·cnt_R(s=v)``, exact for a single shared
attribute — because those are where skew concentrates and where a
downstream certificate must not be fooled.  The **carried columns**
(attributes from one side only) get *calibrated projections*: each input
row is assumed to fan out by the mean multiplicity ``size_bound / |side|``,
so the projected histogram's mass matches the size bound instead of being
inflated by the worst-case per-row fan-out (marginal histograms admit
adversarial instances where every row of one value joins the heaviest key,
so a sound marginal-only column bound is necessarily ``cnt · max-degree``
— uselessly loose for planning).  Rounds certified against a projected
profile are therefore flagged ``projected``: their certificates are
planning estimates, and the adaptive executor re-certifies every such
round against the *observed* intermediate (fingerprint-keyed) before
running it — re-planning mid-flight when the estimate is beaten or
violated — so every certificate that reaches execution is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

from repro.bounds import (
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    BoundContext,
    ChildView,
    per_value_sum,
    size_bound,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import NULL_METRICS
from repro.pipeline.logical import BinaryJoinOp, LogicalOp, RelationLeaf
from repro.problems.joins import JoinQuery
from repro.stats.profile import AttributeProfile, DatasetProfile, RelationProfile

def approximate_histogram(stats: AttributeProfile) -> Dict[Hashable, float]:
    """A calibrated value → count map for an attribute of any fidelity.

    Exact attributes return their histogram verbatim.  Sampled attributes
    are reconstructed from what the sketches know: Misra–Gries heavy
    hitters keep their guaranteed lower-bound counts, and the remaining
    mass is spread evenly over the reservoir's other distinct values (the
    best available proxy for the value population).  The result is an
    *estimate* — the projected profiles built from it are flagged and
    re-checked against observation by the adaptive executor.
    """
    if stats.exact:
        return {value: float(count) for value, count in stats.histogram.items()}
    histogram: Dict[Hashable, float] = {
        value: float(count) for value, count in stats.heavy_hitters.items()
    }
    remaining = float(stats.total_count) - sum(histogram.values())
    others = [value for value in dict.fromkeys(stats.sample) if value not in histogram]
    if others and remaining > 0:
        each = remaining / len(others)
        for value in others:
            histogram[value] = each
    elif remaining > 0 and histogram:
        # No reservoir beyond the heavy hitters: scale them up to the mass.
        scale = float(stats.total_count) / sum(histogram.values())
        histogram = {value: count * scale for value, count in histogram.items()}
    return histogram


@dataclass(frozen=True)
class IntermediateEstimate:
    """Everything the planner knows about one not-yet-materialized result.

    ``size_bound`` is a *sound* upper bound on the row count (per-value
    histogram sums when exact, AGM otherwise) — the quantity the
    estimation property tests hold against observation.  ``size_estimate``
    is the *calibrated* expectation used for pricing and synthetic-profile
    mass (equal to the bound when inputs are exactly profiled, never above
    it).  ``method`` names the bound that won; ``exact_inputs`` records
    whether every histogram feeding it was exact; ``profile`` is the
    synthetic relation profile for downstream planning (``None`` only when
    an input carries no profile at all).
    """

    name: str
    size_bound: float
    method: str
    exact_inputs: bool
    size_estimate: float = 0.0
    profile: Optional[RelationProfile] = None
    #: True when ``profile`` is a synthetic projection (an intermediate);
    #: certificates computed from it are planning estimates, not bounds.
    projected: bool = False
    #: Per-attribute value → count maps that are *sound upper bounds* on
    #: the result's true histograms: every attribute for an exactly
    #: profiled base relation, only the join columns for an intermediate
    #: (carried columns have no sound marginal-only bound worth using).
    #: ``None`` when nothing sound is known.  These — never the projected
    #: profile — feed the next level's per-value size bound.
    sound_histograms: Optional[Dict[str, Dict[Hashable, float]]] = None
    #: Per-attribute *sound* caps on any single value's multiplicity in the
    #: result (exact ``max_degree`` for profiled leaves, composed caps for
    #: intermediates).  The degree-constraint bound's raw material; ``None``
    #: when no caps are known.
    degree_caps: Optional[Dict[str, float]] = None


class SizeEstimator:
    """Estimates every node of a cascade over one (possibly profiled) query.

    Estimates are memoized per node schema name, so shared subtrees across
    the enumerated cascades (e.g. ``(R1*R2)`` inside every left-deep tree
    that starts with it) are estimated once per planning call.
    """

    def __init__(
        self,
        query: JoinQuery,
        domain_size: int,
        profile: Optional[DatasetProfile] = None,
        metrics: Any = NULL_METRICS,
    ) -> None:
        if domain_size <= 0:
            raise ConfigurationError(f"domain size must be positive, got {domain_size}")
        self.query = query
        self.domain_size = domain_size
        names = [relation.name for relation in query.relations]
        self.profile = (
            profile if profile is not None and profile.covers(names) else None
        )
        self.metrics = metrics
        self._estimates: Dict[str, IntermediateEstimate] = {}

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def leaf_rows(self, relation_name: str) -> float:
        """Row count of a base relation: profiled, else the model's n^arity."""
        if self.profile is not None:
            return float(self.profile.relation(relation_name).total_rows)
        relation = self.query.relation(relation_name)
        return float(self.domain_size**relation.arity)

    def _leaf_profile(self, relation_name: str) -> Optional[RelationProfile]:
        if self.profile is None:
            return None
        return self.profile.relation(relation_name)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def estimate(self, op: LogicalOp) -> IntermediateEstimate:
        """Size bound + synthetic profile for a logical operator's result."""
        if isinstance(op, RelationLeaf):
            # Leaves are memoized too: planning one query touches each
            # leaf several times per enumerated tree, and the sound-
            # histogram copy of a large exact profile is not free.
            cached = self._estimates.get(op.relation.name)
            if cached is not None:
                return cached
            profile = self._leaf_profile(op.relation.name)
            rows = self.leaf_rows(op.relation.name)
            sound: Optional[Dict[str, Dict[Hashable, float]]] = None
            if profile is not None and profile.exact:
                sound = {
                    attribute: {
                        value: float(count)
                        for value, count in profile.attribute(attribute).histogram.items()
                    }
                    for attribute in op.relation.attributes
                }
            caps: Optional[Dict[str, float]] = None
            if profile is not None:
                caps = {
                    attribute: float(profile.attribute(attribute).degree_cap)
                    for attribute in op.relation.attributes
                }
            leaf = IntermediateEstimate(
                name=op.relation.name,
                size_bound=rows,
                method=METHOD_HISTOGRAM if profile is not None else METHOD_DOMAIN,
                exact_inputs=profile is not None and profile.exact,
                size_estimate=rows,
                profile=profile,
                sound_histograms=sound,
                degree_caps=caps,
            )
            self._estimates[op.relation.name] = leaf
            return leaf
        if not isinstance(op, BinaryJoinOp):
            raise ConfigurationError(
                f"size estimation covers join cascades; got {type(op).__name__}"
            )
        key = op.schema.name
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        estimate = self._join_estimate(op, left, right)
        self._estimates[key] = estimate
        return estimate

    def round_input_records(self, op: BinaryJoinOp) -> float:
        """Records entering the op's round: both children, fully shipped."""
        return (
            self.estimate(op.left).size_estimate
            + self.estimate(op.right).size_estimate
        )

    def round_profile(self, op: BinaryJoinOp) -> Optional[DatasetProfile]:
        """Dataset profile for the op's two-relation round query.

        Present only when both children carry (actual or synthetic) exact
        profiles; the downstream round is then certified through exactly
        the same per-bucket path as a base-table join.
        """
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        if left.profile is None or right.profile is None:
            return None
        return DatasetProfile(
            relations={left.name: left.profile, right.name: right.profile}
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _child_view(estimate: IntermediateEstimate) -> ChildView:
        collected = estimate.profile is not None and not estimate.projected
        return ChildView(
            name=estimate.name,
            rows=estimate.size_bound,
            sound_histograms=estimate.sound_histograms,
            degree_caps=estimate.degree_caps,
            attribute_profiles=(
                estimate.profile.attributes if collected else None
            ),
        )

    def query_output_bound(self) -> Tuple[float, str]:
        """Sound output bound for the whole query, with the winning method.

        The one-round planner prices its single round with this — the same
        :func:`~repro.bounds.size_bound` the cascade nodes go through,
        evaluated over the full query instead of a subtree.
        """
        row_counts = {
            relation.name: self.leaf_rows(relation.name)
            for relation in self.query.relations
        }
        decision = size_bound(
            BoundContext(
                query=self.query,
                row_counts=row_counts,
                profile=self.profile,
                metrics=self.metrics,
            )
        )
        return decision.value, decision.method

    def _join_estimate(
        self,
        op: BinaryJoinOp,
        left: IntermediateEstimate,
        right: IntermediateEstimate,
    ) -> IntermediateEstimate:
        shared = op.shared_attributes
        # Every applicable bound, minimum wins — AGM over the
        # subtree's induced sub-query (clamped by the children's cross
        # product), per-value sums over sound histograms, degree-constraint
        # chains, top-k frequency pairings.
        induced = self.query.induced(sorted(set(op.base_relations)))
        row_counts = {name: self.leaf_rows(name) for name in set(op.base_relations)}
        decision = size_bound(
            BoundContext(
                query=induced,
                row_counts=row_counts,
                profile=self.profile,
                left=self._child_view(left),
                right=self._child_view(right),
                shared_attributes=shared,
                metrics=self.metrics,
            )
        )
        size = decision.value
        method = decision.method
        exact_inputs = (
            left.exact_inputs
            and right.exact_inputs
            and left.profile is not None
            and right.profile is not None
        )
        # The calibrated estimate: per-value sums over the approximate
        # histograms (exact inputs make this coincide with the bound for a
        # single shared attribute), clamped by the sound bound and by any
        # estimate-grade refinement a candidate offered (e.g. the top-k
        # pairing's KMV-paired tail).
        estimate = min(size, decision.estimate)
        profile = None
        if left.profile is not None and right.profile is not None:
            left_hists = self._histograms(left.profile, op.left.schema.attributes)
            right_hists = self._histograms(right.profile, op.right.schema.attributes)
            approx = self._approximate_join_size(left_hists, right_hists, shared)
            if approx is not None:
                estimate = min(approx, estimate)
            profile = self._synthetic_profile(
                op,
                left_hists,
                right_hists,
                left_rows=left.size_estimate,
                right_rows=right.size_estimate,
                size_estimate=estimate,
                size_bound=size,
            )
        # Sound histograms of the result: only the join columns — per-value
        # products of the children's sound histograms, capped at the sound
        # size bound (the true count never exceeds the true total).
        sound: Optional[Dict[str, Dict[Hashable, float]]] = None
        if left.sound_histograms is not None and right.sound_histograms is not None:
            sound = {}
            for attribute in shared:
                if (
                    attribute not in left.sound_histograms
                    or attribute not in right.sound_histograms
                ):
                    continue
                combined: Dict[Hashable, float] = {}
                right_hist = right.sound_histograms[attribute]
                for value, count in left.sound_histograms[attribute].items():
                    other = right_hist.get(value)
                    if other:
                        combined[value] = min(count * other, size)
                sound[attribute] = combined
            if not sound:
                sound = None
        caps = self._result_degree_caps(op, left, right, size, sound)
        return IntermediateEstimate(
            name=op.schema.name,
            size_bound=size,
            method=method,
            exact_inputs=exact_inputs,
            size_estimate=estimate,
            profile=profile,
            projected=profile is not None,
            sound_histograms=sound,
            degree_caps=caps,
        )

    @staticmethod
    def _result_degree_caps(
        op: BinaryJoinOp,
        left: IntermediateEstimate,
        right: IntermediateEstimate,
        size_bound: float,
        sound: Optional[Dict[str, Dict[Hashable, float]]],
    ) -> Optional[Dict[str, float]]:
        """Sound per-value multiplicity caps for the join's columns.

        For a shared attribute ``a``: ``cap_T(a) ≤ cap_L(a)·cap_R(a)``
        (each matching pair multiplies).  For an attribute carried from one
        side: every row of that side with ``a = v`` joins at most
        ``min_{s shared} cap_other(s)`` rows of the other side, so
        ``cap_T(a) ≤ cap_own(a) · min_s cap_other(s)`` (the other side's
        full row bound for a cross join).  Everything is clamped by the
        size bound and, where a sound result histogram exists, by its
        largest per-value product.
        """
        left_caps = left.degree_caps
        right_caps = right.degree_caps
        if left_caps is None and right_caps is None:
            return None
        shared = set(op.shared_attributes)

        def side_cap(caps: Optional[Dict[str, float]], rows: float) -> float:
            # How many rows of this side any single other-side row matches.
            if caps is None:
                return rows
            connecting = [caps[a] for a in shared if a in caps]
            return min(connecting + [rows])

        left_fanout = side_cap(left_caps, left.size_bound)
        right_fanout = side_cap(right_caps, right.size_bound)
        result: Dict[str, float] = {}
        for attribute in op.schema.attributes:
            in_left = attribute in op.left.schema.attributes
            in_right = attribute in op.right.schema.attributes
            if in_left and in_right:
                left_cap = (left_caps or {}).get(attribute, left.size_bound)
                right_cap = (right_caps or {}).get(attribute, right.size_bound)
                cap = left_cap * right_cap
            elif in_left:
                cap = (left_caps or {}).get(attribute, left.size_bound) * right_fanout
            else:
                cap = (right_caps or {}).get(attribute, right.size_bound) * left_fanout
            cap = min(cap, size_bound)
            if sound is not None and attribute in sound and sound[attribute]:
                cap = min(cap, max(sound[attribute].values()))
            result[attribute] = cap
        return result

    @staticmethod
    def _histograms(
        profile: RelationProfile, attributes: Tuple[str, ...]
    ) -> Dict[str, Dict[Hashable, float]]:
        return {
            attribute: approximate_histogram(profile.attribute(attribute))
            for attribute in attributes
        }

    @staticmethod
    def _approximate_join_size(
        left_hists: Mapping[str, Mapping[Hashable, float]],
        right_hists: Mapping[str, Mapping[Hashable, float]],
        shared_attributes: Tuple[str, ...],
    ) -> Optional[float]:
        """``min_s Σ_v ĉ_L(s=v)·ĉ_R(s=v)`` over the approximate histograms."""
        best: Optional[float] = None
        for attribute in shared_attributes:
            total = per_value_sum(left_hists[attribute], right_hists[attribute])
            best = total if best is None else min(best, total)
        return best

    def _synthetic_profile(
        self,
        op: BinaryJoinOp,
        left_hists: Mapping[str, Mapping[Hashable, float]],
        right_hists: Mapping[str, Mapping[Hashable, float]],
        left_rows: float,
        right_rows: float,
        size_estimate: float,
        size_bound: float,
    ) -> RelationProfile:
        """Exact-mode projected profile of the join ``T = L ⋈ R``.

        Per value ``v`` of attribute ``a`` of the result:

        * ``a`` shared: ``ĉ_L(a=v) · ĉ_R(a=v)`` — with exact inputs this is
          a sound per-value upper bound (pairs matching on *all* shared
          attributes are a subset of pairs matching on ``a``), and the
          exact count when a single attribute is shared.  Join columns are
          where skew lives, so they keep the full per-value shape.
        * ``a`` carried from one side: the side's histogram scaled by the
          mean fan-out ``size_estimate / |side|`` — a calibrated projection
          whose total mass matches the size estimate.  (A sound
          marginal-only bound would be ``count · max-degree`` of the other
          side, which inflates every carried column by the worst heavy
          hitter and makes tightly-budgeted cascade rounds spuriously
          infeasible; the adaptive executor's observed-profile
          re-certification is the sound check that replaces it.)
        """
        shared = set(op.shared_attributes)
        cap = max(1, math.ceil(size_bound))
        left_fanout = size_estimate / left_rows if left_rows else 0.0
        right_fanout = size_estimate / right_rows if right_rows else 0.0
        attributes: Dict[str, AttributeProfile] = {}
        for attribute in op.schema.attributes:
            histogram: Dict[Hashable, int] = {}
            if attribute in shared:
                left_hist = left_hists[attribute]
                right_hist = right_hists[attribute]
                for value, count in left_hist.items():
                    other = right_hist.get(value)
                    if other:
                        scaled = math.ceil(count * other)
                        histogram[value] = min(scaled, cap)
            elif attribute in left_hists:
                for value, count in left_hists[attribute].items():
                    scaled = math.ceil(count * left_fanout)
                    if scaled:
                        histogram[value] = min(scaled, cap)
            else:
                for value, count in right_hists[attribute].items():
                    scaled = math.ceil(count * right_fanout)
                    if scaled:
                        histogram[value] = min(scaled, cap)
            attributes[attribute] = AttributeProfile(
                attribute=attribute,
                total_count=int(sum(histogram.values())),
                distinct_estimate=float(len(histogram)),
                histogram=histogram,
            )
        return RelationProfile(
            name=op.schema.name,
            total_rows=max(1, math.ceil(size_estimate)),
            attributes=attributes,
        )
