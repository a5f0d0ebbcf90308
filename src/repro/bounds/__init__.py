"""Pluggable size/load bound estimation (the planner's bound registry).

Public surface:

* :class:`BoundRegistry` / :data:`default_bound_registry` — the strategy
  registry every planning and certification path routes through.
* The built-in estimators — :class:`PerValueHistogramBound`,
  :class:`AGMBound`, :class:`DegreeConstraintBound`,
  :class:`TopKFrequencyBound`.
* :func:`fractional_edge_cover` (exact, cached per canonical query) and
  :func:`agm_bound`.
"""

from repro.bounds.base import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundCandidate,
    BoundContext,
    BoundDecision,
    BoundEstimator,
    BoundRegistry,
    ChildView,
    default_bound_registry,
)
from repro.bounds.cover import (
    FractionalEdgeCover,
    agm_bound,
    canonical_query_key,
    clear_cover_cache,
    cover_cache_stats,
    fractional_edge_cover,
)
from repro.bounds.estimators import (
    AGMBound,
    DegreeConstraintBound,
    PerValueHistogramBound,
    TopKFrequencyBound,
    per_value_sum,
)

__all__ = [
    "METHOD_AGM",
    "METHOD_DEGREE",
    "METHOD_DOMAIN",
    "METHOD_HISTOGRAM",
    "METHOD_TOPK",
    "AGMBound",
    "BoundCandidate",
    "BoundContext",
    "BoundDecision",
    "BoundEstimator",
    "BoundRegistry",
    "ChildView",
    "DegreeConstraintBound",
    "FractionalEdgeCover",
    "PerValueHistogramBound",
    "TopKFrequencyBound",
    "agm_bound",
    "canonical_query_key",
    "clear_cover_cache",
    "cover_cache_stats",
    "default_bound_registry",
    "fractional_edge_cover",
    "per_value_sum",
]
