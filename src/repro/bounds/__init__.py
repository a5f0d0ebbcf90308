"""Join output-size bounds: one :func:`size_bound` over the AGM ceiling.

Public surface:

* :func:`size_bound` — AGM computed once per :class:`BoundContext`, with
  the per-value histogram, degree-constraint and top-k frequency
  refinements under it; returns a :class:`BoundDecision` naming the
  winning method and listing every candidate.
* :func:`fractional_edge_cover` (exact, cached per canonical query) and
  :func:`agm_bound`.
"""

from repro.bounds.cover import (
    FractionalEdgeCover,
    agm_bound,
    canonical_query_key,
    clear_cover_cache,
    cover_cache_stats,
    fractional_edge_cover,
)
from repro.bounds.estimators import (
    METHOD_AGM,
    METHOD_DEGREE,
    METHOD_DOMAIN,
    METHOD_HISTOGRAM,
    METHOD_TOPK,
    BoundCandidate,
    BoundContext,
    BoundDecision,
    ChildView,
    per_value_sum,
    size_bound,
)

__all__ = [
    "METHOD_AGM",
    "METHOD_DEGREE",
    "METHOD_DOMAIN",
    "METHOD_HISTOGRAM",
    "METHOD_TOPK",
    "BoundCandidate",
    "BoundContext",
    "BoundDecision",
    "ChildView",
    "FractionalEdgeCover",
    "agm_bound",
    "canonical_query_key",
    "clear_cover_cache",
    "cover_cache_stats",
    "fractional_edge_cover",
    "per_value_sum",
    "size_bound",
]
