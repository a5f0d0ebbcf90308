"""Dataset statistics: collectors, profiles and the inputs to certification.

The paper's Section 5.5 budgets Shares join candidates by the *expected*
hash-balanced reducer load, which is not a bound on the maximum.  This
subpackage supplies what the planner needs to do better: per-attribute
statistics collected from actual dataset instances (exact and
reservoir-sampled frequency histograms, Misra–Gries heavy-hitter summaries,
distinct-count estimators) assembled into a serializable
:class:`DatasetProfile`.  The certifiers in :mod:`repro.planner.certify`
turn a profile into per-bucket tail bounds on reducer load — exact bounds
from full histograms, Hoeffding high-probability bounds from samples.

The design follows PostBOUND's split between a statistics module and the
optimizer that consumes it: collectors know nothing about schemas or
planning, profiles are plain serializable data, and all certification math
lives on the planner side.
"""

from repro.stats.collectors import (
    ExactHistogram,
    KMVDistinctEstimator,
    MisraGries,
    ReservoirSample,
)
from repro.stats.profile import (
    AttributeProfile,
    DatasetProfile,
    RelationProfile,
    StreamingRelationProfiler,
    profile_bitstrings,
    profile_graph,
    profile_relation,
    profile_relations,
)

__all__ = [
    "AttributeProfile",
    "DatasetProfile",
    "ExactHistogram",
    "KMVDistinctEstimator",
    "MisraGries",
    "RelationProfile",
    "ReservoirSample",
    "StreamingRelationProfiler",
    "profile_bitstrings",
    "profile_graph",
    "profile_relation",
    "profile_relations",
]
