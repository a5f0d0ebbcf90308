"""Cost-based planning over pluggable schema families.

This subpackage is the selection layer between the model
(:mod:`repro.core`), the constructive algorithms (:mod:`repro.schemas`) and
the execution substrate (:mod:`repro.mapreduce`).  Instead of hand-picking
a schema family and a reducer size, call sites ask the
:class:`CostBasedPlanner` for a ranked list of executable
:class:`ExecutionPlan` objects:

    >>> from repro.planner import CostBasedPlanner
    >>> from repro.problems import TriangleProblem
    >>> plans = CostBasedPlanner.min_replication().plan(TriangleProblem(40), q=200)
    >>> result = plans.best.execute(edges)            # doctest: +SKIP

New problem families plug in by registering a candidate builder on
:data:`default_registry` (see :mod:`repro.planner.registry`); the built-in
builders covering every family of the paper live in
:mod:`repro.planner.builtins` and are loaded with this package.
"""

from repro.planner.cache import CacheStats, SchemaCache, default_schema_cache
from repro.planner.certify import (
    Certification,
    CertificationKind,
    ProfileWeightOracle,
    certify_max_reducer_load,
    certify_sample_graph_load,
    exact_certification,
    high_probability_certification,
)
from repro.planner.plan import (
    ExecutionPlan,
    PlanningResult,
    SweepPoint,
    SweepResult,
)
from repro.planner.planner import CostBasedPlanner
from repro.planner.registry import (
    PlanCandidate,
    SchemaRegistry,
    default_registry,
    thin_parameter_sweep,
)
from repro.planner.share_opt import (
    ShareOptimization,
    optimize_shares,
    repair_shares,
)

# Populate the default registry with the paper's schema families.
from repro.planner import builtins as _builtins  # noqa: E402,F401  (side effect)

__all__ = [
    "CacheStats",
    "Certification",
    "CertificationKind",
    "CostBasedPlanner",
    "ExecutionPlan",
    "PlanCandidate",
    "PlanningResult",
    "ProfileWeightOracle",
    "SchemaCache",
    "SchemaRegistry",
    "ShareOptimization",
    "SweepPoint",
    "SweepResult",
    "certify_max_reducer_load",
    "certify_sample_graph_load",
    "default_registry",
    "default_schema_cache",
    "exact_certification",
    "high_probability_certification",
    "optimize_shares",
    "repair_shares",
    "thin_parameter_sweep",
]
