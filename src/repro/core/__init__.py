"""Core model: problems, mapping schemas, the lower-bound recipe, costs.

This subpackage implements the paper's primary contribution — the
input/output model of single-round map-reduce computations, mapping schemas
with their two constraints, the replication rate, the generic lower-bound
recipe of Section 2.4 (:meth:`Problem.replication_lower_bound`), and the
Section 1.2 cluster cost model.
"""

from repro.core.cost import ClusterCostModel, CostBreakdown, LoadSummary
from repro.core.mapping_schema import (
    MappingSchema,
    SchemaFamily,
    ValidationReport,
    single_reducer_schema,
)
from repro.core.problem import ExplicitProblem, InputId, OutputId, Problem

__all__ = [
    "ClusterCostModel",
    "CostBreakdown",
    "ExplicitProblem",
    "InputId",
    "LoadSummary",
    "MappingSchema",
    "OutputId",
    "Problem",
    "SchemaFamily",
    "ValidationReport",
    "single_reducer_schema",
]
