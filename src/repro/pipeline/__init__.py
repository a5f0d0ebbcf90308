"""Multi-round pipeline planning: cascades, size bounds, adaptive re-planning.

The paper's cost model is multi-round — two-phase matrix multiplication
beats one-phase past a communication threshold, and a multiway join can be
one Shares round or a cascade of binary joins — but the single-round
planner only prices one job at a time.  This subpackage closes that gap in
three layers:

* **logical** (:mod:`repro.pipeline.logical`) — operator nodes and the
  enumeration of round structures (one-round vs left-deep/bushy cascades,
  1- vs 2-phase matmul);
* **estimation** (:mod:`repro.pipeline.estimate`) — intermediate-size
  upper bounds from dataset-profile histograms (AGM fallback on row
  counts) and synthetic profiles that let every downstream round reuse the
  existing certification/optimization stack unchanged;
* **adaptive execution** (:mod:`repro.pipeline.execute`) — rounds run on
  the engine one at a time, intermediates are profiled in-stream, and the
  remaining rounds re-planned when the observed certificate beats or
  violates the planning-time estimate.

Entry point::

    result = PipelinePlanner().plan(problem, q=budget, profile=profile)
    run = result.best.execute(records)           # adaptive by default
"""

from repro.pipeline.estimate import (
    IntermediateEstimate,
    SizeEstimator,
    approximate_histogram,
)
from repro.pipeline.execute import (
    ExecutedRound,
    PipelineRunResult,
    ReplanEvent,
    RoundOutcome,
    RoundWork,
    drive_rounds,
    execute_pipeline,
    pipeline_rounds,
)
from repro.pipeline.logical import (
    AggregateOp,
    BinaryJoinOp,
    LogicalOp,
    MatMulRoundOp,
    MultiwayJoinOp,
    RelationLeaf,
    enumerate_join_trees,
)
from repro.pipeline.planner import (
    PipelinePlan,
    PipelinePlanner,
    PipelinePlanningResult,
    PipelineRound,
    replan_round,
)

__all__ = [
    "AggregateOp",
    "BinaryJoinOp",
    "ExecutedRound",
    "IntermediateEstimate",
    "LogicalOp",
    "MatMulRoundOp",
    "MultiwayJoinOp",
    "PipelinePlan",
    "PipelinePlanner",
    "PipelinePlanningResult",
    "PipelineRound",
    "PipelineRunResult",
    "RelationLeaf",
    "ReplanEvent",
    "RoundOutcome",
    "RoundWork",
    "SizeEstimator",
    "approximate_histogram",
    "drive_rounds",
    "enumerate_join_trees",
    "execute_pipeline",
    "pipeline_rounds",
    "replan_round",
]
