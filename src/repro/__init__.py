"""repro — reproduction of "Upper and Lower Bounds on the Cost of a Map-Reduce Computation".

Afrati, Das Sarma, Salihoglu, Ullman (VLDB 2013 / arXiv:1206.4377).

The package is organized as follows:

* :mod:`repro.core` — the input/output problem model, mapping schemas, the
  generic lower-bound recipe and the cluster cost model;
* :mod:`repro.mapreduce` — the simulated single/multi-round map-reduce
  engine on which schemas execute and are measured;
* :mod:`repro.problems` — concrete problems (Hamming distance, triangles,
  sample graphs, 2-paths, joins, matrix multiplication, word count,
  grouping), each the home of its g(q) and closed-form lower bounds, plus
  sparse-data scaling;
* :mod:`repro.schemas` — the constructive algorithms and Table 2's upper
  bounds;
* :mod:`repro.bounds` — exact fractional edge covers and the planner's
  one join size bound, ``size_bound``;
* :mod:`repro.planner` — the cost-based planner that enumerates registered
  schema families, prices them with the cluster cost model, and returns
  ranked executable plans;
* :mod:`repro.pipeline` — the multi-round pipeline planner: cascade
  enumeration, intermediate-size bounds, and adaptive mid-flight
  re-planning on top of the single-round planner;
* :mod:`repro.reports` — Tables 1–2 and the headline figures as text;
* :mod:`repro.datagen` — synthetic workload generators;
* :mod:`repro.obs` — span tracing, metrics and telemetry exporters
  (Chrome trace / Prometheus text / latency breakdowns).
"""

from repro.core import (
    ClusterCostModel,
    ExplicitProblem,
    MappingSchema,
    Problem,
    SchemaFamily,
)
from repro.exceptions import (
    BoundDerivationError,
    ConfigurationError,
    ExecutionError,
    PlanningError,
    ProblemDomainError,
    ReducerCapacityExceededError,
    ReproError,
    SchemaViolationError,
    UncoveredOutputError,
)
from repro.mapreduce import ClusterConfig, JobChain, MapReduceEngine, MapReduceJob
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    chrome_trace,
    latency_breakdown,
    prometheus_text,
    write_chrome_trace,
)
from repro.pipeline import PipelinePlan, PipelinePlanner, PipelineRunResult
from repro.planner import CostBasedPlanner, ExecutionPlan, PlanningResult

__version__ = "1.0.0"

__all__ = [
    "BoundDerivationError",
    "ClusterConfig",
    "ClusterCostModel",
    "ConfigurationError",
    "CostBasedPlanner",
    "ExecutionError",
    "ExecutionPlan",
    "ExplicitProblem",
    "JobChain",
    "MapReduceEngine",
    "MetricsRegistry",
    "Observability",
    "PipelinePlan",
    "PipelinePlanner",
    "PipelineRunResult",
    "MapReduceJob",
    "MappingSchema",
    "PlanningError",
    "PlanningResult",
    "Problem",
    "ProblemDomainError",
    "ReducerCapacityExceededError",
    "ReproError",
    "SchemaFamily",
    "SchemaViolationError",
    "Tracer",
    "UncoveredOutputError",
    "__version__",
    "chrome_trace",
    "latency_breakdown",
    "prometheus_text",
    "write_chrome_trace",
]
