"""Constructive mapping schemas: the paper's upper-bound algorithms.

Every schema family can (a) build an explicit, verifiable mapping schema for
small domains, (b) report its closed-form replication rate and reducer size
for arbitrary parameters, and (c) produce an executable map-reduce job for
the simulated engine.  Table 2's closed-form upper bounds on r sit next to
the schema that reaches them.
"""

from repro.schemas.hamming_distance_d import BallTwoSchema, SegmentDeletionSchema
from repro.schemas.hamming_splitting import (
    PairReducersSchema,
    SingleReducerSchema,
    SplittingSchema,
    hamming1_achievable_upper_bound,
    hamming1_upper_bound,
    splitting_points,
)
from repro.schemas.hamming_weight import HypercubeWeightSchema, WeightPartitionSchema
from repro.schemas.join_shares import (
    SharesSchema,
    SkewAwareSharesSchema,
    chain_join_replication_upper_bound,
    chain_join_shares,
    star_join_replication_upper_bound,
    star_join_shares,
)
from repro.schemas.matmul_one_phase import OnePhaseTilingSchema, matmul_upper_bound
from repro.schemas.sample_graphs import (
    PartitionSampleGraphSchema,
    alon_upper_bound_edges,
    degree_balanced_boundaries,
    enumerate_sample_graph_oracle,
)
from repro.schemas.matmul_two_phase import (
    TwoPhaseMatMulAlgorithm,
    communication_crossover_q,
    one_phase_total_communication,
    two_phase_total_communication,
)
from repro.schemas.triangles import PartitionTriangleSchema, triangle_upper_bound
from repro.schemas.two_paths import TwoPathSchema, two_path_upper_bound

__all__ = [
    "BallTwoSchema",
    "HypercubeWeightSchema",
    "OnePhaseTilingSchema",
    "PairReducersSchema",
    "PartitionSampleGraphSchema",
    "PartitionTriangleSchema",
    "SegmentDeletionSchema",
    "SharesSchema",
    "SingleReducerSchema",
    "SkewAwareSharesSchema",
    "SplittingSchema",
    "TwoPathSchema",
    "TwoPhaseMatMulAlgorithm",
    "WeightPartitionSchema",
    "alon_upper_bound_edges",
    "chain_join_replication_upper_bound",
    "chain_join_shares",
    "communication_crossover_q",
    "degree_balanced_boundaries",
    "enumerate_sample_graph_oracle",
    "hamming1_achievable_upper_bound",
    "hamming1_upper_bound",
    "matmul_upper_bound",
    "one_phase_total_communication",
    "splitting_points",
    "star_join_replication_upper_bound",
    "star_join_shares",
    "triangle_upper_bound",
    "two_path_upper_bound",
    "two_phase_total_communication",
]
