"""Constructive mapping schemas: the paper's upper-bound algorithms.

Every schema family can (a) build an explicit, verifiable mapping schema for
small domains, (b) report its closed-form replication rate and reducer size
for arbitrary parameters, and (c) produce an executable map-reduce job for
the simulated engine.
"""

from repro.schemas.hamming_distance_d import BallTwoSchema, SegmentDeletionSchema
from repro.schemas.hamming_splitting import (
    PairReducersSchema,
    SingleReducerSchema,
    SplittingSchema,
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
from repro.schemas.matmul_one_phase import OnePhaseTilingSchema
from repro.schemas.sample_graphs import (
    PartitionSampleGraphSchema,
    degree_balanced_boundaries,
    enumerate_sample_graph_oracle,
)
from repro.schemas.matmul_two_phase import (
    TwoPhaseMatMulAlgorithm,
    communication_crossover_q,
    one_phase_total_communication,
    two_phase_total_communication,
)
from repro.schemas.triangles import PartitionTriangleSchema
from repro.schemas.two_paths import TwoPathSchema

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
    "chain_join_replication_upper_bound",
    "chain_join_shares",
    "communication_crossover_q",
    "degree_balanced_boundaries",
    "enumerate_sample_graph_oracle",
    "one_phase_total_communication",
    "splitting_points",
    "star_join_replication_upper_bound",
    "star_join_shares",
    "two_phase_total_communication",
]
