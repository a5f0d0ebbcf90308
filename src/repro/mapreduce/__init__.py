"""Simulated single- and multi-round MapReduce substrate.

This subpackage replaces the Hadoop cluster the paper assumes.  It executes
map-reduce jobs in memory, deterministically, while measuring exactly the
quantities the paper analyses: communication cost (key-value pairs shipped
from mappers to reducers), replication rate, and the distribution of reducer
input sizes.
"""

from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.columnar import (
    BatchEncodingError,
    BatchKernel,
    ColumnBatch,
    EncodedRun,
    SpilledRows,
    numpy_available,
)
from repro.mapreduce.engine import JobResult, MapReduceEngine, PipelineResult
from repro.mapreduce.job import (
    JobChain,
    MapReduceJob,
    collecting_reducer,
    identity_reducer,
    make_filtering_mapper,
)
from repro.mapreduce.metrics import (
    JobMetrics,
    PhaseTimings,
    PipelineMetrics,
    ShuffleStats,
    WorkerStats,
)
from repro.mapreduce.partitioner import (
    GreedyLoadBalancingPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    stable_hash,
)
from repro.mapreduce.shuffle import (
    InMemoryShuffle,
    PartitionedShuffle,
    ShuffleBackend,
)
from repro.mapreduce.types import KeyValue, ensure_key_value

__all__ = [
    "BatchEncodingError",
    "BatchKernel",
    "ClusterConfig",
    "ColumnBatch",
    "EncodedRun",
    "GreedyLoadBalancingPartitioner",
    "HashPartitioner",
    "InMemoryShuffle",
    "JobChain",
    "JobMetrics",
    "JobResult",
    "KeyValue",
    "MapReduceEngine",
    "MapReduceJob",
    "Partitioner",
    "PartitionedShuffle",
    "PhaseTimings",
    "PipelineMetrics",
    "PipelineResult",
    "RoundRobinPartitioner",
    "ShuffleBackend",
    "ShuffleStats",
    "SpilledRows",
    "WorkerStats",
    "collecting_reducer",
    "ensure_key_value",
    "identity_reducer",
    "make_filtering_mapper",
    "numpy_available",
    "stable_hash",
]
