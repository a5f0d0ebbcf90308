"""Unit tests for partitioners, cluster configuration, and metrics helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.mapreduce import (
    ClusterConfig,
    GreedyLoadBalancingPartitioner,
    HashPartitioner,
    RoundRobinPartitioner,
    ShuffleStats,
    WorkerStats,
    stable_hash,
)
from repro.mapreduce.metrics import JobMetrics, PipelineMetrics


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_distinct_keys_usually_differ(self):
        values = {stable_hash(i) for i in range(1000)}
        assert len(values) == 1000

    def test_non_negative(self):
        assert stable_hash("anything") >= 0


class TestHashPartitioner:
    def test_within_range(self):
        partitioner = HashPartitioner()
        for key in range(100):
            assert 0 <= partitioner.assign(key, 7) < 7

    def test_partition_groups_all_keys(self):
        partitioner = HashPartitioner()
        groups = partitioner.partition(range(50), 4)
        assert sum(len(keys) for keys in groups.values()) == 50

    def test_partition_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner().partition([1, 2], 0)

    def test_roughly_balanced(self):
        partitioner = HashPartitioner()
        groups = partitioner.partition(range(2000), 4)
        sizes = [len(keys) for keys in groups.values()]
        assert max(sizes) < 2 * min(sizes)


class TestRoundRobinPartitioner:
    def test_cycles_through_workers(self):
        partitioner = RoundRobinPartitioner()
        assignments = [partitioner.assign(key, 3) for key in "abcdef"]
        assert assignments == [0, 1, 2, 0, 1, 2]


class TestGreedyPartitioner:
    def test_balances_weighted_keys(self):
        weights = {"big": 10.0, "small1": 1.0, "small2": 1.0, "small3": 1.0}
        partitioner = GreedyLoadBalancingPartitioner(weights)
        workers = {key: partitioner.assign(key, 2) for key in ["big", "small1", "small2", "small3"]}
        # The three small keys should all avoid the worker holding the big key.
        big_worker = workers["big"]
        assert all(workers[key] != big_worker for key in ["small1", "small2", "small3"])

    def test_loads_property(self):
        partitioner = GreedyLoadBalancingPartitioner()
        partitioner.assign("a", 2)
        partitioner.assign("b", 2)
        assert sum(partitioner.loads) == pytest.approx(2.0)


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_workers == 4
        assert config.reducer_capacity is None

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(reducer_capacity=-1)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(communication_cost_per_record=-1.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(worker_cost_per_unit=-0.5)

    def test_effective_capacity_job_overrides(self):
        config = ClusterConfig(reducer_capacity=10)
        assert config.effective_capacity(5) == 5
        assert config.effective_capacity(None) == 10

    def test_with_capacity_copies(self):
        config = ClusterConfig(num_workers=8)
        other = config.with_capacity(3)
        assert other.reducer_capacity == 3
        assert other.num_workers == 8
        assert config.reducer_capacity is None


class TestShuffleStats:
    def make(self) -> ShuffleStats:
        return ShuffleStats(
            num_inputs=10,
            num_key_value_pairs=30,
            reducer_sizes={"a": 10, "b": 15, "c": 5},
        )

    def test_replication_rate(self):
        assert self.make().replication_rate == pytest.approx(3.0)

    def test_replication_rate_zero_inputs(self):
        stats = ShuffleStats(num_inputs=0, num_key_value_pairs=0, reducer_sizes={})
        assert stats.replication_rate == 0.0

    def test_max_and_mean(self):
        stats = self.make()
        assert stats.max_reducer_size == 15
        assert stats.mean_reducer_size == pytest.approx(10.0)

    def test_histogram(self):
        assert self.make().size_histogram() == {5: 1, 10: 1, 15: 1}

    def test_skew(self):
        assert self.make().skew() == pytest.approx(1.5)

    def test_skew_empty(self):
        stats = ShuffleStats(num_inputs=0, num_key_value_pairs=0, reducer_sizes={})
        assert stats.skew() == 0.0


class TestWorkerStats:
    def test_imbalance(self):
        stats = WorkerStats(
            keys_per_worker={0: 2, 1: 1},
            values_per_worker={0: 30, 1: 10},
        )
        assert stats.num_workers == 2
        assert stats.max_worker_load == 30
        assert stats.load_imbalance() == pytest.approx(1.5)

    def test_empty(self):
        stats = WorkerStats()
        assert stats.load_imbalance() == 0.0
        assert stats.max_worker_load == 0


class TestMetricsSummaries:
    def test_job_summary_keys(self):
        metrics = JobMetrics(
            job_name="job",
            shuffle=ShuffleStats(5, 10, {"a": 10}),
            workers=WorkerStats({0: 1}, {0: 10}),
            num_outputs=3,
            reducer_compute_cost=7.0,
        )
        summary = metrics.summary()
        assert summary["inputs"] == 5.0
        assert summary["replication_rate"] == pytest.approx(2.0)
        assert summary["reducer_compute_cost"] == 7.0

    def test_pipeline_summary(self):
        job = JobMetrics(
            job_name="job",
            shuffle=ShuffleStats(5, 10, {"a": 10}),
            workers=WorkerStats(),
            num_outputs=3,
        )
        pipeline = PipelineMetrics(chain_name="chain", rounds=[job, job])
        assert pipeline.total_communication == 20
        assert pipeline.final_outputs == 3
        assert pipeline.summary()["rounds"] == 2.0

    def test_empty_pipeline_outputs(self):
        pipeline = PipelineMetrics(chain_name="chain", rounds=[])
        assert pipeline.final_outputs == 0
