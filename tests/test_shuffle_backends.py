"""Equivalence and behaviour of the pluggable shuffle backends.

The contract under test: swapping :class:`InMemoryShuffle` for
:class:`PartitionedShuffle` changes a job's memory profile only — outputs,
communication cost, replication rate, reducer sizes and worker loads must
all be bit-for-bit identical on the same workload.
"""

from __future__ import annotations

import os

import pytest

from repro.datagen import (
    all_pairs_at_distance,
    bernoulli_bitstrings,
    enumerate_triangles_oracle,
    gnm_random_graph,
)
from repro.exceptions import ConfigurationError, ExecutionError
from repro.mapreduce import (
    ClusterConfig,
    InMemoryShuffle,
    MapReduceEngine,
    MapReduceJob,
    PartitionedShuffle,
)
from repro.schemas import PartitionTriangleSchema, SplittingSchema


def partitioned_engine(num_partitions: int = 8, buffer_size: int = 16) -> MapReduceEngine:
    return MapReduceEngine(
        shuffle_factory=lambda: PartitionedShuffle(
            num_partitions=num_partitions, buffer_size=buffer_size
        )
    )


def assert_identical(result_a, result_b):
    """Outputs and every metric the library reports must match."""
    assert result_a.outputs == result_b.outputs
    assert result_a.metrics.summary() == result_b.metrics.summary()
    assert (
        result_a.metrics.shuffle.reducer_sizes
        == result_b.metrics.shuffle.reducer_sizes
    )
    assert (
        result_a.metrics.workers.values_per_worker
        == result_b.metrics.workers.values_per_worker
    )


class TestBackendEquivalence:
    def test_triangle_workload(self):
        n = 40
        edges = gnm_random_graph(n, 220, seed=1234)
        family = PartitionTriangleSchema.for_reducer_size(n, 150)
        in_memory = MapReduceEngine().run(family.job(), edges)
        partitioned = partitioned_engine().run(family.job(), edges)
        assert_identical(in_memory, partitioned)
        assert set(in_memory.outputs) == enumerate_triangles_oracle(edges)

    def test_hamming_workload(self):
        b = 10
        words = bernoulli_bitstrings(b, probability=0.4, seed=77)
        family = SplittingSchema(b, 2)
        in_memory = MapReduceEngine().run(family.job(), words)
        partitioned = partitioned_engine(num_partitions=5, buffer_size=7).run(
            family.job(), words
        )
        assert_identical(in_memory, partitioned)
        assert sorted(in_memory.outputs) == sorted(all_pairs_at_distance(words, 1))

    def test_equivalence_with_combiner(self):
        def mapper(document: str):
            for word in document.split():
                yield (word, 1)

        def combiner(word, counts):
            yield (word, sum(counts))

        def reducer(word, counts):
            yield (word, sum(counts))

        job = MapReduceJob(mapper=mapper, reducer=reducer, combiner=combiner)
        docs = [f"w{i % 7} w{i % 3} w{i % 5}" for i in range(200)]
        config = ClusterConfig(map_batch_size=16)
        in_memory = MapReduceEngine(config).run(job, docs)
        partitioned = MapReduceEngine(
            config, shuffle_factory=lambda: PartitionedShuffle(buffer_size=4)
        ).run(job, docs)
        assert_identical(in_memory, partitioned)

    def test_single_partition_still_globally_ordered(self):
        words = bernoulli_bitstrings(8, probability=0.5, seed=5)
        family = SplittingSchema(8, 4)
        in_memory = MapReduceEngine().run(family.job(), words)
        partitioned = partitioned_engine(num_partitions=1, buffer_size=3).run(
            family.job(), words
        )
        assert_identical(in_memory, partitioned)


class TestPartitionedShuffleBehaviour:
    def test_spills_happen_and_are_counted(self):
        backend = PartitionedShuffle(num_partitions=4, buffer_size=8)
        words = bernoulli_bitstrings(9, probability=0.6, seed=11)
        family = SplittingSchema(9, 3)
        result = MapReduceEngine().run(family.job(), words, shuffle=backend)
        assert backend.spill_count > 0
        assert backend.spilled_bytes > 0
        # The engine closed the backend; the pair count lives on in the
        # metrics, and the closed backend refuses to report stale data.
        assert result.communication_cost > 0
        with pytest.raises(ExecutionError, match="closed PartitionedShuffle"):
            backend.num_pairs

    def test_spill_files_removed_on_close(self):
        backend = PartitionedShuffle(num_partitions=2, buffer_size=2)
        for i in range(40):
            backend.add(i, i)
        spill_dir = backend._spill_dir
        assert spill_dir is not None and os.path.isdir(spill_dir)
        backend.close()
        assert not os.path.exists(spill_dir)
        backend.close()  # idempotent

    def test_engine_closes_backend_even_on_reducer_error(self):
        def bad_reducer(key, values):
            raise RuntimeError("boom")

        backend = PartitionedShuffle(num_partitions=2, buffer_size=2)
        job = MapReduceJob(mapper=lambda x: [(x % 3, x)], reducer=bad_reducer)
        with pytest.raises(Exception):
            MapReduceEngine().run(job, range(50), shuffle=backend)
        spill_dir = backend._spill_dir
        assert spill_dir is None or not os.path.exists(spill_dir)

    def test_larger_than_buffer_workload_matches_memory_baseline(self):
        """A workload many times the buffer size stays correct while spilled.

        This is the scaled-down stand-in for the 'run a 10x workload without
        growing the resident shuffle' claim: every partition spills dozens of
        times, yet outputs and metrics match the in-memory run exactly.
        """
        b = 12
        words = range(1 << b)  # full universe: 4096 inputs, 3 pairs each
        family = SplittingSchema(b, 3)
        backend = PartitionedShuffle(num_partitions=8, buffer_size=32)
        records = MapReduceEngine(ClusterConfig(data_plane="records"))
        partitioned = records.run(family.job(), words, shuffle=backend)
        in_memory = MapReduceEngine().run(family.job(), words)
        assert backend.spill_count > 50
        assert_identical(in_memory, partitioned)

    def test_stale_spill_files_not_resurrected(self, tmp_path):
        """A reused spill_dir with leftovers from a killed run stays clean."""
        spill_dir = str(tmp_path)
        first = PartitionedShuffle(
            num_partitions=1, buffer_size=2, spill_dir=spill_dir
        )
        for i in range(10):
            first.add(i, i)
        assert first.spill_count > 0  # leftover partition file now on disk
        # Simulate a crash: no close(); a fresh backend reuses the directory.
        second = PartitionedShuffle(
            num_partitions=1, buffer_size=2, spill_dir=spill_dir
        )
        for i in range(4):
            second.add(i, i * 10)
        groups = dict(second.groups())
        assert groups == {0: [0], 1: [10], 2: [20], 3: [30]}
        assert second.num_pairs == 4
        second.close()

    def test_partitioned_groups_single_pass(self):
        """A second groups() pass would mix cleared buffers with spill files.

        groups() is a documented single-pass iterator; re-traversal is an
        execution-lifecycle violation (ExecutionError), not a configuration
        mistake.
        """
        backend = PartitionedShuffle(num_partitions=2, buffer_size=2)
        for i in range(5):
            backend.add(i, i)
        assert len(list(backend.groups())) == 5
        with pytest.raises(ExecutionError, match="single-pass"):
            backend.groups()
        backend.close()

    def test_backends_are_single_use(self):
        """Reusing a closed backend fails loudly instead of corrupting metrics."""
        job = MapReduceJob(mapper=lambda x: [(x % 2, x)], reducer=lambda k, v: [(k, len(v))])
        for backend in (InMemoryShuffle(), PartitionedShuffle(num_partitions=2, buffer_size=2)):
            engine = MapReduceEngine()
            engine.run(job, range(10), shuffle=backend)  # engine closes it
            with pytest.raises(ConfigurationError, match="single-use"):
                engine.run(job, range(10), shuffle=backend)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionedShuffle(num_partitions=0)
        with pytest.raises(ConfigurationError):
            PartitionedShuffle(buffer_size=0)

    def test_closed_backend_refuses_num_pairs_and_groups(self):
        """After close() both reads raise ExecutionError, never stale data."""
        for backend in (
            InMemoryShuffle(),
            PartitionedShuffle(num_partitions=2, buffer_size=2),
        ):
            backend.add("a", 1)
            backend.add("b", 2)
            assert backend.num_pairs == 2
            backend.close()
            with pytest.raises(ExecutionError, match="closed"):
                backend.num_pairs
            with pytest.raises(ExecutionError, match="closed"):
                backend.groups()

    def test_close_racing_an_obtained_iterator_raises(self):
        """An iterator handed out before close() must raise, not go empty."""
        for backend in (
            InMemoryShuffle(),
            PartitionedShuffle(num_partitions=2, buffer_size=2),
        ):
            for i in range(6):
                backend.add(i, i)
            iterator = iter(backend.groups())
            first = next(iterator)
            assert first is not None
            backend.close()
            with pytest.raises(ExecutionError, match="closed"):
                list(iterator)

    def test_in_memory_num_pairs(self):
        backend = InMemoryShuffle()
        backend.add("a", 1)
        backend.add("a", 2)
        backend.add("b", 3)
        assert backend.num_pairs == 3
        groups = dict(backend.groups())
        assert groups == {"a": [1, 2], "b": [3]}
