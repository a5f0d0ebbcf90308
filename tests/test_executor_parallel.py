"""Plane equivalence: the batch plane is bit-identical to the record plane.

The contract under test is the execution core's determinism guarantee: the
batch plane produces exactly the outputs, communication metrics, reducer
sizes and worker-load statistics of the record run on the same workload,
including the error cases, which must surface as the same
``ExecutionError`` / ``ReducerCapacityExceededError`` with the same
message, and in the same order.  The property tests drive triangle,
Hamming d=1 and Shares join workloads through both planes (``cell_matrix``
in ``conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen import gnm_random_graph
from repro.datagen.relations import chain_join_instance, multiway_join_oracle
from repro.exceptions import ExecutionError, ReducerCapacityExceededError
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    PartitionedShuffle,
    RoundRobinPartitioner,
    stable_hash,
)
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import PartitionTriangleSchema, SplittingSchema
from repro.schemas.join_shares import SharesSchema

#: Few, small hypothesis examples (which share the test's cells, hence the
#: suppressed health check).
QUICK = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestWorkloadEquivalence:
    @QUICK
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_triangles(self, cell_matrix, seed):
        edges = gnm_random_graph(18, 40, seed=seed)
        family = PartitionTriangleSchema(18, 4)
        cell_matrix.run(family.job(), edges, map_batch_size=16)

    @QUICK
    @given(c=st.sampled_from([1, 2, 3, 6]))
    def test_hamming_d1(self, cell_matrix, c):
        words = list(range(2**6))
        family = SplittingSchema(6, c)
        cell_matrix.run(family.job(), words, map_batch_size=16)

    @QUICK
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_shares_join(self, cell_matrix, seed):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=6)
        relations = chain_join_instance(3, 25, 6, seed=seed)
        records = SharesSchema.input_records(relations)
        plan = CostBasedPlanner.min_replication().plan(problem, q=60).best
        serial, *others = (
            plan.execute(records, engine=cell.engine())
            for cell in cell_matrix.cells()
        )
        for result in others:
            cell_matrix.assert_identical(serial, result)
        _, expected = multiway_join_oracle(relations)
        assert sorted(serial.outputs) == sorted(expected)

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_worker_loads_match_for_every_worker_count(self, cell_matrix, num_workers):
        """The simulated workers' key and value loads are plane-invariant,
        and together they carry every shuffled pair exactly once."""
        edges = gnm_random_graph(18, 40, seed=3)
        result = cell_matrix.run(
            PartitionTriangleSchema(18, 4).job(),
            edges,
            num_workers=num_workers,
            map_batch_size=16,
        )
        workers = result.metrics.workers
        assert set(workers.values_per_worker) <= set(range(num_workers))
        assert (
            sum(workers.values_per_worker.values())
            == result.metrics.shuffle.num_key_value_pairs
        )
        assert sum(workers.keys_per_worker.values()) == len(
            result.metrics.shuffle.reducer_sizes
        )

    def test_combiner_and_partitioned_shuffle(self, cell_matrix):
        """Combiner batching and the spilling backend survive every cell."""
        job = MapReduceJob(
            mapper=lambda x: [(x % 11, 1)],
            reducer=lambda k, v: [(k, sum(v))],
            combiner=lambda k, v: [(k, sum(v))],
            name="combine",
        )
        in_memory = MapReduceEngine(ClusterConfig(map_batch_size=8)).run(
            job, range(500)
        )
        spilled = cell_matrix.run(
            job,
            range(500),
            shuffle_factory=lambda: PartitionedShuffle(
                num_partitions=4, buffer_size=8
            ),
            map_batch_size=8,
        )
        cell_matrix.assert_identical(in_memory, spilled)

    def test_stateful_partitioner_sees_identical_key_order(self, cell_matrix):
        """Round-robin worker stats match: group order is cell-invariant."""
        job = MapReduceJob(
            mapper=lambda x: [(x % 17, x)], reducer=lambda k, v: [(k, len(v))]
        )
        results = [
            # A fresh (stateful) partitioner per cell.
            cell.run(
                job,
                range(300),
                num_workers=3,
                partitioner=RoundRobinPartitioner(),
                map_batch_size=16,
            )
            for cell in cell_matrix.cells()
        ]
        for result in results[1:]:
            cell_matrix.assert_identical(results[0], result)

    def test_run_chain_parallel(self, cell_matrix):
        """Every round of a chain runs through the configured cell."""
        from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm
        from repro.datagen.matrices import (
            multiplication_records,
            random_matrix,
            records_to_matrix,
        )
        import numpy as np

        n = 6
        algorithm = TwoPhaseMatMulAlgorithm(n, 2, 2)
        left, right = random_matrix(n, seed=1), random_matrix(n, seed=2)
        records = multiplication_records(left, right)
        serial, *others = (
            cell.engine().run_chain(algorithm.chain(), records)
            for cell in cell_matrix.cells()
        )
        for result in others:
            assert result.outputs == serial.outputs
            assert result.metrics == serial.metrics
        assert np.allclose(records_to_matrix(serial.outputs, n, n), left @ right)


class TestErrorPropagation:
    def test_mapper_error_surfaces_identically(self, cell_matrix):
        def bad_mapper(x):
            if x == 37:
                raise ValueError("exploding record")
            return [(x % 3, x)]

        job = MapReduceJob(
            mapper=bad_mapper, reducer=lambda k, v: [(k, len(v))], name="bad-map"
        )
        error = cell_matrix.error(job, lambda: range(100), map_batch_size=8)
        assert isinstance(error, ExecutionError)
        assert "exploding record" in str(error)

    def test_reducer_error_surfaces_identically(self, cell_matrix):
        def bad_reducer(key, values):
            if key == 2:
                raise RuntimeError("reducer boom")
            yield (key, len(values))

        job = MapReduceJob(
            mapper=lambda x: [(x % 5, x)], reducer=bad_reducer, name="bad-reduce"
        )
        error = cell_matrix.error(job, lambda: range(100), map_batch_size=8)
        assert isinstance(error, ExecutionError)
        assert "reducer boom" in str(error)

    def test_capacity_error_matches_serial(self, cell_matrix):
        job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [len(v)]
        )
        error = cell_matrix.error(
            job,
            lambda: range(100),
            reducer_capacity=10,
            enforce_capacity=True,
            map_batch_size=8,
        )
        assert isinstance(error, ReducerCapacityExceededError)

    def test_earlier_reducer_error_beats_later_capacity_violation(self, cell_matrix):
        """Serial error *order* is preserved, not just the error types.

        When an early-hash-order key's reducer fails and a later key
        violates the enforced capacity, the reducer error surfaces (it runs
        before the capacity check is ever reached) on both planes.
        """
        keys = sorted(range(3), key=lambda k: (stable_hash(k), repr(k)))
        fail_key, big_key = keys[0], keys[1]

        def mapper(record):
            key = record % 3
            repeats = 20 if key == big_key else 5
            return [(key, record)] * (repeats if record < 3 else 0)

        def reducer(key, values):
            if key == fail_key:
                raise RuntimeError("early reducer boom")
            yield (key, len(values))

        job = MapReduceJob(mapper=mapper, reducer=reducer, name="order")
        error = cell_matrix.error(
            job, lambda: range(3), reducer_capacity=10, enforce_capacity=True
        )
        assert isinstance(error, ExecutionError)
        assert "early reducer boom" in str(error)

    def test_earlier_mapper_error_beats_input_iterator_error(self, cell_matrix):
        """A mapper failure on an early record wins over a later input error."""

        def failing_inputs():
            yield from range(40)
            raise ValueError("input source failed")

        def bad_mapper(x):
            if x == 10:
                raise RuntimeError("mapper boom at 10")
            return [(x % 3, x)]

        job = MapReduceJob(
            mapper=bad_mapper, reducer=lambda k, v: [(k, len(v))], name="io"
        )
        error = cell_matrix.error(job, failing_inputs, map_batch_size=4)
        assert isinstance(error, ExecutionError)
        assert "mapper boom at 10" in str(error)
        # With no mapper failure, the input iterable's own error surfaces
        # unchanged from every cell.
        ok_job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
        )
        error = cell_matrix.error(ok_job, failing_inputs, map_batch_size=4)
        assert isinstance(error, ValueError)
        assert str(error) == "input source failed"

    def test_generator_reducer_error_wrapped(self, cell_matrix):
        def lazy_bad_reducer(key, values):
            yield (key, len(values))
            if key == 1:
                raise RuntimeError("late failure")

        job = MapReduceJob(
            mapper=lambda x: [(x % 2, x)], reducer=lazy_bad_reducer, name="lazy"
        )
        error = cell_matrix.error(job, lambda: range(10))
        assert isinstance(error, ExecutionError)
        assert "late failure" in str(error)
