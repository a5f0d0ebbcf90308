"""Executor equivalence: every (runner, plane) cell is bit-identical to serial.

The contract under test is the execution core's determinism guarantee: the
pool runner with any worker count — and the batch plane on either runner —
produces exactly the outputs, communication metrics, reducer sizes and
worker-load statistics of the serial record run on the same workload,
including the error cases, where exceptions raised inside worker processes
must surface as the same ``ExecutionError`` /
``ReducerCapacityExceededError`` with the same message.  The property tests
drive triangle, Hamming d=1 and Shares join workloads through every cell
(``cell_matrix`` in ``conftest.py``) with 1..4 workers.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen import gnm_random_graph
from repro.datagen.relations import chain_join_instance, multiway_join_oracle
from repro.exceptions import (
    ConfigurationError,
    ExecutionError,
    ReducerCapacityExceededError,
)
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    ParallelExecutor,
    PartitionedShuffle,
    RoundRobinPartitioner,
    SerialExecutor,
    resolve_executor,
    stable_hash,
)
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import PartitionTriangleSchema, SplittingSchema
from repro.schemas.join_shares import SharesSchema

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ParallelExecutor requires the fork start method",
)

#: Keep process-pool spin-ups affordable: few, small hypothesis examples
#: (which share the test's cells, hence the suppressed health check).
QUICK = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestWorkloadEquivalence:
    @QUICK
    @given(
        workers=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_triangles(self, cell_matrix, workers, seed):
        edges = gnm_random_graph(18, 40, seed=seed)
        family = PartitionTriangleSchema(18, 4)
        cell_matrix.run(family.job(), edges, workers, map_batch_size=16)

    @QUICK
    @given(
        workers=st.integers(min_value=1, max_value=4),
        c=st.sampled_from([1, 2, 3, 6]),
    )
    def test_hamming_d1(self, cell_matrix, workers, c):
        words = list(range(2**6))
        family = SplittingSchema(6, c)
        cell_matrix.run(family.job(), words, workers, map_batch_size=16)

    @QUICK
    @given(
        workers=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_shares_join(self, cell_matrix, workers, seed):
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=6)
        relations = chain_join_instance(3, 25, 6, seed=seed)
        records = SharesSchema.input_records(relations)
        plan = CostBasedPlanner.min_replication().plan(problem, q=60).best
        serial, *others = (
            plan.execute(records, engine=cell.engine())
            for cell in cell_matrix.cells(workers)
        )
        for result in others:
            cell_matrix.assert_identical(serial, result)
        _, expected = multiway_join_oracle(relations)
        assert sorted(serial.outputs) == sorted(expected)

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
            workers=3,
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
    @QUICK
    @given(workers=st.integers(min_value=1, max_value=4))
    def test_mapper_error_surfaces_identically(self, cell_matrix, workers):
        def bad_mapper(x):
            if x == 37:
                raise ValueError("exploding record")
            return [(x % 3, x)]

        job = MapReduceJob(
            mapper=bad_mapper, reducer=lambda k, v: [(k, len(v))], name="bad-map"
        )
        error = cell_matrix.error(
            job, lambda: range(100), workers, map_batch_size=8
        )
        assert isinstance(error, ExecutionError)
        assert "exploding record" in str(error)

    @QUICK
    @given(workers=st.integers(min_value=1, max_value=4))
    def test_reducer_error_surfaces_identically(self, cell_matrix, workers):
        def bad_reducer(key, values):
            if key == 2:
                raise RuntimeError("reducer boom")
            yield (key, len(values))

        job = MapReduceJob(
            mapper=lambda x: [(x % 5, x)], reducer=bad_reducer, name="bad-reduce"
        )
        error = cell_matrix.error(
            job, lambda: range(100), workers, map_batch_size=8
        )
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
        violates the enforced capacity, the inline runner surfaces the
        reducer error (it runs before the capacity check is ever reached);
        the pool runner must not let its deferred draining report the
        capacity violation instead.
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


class TestConfigurationWiring:
    def test_cluster_config_executor_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("parallel"), ParallelExecutor)
        engine = MapReduceEngine(ClusterConfig(executor="parallel"))
        assert isinstance(engine.executor, ParallelExecutor)
        with pytest.raises(ConfigurationError):
            ClusterConfig(executor="gpu")
        with pytest.raises(ConfigurationError):
            resolve_executor("gpu")

    def test_executor_instance_through_config(self):
        executor = ParallelExecutor(num_workers=2)
        config = ClusterConfig(executor=executor)
        assert MapReduceEngine(config).executor is executor
        # with_capacity preserves the executor choice.
        assert config.with_capacity(5).executor is executor

    def test_per_run_override(self):
        job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
        )
        engine = MapReduceEngine()  # serial by default
        assert isinstance(engine.executor, SerialExecutor)
        serial = engine.run(job, range(60))
        with ParallelExecutor(num_workers=2) as executor:
            parallel = engine.run(job, range(60), executor=executor)
            assert executor.warm_runs == 1
        assert parallel.outputs == serial.outputs
        assert parallel.metrics == serial.metrics

    def test_worker_count_defaults_to_cluster(self):
        executor = ParallelExecutor()
        assert executor.effective_workers(ClusterConfig(num_workers=3)) == 3
        assert ParallelExecutor(num_workers=2).effective_workers(
            ClusterConfig(num_workers=8)
        ) == 2

    def test_duck_typed_executor_accepted(self):
        """Anything with a callable execute() passes config AND resolution."""

        class RecordingExecutor:
            def __init__(self):
                self.calls = 0

            def execute(self, job, inputs, backend, config, reducer_cost=None):
                self.calls += 1
                return SerialExecutor().execute(
                    job, inputs, backend, config, reducer_cost
                )

        executor = RecordingExecutor()
        engine = MapReduceEngine(ClusterConfig(executor=executor))
        job = MapReduceJob(
            mapper=lambda x: [(x % 2, x)], reducer=lambda k, v: [(k, len(v))]
        )
        result = engine.run(job, range(10))
        assert executor.calls == 1
        assert result.outputs == MapReduceEngine().run(job, range(10)).outputs

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(num_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(reduce_block_size=0)
