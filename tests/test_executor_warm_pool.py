"""Warm-pool runner: pool reuse across runs, job shipping, inline fallback.

Jobs (closures included) are serialized per task, so one pool serves many
runs — including runs of *different* jobs, which is exactly where a stale
job in a long-lived worker would corrupt results.  These tests pin:
serializer round trips, pool identity across runs and across job changes
(with serial-identical results), the explicit/contextual close API, pool
resizing, and the counted, warned inline run of a job the serializer cannot
ship.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.datagen import gnm_random_graph
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    ParallelExecutor,
)
from repro.mapreduce.serialization import (
    JobSerializationError,
    pack_job,
    unpack_job,
)
from repro.schemas import PartitionTriangleSchema, SplittingSchema

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ParallelExecutor requires the fork start method",
)


class TestJobSerialization:
    def test_closure_job_round_trips(self):
        family = PartitionTriangleSchema(16, 4)
        job = family.job()
        restored = unpack_job(pack_job(job))
        edges = gnm_random_graph(16, 30, seed=2)
        engine = MapReduceEngine()
        original = engine.run(job, edges)
        rebuilt = engine.run(restored, edges)
        assert rebuilt.outputs == original.outputs
        assert rebuilt.metrics == original.metrics

    def test_combiner_defaults_and_capacity_survive(self):
        scale = 3

        def mapper(x, factor=scale):
            return [(x % 5, x * factor)]

        job = MapReduceJob(
            mapper=mapper,
            reducer=lambda k, v: [(k, sum(v))],
            combiner=lambda k, v: [(k, sum(v))],
            name="packed",
            reducer_capacity=100,
        )
        restored = unpack_job(pack_job(job))
        assert restored.name == "packed"
        assert restored.reducer_capacity == 100
        assert restored.combiner is not None
        assert list(restored.mapper(7)) == [(2, 21)]

    def test_unserializable_closure_raises(self):
        lock = threading.Lock()

        def mapper(x):
            with lock:
                return [(x, x)]

        job = MapReduceJob(mapper=mapper, reducer=lambda k, v: [k])
        with pytest.raises(JobSerializationError):
            pack_job(job)


class TestWarmPool:
    def test_pool_survives_runs_and_job_changes(self):
        executor = ParallelExecutor(num_workers=2)
        engine = MapReduceEngine(executor=executor)
        serial = MapReduceEngine()
        try:
            triangle_job = PartitionTriangleSchema(16, 4).job()
            edges = gnm_random_graph(16, 30, seed=5)
            first = engine.run(triangle_job, edges)
            assert executor.pool_is_warm
            pool = executor._pool
            # Different job on the SAME pool: the stale-job regression case.
            hamming_job = SplittingSchema(6, 2).job()
            words = list(range(64))
            second = engine.run(hamming_job, words)
            assert executor._pool is pool
            assert first.outputs == serial.run(triangle_job, edges).outputs
            reference = serial.run(hamming_job, words)
            assert second.outputs == reference.outputs
            assert second.metrics == reference.metrics
        finally:
            engine.close()

    def test_run_chain_reuses_one_pool(self):
        import numpy as np

        from repro.datagen.matrices import (
            multiplication_records,
            random_matrix,
            records_to_matrix,
        )
        from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm

        n = 6
        algorithm = TwoPhaseMatMulAlgorithm(n, 2, 2)
        left, right = random_matrix(n, seed=1), random_matrix(n, seed=2)
        records = multiplication_records(left, right)
        executor = ParallelExecutor(num_workers=2)
        with MapReduceEngine(executor=executor) as engine:
            result = engine.run_chain(algorithm.chain(), records)
            pool = executor._pool
            assert pool is not None
            again = engine.run_chain(algorithm.chain(), records)
            assert executor._pool is pool
            assert np.allclose(records_to_matrix(again.outputs, n, n), left @ right)
            assert again.outputs == result.outputs
        assert not executor.pool_is_warm  # context exit closed the engine

    def test_close_and_reuse(self):
        executor = ParallelExecutor(num_workers=2)
        engine = MapReduceEngine(executor=executor)
        job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
        )
        engine.run(job, range(50))
        assert executor.pool_is_warm
        executor.close()
        assert not executor.pool_is_warm
        # The executor stays usable: the next run forks a fresh pool.
        result = engine.run(job, range(50))
        assert executor.pool_is_warm
        assert result.outputs == MapReduceEngine().run(job, range(50)).outputs
        executor.close()

    def test_pool_resizes_when_worker_count_changes(self):
        executor = ParallelExecutor()  # size follows the cluster config
        job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
        )
        try:
            engine_two = MapReduceEngine(
                ClusterConfig(num_workers=2), executor=executor
            )
            engine_three = MapReduceEngine(
                ClusterConfig(num_workers=3), executor=executor
            )
            engine_two.run(job, range(40))
            pool = executor._pool
            assert executor._pool_workers == 2
            engine_three.run(job, range(40))
            assert executor._pool_workers == 3
            assert executor._pool is not pool
        finally:
            executor.close()

    def test_executor_context_manager(self):
        with ParallelExecutor(num_workers=2) as executor:
            engine = MapReduceEngine(executor=executor)
            job = MapReduceJob(
                mapper=lambda x: [(x % 2, x)], reducer=lambda k, v: [(k, len(v))]
            )
            engine.run(job, range(20))
            assert executor.pool_is_warm
        assert not executor.pool_is_warm

    def test_serial_engine_close_is_noop(self):
        engine = MapReduceEngine()
        engine.close()  # must not raise


class TestFallbackPath:
    @staticmethod
    def _unmarshallable_job() -> MapReduceJob:
        """A job whose closure (a lock) the serializer cannot ship."""
        lock = threading.Lock()

        def mapper(x):
            with lock:
                return [(x % 3, x)]

        return MapReduceJob(mapper=mapper, reducer=lambda k, v: [(k, len(v))])

    def test_unserializable_job_still_executes_and_warns(self):
        from repro.mapreduce import WarmPoolFallbackWarning

        job = self._unmarshallable_job()
        executor = ParallelExecutor(num_workers=2)
        try:
            with pytest.warns(WarmPoolFallbackWarning, match="running it inline"):
                result = MapReduceEngine(executor=executor).run(job, range(60))
            # The job ran on the inline runner: no pool was ever forked.
            assert not executor.pool_is_warm
            assert executor.warm_stats().active_runs == 0
            reference = MapReduceEngine().run(job, range(60))
            assert result.outputs == reference.outputs
            assert result.metrics == reference.metrics
        finally:
            executor.close()

    def test_fallback_is_observable_in_executor_metrics(self):
        from repro.mapreduce import WarmPoolFallbackWarning

        executor = ParallelExecutor(num_workers=2)
        engine = MapReduceEngine(executor=executor)
        try:
            assert executor.used_warm_pool is None  # nothing ran yet
            shippable = MapReduceJob(
                mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
            )
            engine.run(shippable, range(40))
            pool = executor._pool
            assert executor.used_warm_pool is True
            assert (executor.warm_runs, executor.fallback_runs) == (1, 0)
            with pytest.warns(WarmPoolFallbackWarning):
                engine.run(self._unmarshallable_job(), range(40))
            assert executor.used_warm_pool is False
            assert (executor.warm_runs, executor.fallback_runs) == (1, 1)
            # The warm pool survives the inline run and serves again.
            assert executor._pool is pool
            engine.run(shippable, range(40))
            assert executor._pool is pool
            assert executor.used_warm_pool is True
            assert (executor.warm_runs, executor.fallback_runs) == (2, 1)
        finally:
            engine.close()


class TestConcurrentSubmission:
    """One warm executor shared by many threads — the query service setup.

    The runner *decision* and its counter update happen in one critical
    section, so interleaved pool and inline-fallback submissions can never
    misattribute a run; and concurrent pool executes overlap on one pool
    (the pool is only resized while no run is active).
    """

    @staticmethod
    def _shippable_job() -> MapReduceJob:
        return MapReduceJob(
            mapper=lambda x: [(x % 5, x)], reducer=lambda k, v: [(k, sum(v))]
        )

    def test_concurrent_warm_runs_share_one_pool(self):
        executor = ParallelExecutor(num_workers=2)
        engine = MapReduceEngine(executor=executor)
        reference = MapReduceEngine().run(self._shippable_job(), range(80))
        results, errors = [], []

        def run_one():
            try:
                results.append(engine.run(self._shippable_job(), range(80)))
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            threads = [threading.Thread(target=run_one) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 6
            for result in results:
                assert result.outputs == reference.outputs
            stats = executor.warm_stats()
            assert stats.warm_runs == 6
            assert stats.fallback_runs == 0
            assert stats.active_runs == 0
            assert stats.total_runs == 6
            assert executor.pool_is_warm
        finally:
            engine.close()

    def test_interleaved_fallback_and_warm_counters_are_exact(self):
        import warnings as warnings_module

        from repro.mapreduce import WarmPoolFallbackWarning

        executor = ParallelExecutor(num_workers=2)
        engine = MapReduceEngine(executor=executor)
        lock = threading.Lock()

        def unshippable_job() -> MapReduceJob:
            def mapper(x):
                with lock:
                    return [(x % 3, x)]

            return MapReduceJob(
                mapper=mapper, reducer=lambda k, v: [(k, len(v))]
            )

        serial = MapReduceEngine()
        expected = {
            True: serial.run(self._shippable_job(), range(60)),
            False: serial.run(unshippable_job(), range(60)),
        }
        results, errors = [], []

        def run_one(warm: bool):
            try:
                job = self._shippable_job() if warm else unshippable_job()
                results.append((warm, engine.run(job, range(60))))
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            # catch_warnings is process-wide state, so it wraps the threads
            # rather than living inside each of them.
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("ignore", WarmPoolFallbackWarning)
                threads = [
                    threading.Thread(target=run_one, args=(i % 2 == 0,))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert len(results) == 8
            for warm, result in results:
                assert result.outputs == expected[warm].outputs
                assert result.metrics == expected[warm].metrics
            stats = executor.warm_stats()
            # Exactly 4 of each, however the submissions interleaved.
            assert stats.warm_runs == 4
            assert stats.fallback_runs == 4
            assert stats.total_runs == 8
            assert stats.active_runs == 0
            # The warm pool survived the inline runs and serves the next job.
            pool = executor._pool
            assert pool is not None
            after = engine.run(self._shippable_job(), range(60))
            assert executor._pool is pool
            assert after.outputs == expected[True].outputs
            assert executor.warm_stats().warm_runs == 5
        finally:
            engine.close()
