"""The execution core is inline: no process pool, and no way to ask for one.

Every job runs in the calling thread, on the record or the batch plane, so
importing and using the library must not load :mod:`multiprocessing` or the
process half of :mod:`concurrent.futures`; and ``QueryService(executor=...)``
accepts only the spelling of the one core it has.  One engine serves any
number of runs — of different jobs, of chains, from several threads at
once — and each run owns, and closes, its own shuffle backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest

from repro.datagen import gnm_random_graph
from repro.datagen.matrices import (
    multiplication_records,
    random_matrix,
    records_to_matrix,
)
from repro.datagen.relations import multiway_join_oracle, skewed_chain_join_instance
from repro.exceptions import ConfigurationError, ExecutionError
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    PartitionedShuffle,
)
from repro.pipeline import PipelinePlanner
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import PartitionTriangleSchema, SharesSchema, SplittingSchema
from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm
from repro.service import QueryService

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_running_a_job_and_a_query_loads_no_process_pool():
    script = textwrap.dedent(
        """
        import sys

        import repro
        from repro.datagen import gnm_random_graph
        from repro.datagen.relations import multiway_join_oracle, skewed_chain_join_instance
        from repro.mapreduce import MapReduceEngine
        from repro.pipeline import PipelinePlanner
        from repro.planner import CostBasedPlanner
        from repro.problems import JoinQuery, MultiwayJoinProblem
        from repro.schemas import PartitionTriangleSchema, SharesSchema
        from repro.service import QueryService

        edges = gnm_random_graph(18, 40, seed=11)
        job = MapReduceEngine().run(PartitionTriangleSchema(18, 4).job(), edges)
        assert job.metrics.shuffle.num_inputs == len(edges)

        relations = skewed_chain_join_instance(3, 40, 16, skew=1.2, seed=7)
        plan = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
            MultiwayJoinProblem(JoinQuery.chain(3), 16), q=160
        ).best
        with QueryService(capacity=1e9) as service:
            query = service.submit(plan, SharesSchema.input_records(relations)).result()
        assert sorted(query.outputs) == sorted(multiway_join_oracle(relations)[1])

        loaded = [
            name
            for name in ("multiprocessing", "concurrent.futures.process")
            if name in sys.modules
        ]
        assert not loaded, f"the library loaded {loaded}"
        """
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("executor", ["parallel", "threads", object()])
def test_service_refuses_any_executor_but_serial(executor):
    with pytest.raises(ConfigurationError, match="process pool was removed"):
        QueryService(capacity=1e9, executor=executor)


@pytest.mark.parametrize("executor", [None, "serial"])
def test_service_still_takes_the_serial_spelling(executor):
    relations = skewed_chain_join_instance(3, 40, 16, skew=1.2, seed=7)
    plan = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
        MultiwayJoinProblem(JoinQuery.chain(3), 16), q=160
    ).best
    with QueryService(capacity=1e9, executor=executor) as service:
        result = service.submit(plan, SharesSchema.input_records(relations)).result()
    assert sorted(result.outputs) == sorted(multiway_join_oracle(relations)[1])


def _record_oracle(job, inputs, **config):
    """A fresh record-plane engine's run: what every run below must equal."""
    return MapReduceEngine(ClusterConfig(data_plane="records", **config)).run(
        job, inputs
    )


def _assert_identical(result, oracle):
    assert result.outputs == oracle.outputs
    assert result.metrics == oracle.metrics


def _triangle_job():
    """A job with a batch kernel: the batch cell runs it on batches."""
    return PartitionTriangleSchema(16, 4).job()


def _locked_job():
    """A job whose mapper closes over a lock: nothing could pickle it, and
    nothing needs to, since every run is inline.  It has no batch kernel."""
    lock = threading.Lock()

    def mapper(x):
        with lock:
            return [(x % 3, x)]

    return MapReduceJob(mapper=mapper, reducer=lambda k, v: [(k, len(v))])


def _run_in_threads(run_one, count):
    """Call ``run_one(i)`` from ``count`` threads; return results by ``i``."""
    results, errors = {}, []

    def target(index):
        try:
            results[index] = run_one(index)
        except BaseException as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sorted(results) == list(range(count))
    return results


class TestOneEngineManyRuns:
    EDGES = gnm_random_graph(16, 30, seed=5)

    def test_different_jobs_back_to_back(self, execution_cell):
        """A later run never sees an earlier run's job: the engine keeps no
        per-job state between runs."""
        engine = execution_cell.engine(map_batch_size=16)
        words = list(range(64))
        runs = [
            (_triangle_job(), self.EDGES),
            (SplittingSchema(6, 2).job(), words),
            (_triangle_job(), self.EDGES),
        ]
        for job, inputs in runs:
            _assert_identical(
                engine.run(job, inputs), _record_oracle(job, inputs, map_batch_size=16)
            )

    def test_run_chain_twice(self, execution_cell):
        n = 6
        left, right = random_matrix(n, seed=1), random_matrix(n, seed=2)
        records = multiplication_records(left, right)
        engine = execution_cell.engine()
        algorithm = TwoPhaseMatMulAlgorithm(n, 2, 2)
        first = engine.run_chain(algorithm.chain(), records)
        again = engine.run_chain(algorithm.chain(), records)
        assert again.outputs == first.outputs
        assert again.metrics == first.metrics
        assert np.allclose(records_to_matrix(again.outputs, n, n), left @ right)

    def test_unpicklable_closure_runs_without_warning(self, execution_cell):
        job = _locked_job()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = execution_cell.run(job, range(60))
        _assert_identical(result, _record_oracle(job, range(60)))

    def test_threads_share_one_engine(self, execution_cell):
        """The query service's setup: one engine, concurrent runs."""
        engine = execution_cell.engine()
        oracle = _record_oracle(_triangle_job(), self.EDGES)
        results = _run_in_threads(
            lambda _: engine.run(_triangle_job(), self.EDGES), 6
        )
        for result in results.values():
            _assert_identical(result, oracle)
        assert execution_cell.declined() == {}

    def test_interleaved_jobs_count_declines_exactly(self, execution_cell):
        """Runs of a batch job and a record-only job interleave across
        threads; each equals its own oracle and every decline is counted
        once, however the runs interleave."""
        engine = execution_cell.engine()
        jobs = (_triangle_job, _locked_job)
        inputs = (self.EDGES, list(range(60)))
        oracles = [_record_oracle(jobs[i](), inputs[i]) for i in range(2)]
        results = _run_in_threads(
            lambda i: engine.run(jobs[i % 2](), inputs[i % 2]), 8
        )
        for index, result in results.items():
            _assert_identical(result, oracles[index % 2])
        expected = {"no-kernel": 4} if execution_cell.plane == "batches" else {}
        assert execution_cell.declined() == expected

    def test_each_run_closes_its_own_shuffle(self, execution_cell):
        backends = []

        def spilling_shuffle():
            backends.append(PartitionedShuffle(num_partitions=4, buffer_size=8))
            return backends[-1]

        engine = execution_cell.engine(spilling_shuffle)
        first = engine.run(_triangle_job(), self.EDGES)
        second = engine.run(_triangle_job(), self.EDGES)
        _assert_identical(second, first)
        assert len(backends) == 2
        for backend in backends:
            assert backend.spill_count > 0
            assert backend._spill_dir is None or not os.path.exists(
                backend._spill_dir
            )
            with pytest.raises(ExecutionError, match="closed"):
                backend.num_pairs

    def test_per_run_shuffle_overrides_the_factory(self, execution_cell):
        engine = execution_cell.engine()
        backend = PartitionedShuffle(num_partitions=4, buffer_size=8)
        spilled = engine.run(_triangle_job(), self.EDGES, shuffle=backend)
        in_memory = engine.run(_triangle_job(), self.EDGES)
        assert spilled.metrics.shuffle.bytes_shuffled > 0
        assert in_memory.metrics.shuffle.bytes_shuffled is None
        assert spilled.outputs == in_memory.outputs
        assert spilled.metrics.summary() == in_memory.metrics.summary()
        with pytest.raises(ExecutionError, match="closed"):
            backend.num_pairs
