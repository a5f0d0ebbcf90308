"""The execution core as a matrix: plane × shuffle backend × input source.

The execution core runs a job on a *plane* (records | encoded batches), and
the paper's cost measures do not depend on it.  The record run is the
oracle; this module holds the batch plane to it on the six acceptance
workloads under both shuffle backends, fed either a list or a one-shot
iterator (which the record plane streams and the batch plane must
materialize exactly once), and pins the one place the plane is decided:
every decline is counted under its reason in ``plane_declined_total`` and
still yields the oracle's result.
"""

from __future__ import annotations

import functools

import pytest

from repro.datagen import gnm_random_graph
from repro.datagen.matrices import multiplication_records, random_matrix
from repro.datagen.relations import RelationInstance, skewed_chain_join_instance
from repro.mapreduce import (
    ClusterConfig,
    InMemoryShuffle,
    MapReduceEngine,
    MapReduceJob,
    PartitionedShuffle,
)
from repro.obs import MetricsRegistry
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.problems.grouping import GroupByAggregationProblem
from repro.schemas import (
    PairReducersSchema,
    PartitionTriangleSchema,
    SharesSchema,
    SplittingSchema,
)
from repro.schemas.hamming_distance_d import SegmentDeletionSchema
from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm
from repro.stats import profile_relations


def _triangles(engine, feed=list):
    edges = gnm_random_graph(18, 40, seed=11)
    return engine.run(PartitionTriangleSchema(18, 4).job(), feed(edges))


def _hamming_pair_reducers(engine, feed=list):
    return engine.run(PairReducersSchema(6).job(), feed(range(2**6)))


def _hamming_segment_deletion(engine, feed=list):
    family = SegmentDeletionSchema(8, num_segments=4, distance=2)
    return engine.run(family.job(emit_distance=2), feed(range(2**8)))


def _profiled_shares_join(engine, feed=list):
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=12)
    relations = skewed_chain_join_instance(3, 40, 12, skew=1.2, seed=7)
    plan = CostBasedPlanner.min_replication().plan(
        problem, q=60, profile=profile_relations(relations)
    ).best
    return plan.execute(feed(SharesSchema.input_records(relations)), engine=engine)


def _group_by_with_combiner(engine, feed=list):
    problem = GroupByAggregationProblem(5, 40)
    return engine.run(problem.job(use_combiner=True), feed(problem.inputs()))


def _two_phase_matmul_chain(engine, feed=list):
    n = 6
    records = multiplication_records(
        random_matrix(n, seed=1), random_matrix(n, seed=2)
    )
    return engine.run_chain(TwoPhaseMatMulAlgorithm(n, 2, 2).chain(), feed(records))


#: workload -> (jobs it runs, whether they carry a batch kernel).
WORKLOADS = {
    _triangles: (1, True),
    _hamming_pair_reducers: (1, False),
    _hamming_segment_deletion: (1, False),
    _profiled_shares_join: (1, True),
    _group_by_with_combiner: (1, False),
    _two_phase_matmul_chain: (2, True),
}

SHUFFLES = {
    "in-memory": InMemoryShuffle,
    "spilling": lambda: PartitionedShuffle(num_partitions=4, buffer_size=8),
}

#: How a workload's first round receives its records.
SOURCES = {
    "list": list,
    "one-shot": lambda records: iter(list(records)),
}


@functools.lru_cache(maxsize=None)
def _oracle(workload):
    """The serial record-plane run every cell is held to (computed once)."""
    return workload(
        MapReduceEngine(ClusterConfig(data_plane="records", map_batch_size=16))
    )


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("shuffle", sorted(SHUFFLES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__.strip("_"))
def test_every_cell_matches_the_serial_record_oracle(
    execution_cell, workload, shuffle, source
):
    oracle = _oracle(workload)
    result = workload(
        execution_cell.engine(SHUFFLES[shuffle], map_batch_size=16), SOURCES[source]
    )
    assert result.outputs == oracle.outputs
    assert result.metrics.summary() == oracle.metrics.summary()
    # ... and it ran on the plane the cell names, or declined for the
    # one reason that applies.
    jobs, has_kernel = WORKLOADS[workload]
    expected = {}
    if execution_cell.plane == "batches" and not has_kernel:
        expected = {"no-kernel": jobs}
    assert execution_cell.declined() == expected


class _RecordOnlyShuffle(InMemoryShuffle):
    supports_encoded = False


def _string_join():
    """A Shares join over string values: outside the kernel's int64 layout."""
    r = RelationInstance("R", ("A", "B"), (("x", "p"), ("y", "q")))
    s = RelationInstance("S", ("B", "C"), (("p", "u"), ("q", "v")))
    schema = SharesSchema(JoinQuery.binary_join(), {"B": 2}, domain_size=4)
    return schema.job([r, s]), SharesSchema.input_records([r, s])


class TestPlaneDeclines:
    """One test per reason ``choose_plane`` can answer."""

    WORDS = sorted({(x * 37) % 64 for x in range(40)})

    @staticmethod
    def _assert_declined(reason, make_cell, job, inputs, shuffle=None):
        cell = make_cell("batches")
        # A one-shot iterator: a declined run must still see every record.
        result = cell.engine(shuffle).run(job, iter(inputs))
        oracle = MapReduceEngine(ClusterConfig(data_plane="records")).run(job, inputs)
        assert cell.declined() == {reason: 1}
        assert result.outputs == oracle.outputs
        assert result.metrics == oracle.metrics
        return result

    def test_no_numpy(self, make_cell, monkeypatch):
        from repro.mapreduce import columnar

        monkeypatch.setattr(columnar, "np", None)
        self._assert_declined(
            "no-numpy", make_cell, SplittingSchema(6, 3).job(), self.WORDS
        )

    def test_no_kernel(self, make_cell):
        job = MapReduceJob(
            mapper=lambda x: [(x % 3, x)], reducer=lambda k, v: [(k, len(v))]
        )
        self._assert_declined("no-kernel", make_cell, job, self.WORDS)

    def test_combiner(self, make_cell):
        job = SplittingSchema(6, 3).job()
        job.combiner = lambda key, values: [(key, value) for value in values]
        self._assert_declined("combiner", make_cell, job, self.WORDS)

    def test_backend_not_encoded(self, make_cell):
        self._assert_declined(
            "backend-not-encoded",
            make_cell,
            SplittingSchema(6, 3).job(),
            self.WORDS,
            shuffle=_RecordOnlyShuffle,
        )

    def test_encoding(self, make_cell):
        job, records = _string_join()
        result = self._assert_declined("encoding", make_cell, job, records)
        assert len(result.outputs) == 2

    def test_batch_plane_taken_counts_nothing(self, make_cell):
        cell = make_cell("batches")
        cell.engine().run(SplittingSchema(6, 3).job(), self.WORDS)
        assert cell.declined() == {}

    def test_records_plane_counts_nothing(self):
        registry = MetricsRegistry()
        engine = MapReduceEngine(ClusterConfig(data_plane="records", metrics=registry))
        job, records = _string_join()
        engine.run(job, records)
        engine.run(SplittingSchema(6, 3).job(), self.WORDS)
        assert "plane_declined_total" not in registry.snapshot()
