"""Bit-identity of the columnar data plane against the record path.

The record run is the oracle: for every kernel-carrying schema, running
the same job on ``data_plane="columnar"`` must produce the *identical*
output list (same tuples, same order) and identical metrics, because the
plane is an execution strategy, not a semantics change.  Hypothesis drives
arbitrary input subsets through every vectorized kernel on both planes
(``cell_matrix`` in ``conftest.py``, which also asserts the plane each run
really took), on uniform and skewed
(Zipf) data, through both shuffle backends, and through a planned two-round
cascade.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen.graphs import gnm_random_graph
from repro.datagen.relations import (
    RelationInstance,
    binary_join_instance,
    chain_join_instance,
    skewed_chain_join_instance,
)
from repro.mapreduce import ClusterConfig, MapReduceEngine, PartitionedShuffle
from repro.problems.joins import JoinQuery
from repro.schemas.hamming_distance_d import BallTwoSchema
from repro.schemas.hamming_splitting import SplittingSchema
from repro.schemas.join_shares import SharesSchema, SkewAwareSharesSchema
from repro.schemas.matmul_one_phase import OnePhaseTilingSchema
from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm
from repro.schemas.triangles import PartitionTriangleSchema
from repro.schemas.two_paths import TwoPathSchema

from kernel_oracle import decode_element_records, partial_sum_reduce_group


def examples(count: int):
    """Hypothesis settings; examples share the test's cells."""
    return settings(
        max_examples=count,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


def spilling(num_partitions: int, buffer_size: int):
    return lambda: PartitionedShuffle(
        num_partitions=num_partitions, buffer_size=buffer_size
    )


@st.composite
def word_sets(draw, bits: int = 6):
    universe = list(range(2**bits))
    return sorted(draw(st.sets(st.sampled_from(universe), min_size=0, max_size=40)))


@st.composite
def edge_sets(draw, n: int = 12):
    universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(draw(st.sets(st.sampled_from(universe), min_size=0, max_size=40)))


class TestHammingKernels:
    @given(words=word_sets(), segments=st.sampled_from([2, 3, 6]))
    @examples(25)
    def test_splitting_matches_record_path(self, cell_matrix, words, segments):
        schema = SplittingSchema(6, segments)
        cell_matrix.run(schema.job(), words)

    @given(words=word_sets(bits=5), emit=st.sampled_from([None, 1, 2]))
    @examples(25)
    def test_ball_two_matches_record_path(self, cell_matrix, words, emit):
        schema = BallTwoSchema(5)
        cell_matrix.run(schema.job(emit), words)

    @given(words=word_sets())
    @examples(10)
    def test_splitting_matches_through_partitioned_shuffle(self, cell_matrix, words):
        schema = SplittingSchema(6, 2)
        cell_matrix.run(schema.job(), words, shuffle_factory=spilling(3, 16))


@st.composite
def random_graphs(draw, max_nodes: int = 150):
    """(n, edges): a seeded G(n, m) graph, sparse to dense."""
    n = draw(st.integers(3, max_nodes))
    density = draw(st.sampled_from([0.02, 0.1, 0.4]))
    edges = min(int(density * n * (n - 1) / 2), 600)
    return n, gnm_random_graph(n, edges, draw(st.integers(0, 2**16)))


class TestGraphKernels:
    # Up to 150 nodes: reducers' packed adjacency rows span many bytes.
    @given(graph=random_graphs(), buckets=st.integers(1, 5), hashed=st.booleans())
    @examples(25)
    def test_triangles_match_record_path(self, cell_matrix, graph, buckets, hashed):
        n, edges = graph
        schema = PartitionTriangleSchema(n, min(buckets, n), hash_nodes=hashed)
        cell_matrix.run(schema.job(), edges)

    @given(
        edges=edge_sets(),
        buckets=st.sampled_from([2, 4]),
        hashed=st.booleans(),
    )
    @examples(25)
    def test_two_paths_match_record_path(self, cell_matrix, edges, buckets, hashed):
        schema = TwoPathSchema(12, buckets, hash_nodes=hashed)
        cell_matrix.run(schema.job(), edges)


@st.composite
def join_relations(draw):
    """A binary-join instance, optionally with a planted heavy value."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    skewed = draw(st.booleans())
    r, s = binary_join_instance(40, 40, domain_size=10, seed=seed)
    if skewed:
        rng_rows = tuple((i % 10, 4) for i in range(20))
        r = RelationInstance(
            name=r.name,
            attributes=r.attributes,
            tuples=tuple(sorted(set(r.tuples + rng_rows))),
        )
        s = RelationInstance(
            name=s.name,
            attributes=s.attributes,
            tuples=tuple(sorted(set(s.tuples + tuple((4, i % 10) for i in range(20))))),
        )
    return [r, s], skewed


class TestSharesKernels:
    @given(instance=join_relations())
    @examples(20)
    def test_vanilla_shares_match_record_path(self, cell_matrix, instance):
        relations, _ = instance
        schema = SharesSchema(
            JoinQuery.binary_join(), {"A": 2, "B": 2, "C": 2}, domain_size=10
        )
        records = SharesSchema.input_records(relations)
        cell_matrix.run(schema.job(relations), records)

    @given(instance=join_relations())
    @examples(20)
    def test_skew_aware_shares_match_record_path(self, cell_matrix, instance):
        relations, _ = instance
        schema = SkewAwareSharesSchema(
            JoinQuery.binary_join(),
            {"A": 2, "B": 2, "C": 2},
            domain_size=10,
            skew_attribute="B",
            heavy_values=[4],
            heavy_shares={"A": 2, "C": 2},
        )
        records = SharesSchema.input_records(relations)
        cell_matrix.run(schema.job(relations), records)

    @given(instance=join_relations())
    @examples(8)
    def test_shares_match_through_partitioned_shuffle(self, cell_matrix, instance):
        relations, _ = instance
        schema = SharesSchema(
            JoinQuery.binary_join(), {"B": 3}, domain_size=10
        )
        records = SharesSchema.input_records(relations)
        cell_matrix.run(
            schema.job(relations), records, shuffle_factory=spilling(4, 32)
        )


class TestMatmulKernels:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @examples(15)
    def test_one_phase_matches_record_path(self, cell_matrix, seed):
        from repro.datagen.matrices import integer_matrix, multiplication_records

        n = 6
        records = multiplication_records(
            integer_matrix(n, seed=seed), integer_matrix(n, seed=seed + 1)
        )
        schema = OnePhaseTilingSchema(n, 3)
        cell_matrix.run(schema.job(), records)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @examples(10)
    def test_two_phase_chain_matches_record_path(self, cell_matrix, seed):
        from repro.datagen.matrices import random_matrix, multiplication_records

        n = 6
        records = multiplication_records(
            random_matrix(n, seed=seed), random_matrix(n, seed=seed + 1)
        )
        algorithm = TwoPhaseMatMulAlgorithm(n, 3, 2)
        oracle, *others = (
            cell.engine().run_chain(algorithm.chain(), records)
            for cell in cell_matrix.cells()
        )
        assert len(oracle.metrics.rounds) == 2
        for run in others:
            assert run.outputs == oracle.outputs
            assert run.metrics.summary() == oracle.metrics.summary()
            assert [m.summary() for m in run.metrics.rounds] == [
                m.summary() for m in oracle.metrics.rounds
            ]

    @staticmethod
    def _encoded_run(kernel, records):
        from repro.mapreduce.columnar import build_encoded_run

        codes, rows, values = kernel.map_batch(kernel.encode(records))
        keys = {code: kernel.key_of_code(code) for code in np.unique(codes).tolist()}
        return build_encoded_run([(codes, rows, values)], keys)

    @given(
        shape=st.sampled_from(
            [(n, s, t) for n in (2, 4, 6) for s in (1, 2, 3, 6) for t in (1, 2, 3, 6)
             if n % s == 0 and n % t == 0]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        keep=st.floats(min_value=0.3, max_value=1.0),
    )
    @examples(40)
    def test_two_phase_whole_run_reduces(self, shape, seed, keep):
        """Each phase's whole-run ``reduce_groups`` equals its per-group
        oracle (``kernel_oracle``'s sum for the sums, the scalar reducer on
        decoded records for the cubes), as lists with ``repr``-equal floats,
        on sparse matrices."""
        import random

        from repro.datagen.matrices import multiplication_records, random_matrix

        n, s, t = shape
        rng = random.Random(seed)
        records = [
            record
            for record in multiplication_records(
                random_matrix(n, seed=seed), random_matrix(n, seed=seed + 1)
            )
            if rng.random() < keep
        ]
        first, second = TwoPhaseMatMulAlgorithm(n, s, t).chain().jobs
        run = self._encoded_run(first.batch_kernel, records)
        kernel = first.batch_kernel
        whole = kernel.reduce_groups(run) if run is not None else []
        per_group = [
            output
            for index, key in enumerate(run.keys if run is not None else [])
            for output in first.reducer(key, decode_element_records(run.group_values(index)))
        ]
        assert whole == per_group and repr(whole) == repr(per_group)
        run = self._encoded_run(second.batch_kernel, whole)
        if run is None:
            return
        kernel = second.batch_kernel
        code_list = run.codes.tolist()
        whole = kernel.reduce_groups(run)
        per_group = [
            output
            for index, key in enumerate(run.keys)
            for output in partial_sum_reduce_group(
                key, code_list[index], run.group_values(index)
            )
        ]
        assert whole == per_group and repr(whole) == repr(per_group)

    @given(shape=st.sampled_from([(4, 2, 1), (6, 3, 2), (8, 4, 2)]))
    @examples(3)
    def test_two_phase_keys_decoded_once_per_algorithm(self, shape):
        n = shape[0]
        algorithm = TwoPhaseMatMulAlgorithm(*shape)
        (cubes, sums), (cubes_again, sums_again) = (
            [job.batch_kernel for job in algorithm.chain().jobs] for _ in range(2)
        )
        for code in range(n * n):
            key = sums.key_of_code(code)
            assert key is sums_again.key_of_code(code)
            assert key == divmod(code, n)
        for code in range(algorithm.num_first_phase_reducers):
            assert cubes.key_of_code(code) is cubes_again.key_of_code(code)


class TestPipelineCascades:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        zipf=st.booleans(),
    )
    @examples(8)
    def test_two_round_cascade_matches_record_path(self, cell_matrix, seed, zipf):
        from repro.pipeline import PipelinePlanner
        from repro.planner import CostBasedPlanner
        from repro.problems.joins import MultiwayJoinProblem
        from repro.stats import profile_relations

        domain, size = 9, 18
        if zipf:
            relations = skewed_chain_join_instance(
                3, size, domain, skew=1.2, seed=seed
            )
        else:
            relations = chain_join_instance(3, size, domain, seed=seed)
        profile = profile_relations(relations)
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=domain)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(problem, q=10_000, profile=profile)
        cascades = result.cascades()
        if not cascades:
            return
        cascade = cascades[0]
        records = SharesSchema.input_records(relations)
        oracle, *others = (
            cascade.execute(records, engine=cell.engine())
            for cell in cell_matrix.cells()
        )
        for run in others:
            assert run.outputs == oracle.outputs
            assert [m.summary() for m in run.result.metrics.rounds] == [
                m.summary() for m in oracle.result.metrics.rounds
            ]

    @staticmethod
    def _planned_cascade():
        from repro.pipeline import PipelinePlanner
        from repro.planner import CostBasedPlanner
        from repro.problems.joins import MultiwayJoinProblem
        from repro.stats import profile_relations

        relations = chain_join_instance(3, 20, 10, seed=42)
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=10)
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        result = planner.plan(
            problem, q=10_000, profile=profile_relations(relations)
        )
        cascades = result.cascades()
        assert cascades
        return cascades[0], SharesSchema.input_records(relations)

    def test_cascade_with_spill_matches_unspilled(self):
        cascade, records = self._planned_cascade()
        engine = MapReduceEngine(ClusterConfig(data_plane="columnar"))
        base = cascade.execute(records, engine=engine)
        spilled = cascade.execute(records, engine=engine, spill_threshold=1)
        assert base.outputs == spilled.outputs

    def test_failed_round_after_a_spill_leaves_no_files(self, tmp_path, monkeypatch):
        import tempfile

        from repro.exceptions import ExecutionError

        cascade, records = self._planned_cascade()
        engine = MapReduceEngine()
        run_job = engine.run
        rounds = []

        def failing_second_round(job, inputs, **kwargs):
            rounds.append(job.name)
            if len(rounds) == 2:
                # Round 1's intermediate is on disk by now.
                assert len(list(tmp_path.iterdir())) == 1
                raise ExecutionError("round 2 failed")
            return run_job(job, inputs, **kwargs)

        monkeypatch.setattr(engine, "run", failing_second_round)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ExecutionError, match="round 2 failed"):
            cascade.execute(records, engine=engine, spill_threshold=1)
        assert len(rounds) == 2
        assert list(tmp_path.iterdir()) == []
