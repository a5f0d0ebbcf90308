"""Unit tests for the columnar data plane's building blocks.

Covers the batch container, the packed spill format, pipeline-intermediate
spilling, encoded-run assembly, the executor's fallback rules, and the
per-phase timing instrumentation.  The end-to-end bit-identity contract
against the record path lives in ``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.mapreduce import (
    ClusterConfig,
    InMemoryShuffle,
    MapReduceEngine,
    PartitionedShuffle,
)
from repro.mapreduce.columnar import (
    BatchEncodingError,
    ColumnBatch,
    SpilledRows,
    build_encoded_run,
    pack_encoded_chunk,
    unpack_encoded_chunks,
)
from repro.mapreduce.partitioner import stable_hash
from repro.schemas.hamming_splitting import SplittingSchema

from kernel_oracle import to_tuples


class TestColumnBatch:
    def test_from_int_tuples_round_trips(self):
        rows = [(3, -1), (0, 9), (7, 7)]
        batch = ColumnBatch.from_int_tuples(rows, ("u", "v"))
        assert len(batch) == 3
        assert batch.names == ("u", "v")
        assert batch.column("u").dtype == np.int64
        assert to_tuples(batch) == rows

    def test_ragged_records_decline(self):
        with pytest.raises(BatchEncodingError):
            ColumnBatch.from_int_tuples([(1, 2), (3,)], ("u", "v"))

    def test_float_records_decline(self):
        with pytest.raises(BatchEncodingError):
            ColumnBatch.from_int_tuples([(1, 2.5)], ("u", "v"))

    def test_string_records_decline(self):
        with pytest.raises(BatchEncodingError):
            ColumnBatch.from_int_tuples([("a", "b")], ("u", "v"))

    def test_int64_overflow_declines(self):
        with pytest.raises(BatchEncodingError):
            ColumnBatch.from_int_tuples([(2**70, 0)], ("u", "v"))

    def test_wrong_arity_declines(self):
        with pytest.raises(BatchEncodingError):
            ColumnBatch.from_int_tuples([(1, 2, 3)], ("u", "v"))

    def test_take_slice_concat(self):
        batch = ColumnBatch.from_int_tuples([(i, i * i) for i in range(6)], ("a", "b"))
        taken = batch.take(np.array([4, 1]))
        assert to_tuples(taken) == [(4, 16), (1, 1)]
        sliced = batch.slice(2, 4)
        assert to_tuples(sliced) == [(2, 4), (3, 9)]
        joined = ColumnBatch.concat([taken, sliced])
        assert to_tuples(joined) == [(4, 16), (1, 1), (2, 4), (3, 9)]


class TestSpillFormat:
    def test_pack_unpack_round_trip(self):
        codes = np.array([5, 5, 2, 9], dtype=np.int64)
        batch = ColumnBatch(
            {
                "word": np.array([10, 11, 12, 13], dtype=np.int64),
                "weight": np.array([0.5, -1.0, 2.25, 0.0], dtype=np.float64),
            }
        )
        payload = pack_encoded_chunk(codes, batch) + pack_encoded_chunk(
            codes[:2], batch.slice(0, 2)
        )
        chunks = list(unpack_encoded_chunks(payload))
        assert len(chunks) == 2
        first_codes, first_batch = chunks[0]
        assert first_codes.tolist() == codes.tolist()
        assert first_batch.names == ("word", "weight")
        assert first_batch.column("word").tolist() == [10, 11, 12, 13]
        assert first_batch.column("weight").tolist() == [0.5, -1.0, 2.25, 0.0]
        second_codes, second_batch = chunks[1]
        assert second_codes.tolist() == [5, 5]
        assert second_batch.column("word").tolist() == [10, 11]

    def test_corrupt_magic_raises(self):
        with pytest.raises(ExecutionError, match="bad magic"):
            list(unpack_encoded_chunks(b"XXXX" + b"\0" * 16))


class TestSpilledRows:
    def test_spill_and_rematerialize_bit_identical(self):
        rows = [(i, -i, i * 3) for i in range(50)]
        spilled = SpilledRows.try_spill(rows)
        assert spilled is not None
        try:
            assert len(spilled) == 50
            assert list(spilled) == rows
            # repeated iteration must keep working (downstream rounds and
            # the final reorder both walk the block)
            assert list(spilled) == rows
        finally:
            spilled.close()
        assert not os.path.exists(spilled.path)

    def test_close_is_idempotent(self):
        spilled = SpilledRows.try_spill([(1, 2)])
        assert spilled is not None
        spilled.close()
        spilled.close()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        open_descriptor = os.fdopen

        class FailingSink:
            def __init__(self, descriptor, mode):
                self._handle = open_descriptor(descriptor, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                raise OSError("disk full")

        monkeypatch.setattr(os, "fdopen", FailingSink)
        with pytest.raises(OSError, match="disk full"):
            SpilledRows.try_spill([(1, 2), (3, 4)], directory=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(1, 2), (3,)],  # ragged
            [(1.5, 2.0)],  # floats
            [("a", "b")],  # strings
            [(2**70, 1)],  # int64 overflow
        ],
        ids=["empty", "ragged", "float", "string", "overflow"],
    )
    def test_non_packable_rows_stay_in_memory(self, rows):
        assert SpilledRows.try_spill(rows) is None


class TestBuildEncodedRun:
    def test_groups_sorted_by_stable_hash_pairs_in_arrival_order(self):
        keys_by_code = {code: ("k", code) for code in (3, 7, 11)}
        batch_a = ColumnBatch({"v": np.array([0, 1, 2], dtype=np.int64)})
        batch_b = ColumnBatch({"v": np.array([3, 4], dtype=np.int64)})
        run = build_encoded_run(
            [
                (np.array([7, 3, 7], dtype=np.int64), None, batch_a),
                (np.array([3, 11], dtype=np.int64), None, batch_b),
            ],
            keys_by_code,
        )
        assert run is not None
        expected_order = sorted(
            keys_by_code.values(), key=lambda key: (stable_hash(key), repr(key))
        )
        assert run.keys == expected_order
        assert run.starts.tolist()[0] == 0
        assert run.starts.tolist()[-1] == 5
        # Per-group values keep entry order then row order (arrival order).
        by_key = {
            key: run.group_values(index).column("v").tolist()
            for index, key in enumerate(run.keys)
        }
        assert by_key[("k", 3)] == [1, 3]
        assert by_key[("k", 7)] == [0, 2]
        assert by_key[("k", 11)] == [4]

    def test_row_indices_select_source_rows(self):
        batch = ColumnBatch({"v": np.array([10, 20, 30], dtype=np.int64)})
        run = build_encoded_run(
            [(np.array([1, 1], dtype=np.int64), np.array([2, 0]), batch)],
            {1: "only"},
        )
        assert run is not None
        assert run.keys == ["only"]
        assert run.group_values(0).column("v").tolist() == [30, 10]

    def test_empty_entries_yield_none(self):
        empty = ColumnBatch({"v": np.array([], dtype=np.int64)})
        assert build_encoded_run([], {}) is None
        assert (
            build_encoded_run([(np.array([], dtype=np.int64), None, empty)], {})
            is None
        )


class TestSinglePassShuffles:
    def test_in_memory_closed_backend_raises(self):
        backend = InMemoryShuffle()
        backend.add("k", 1)
        backend.close()
        with pytest.raises(ExecutionError, match="closed"):
            list(backend.groups())

    def test_partitioned_groups_single_pass(self):
        backend = PartitionedShuffle(num_partitions=2, buffer_size=4)
        backend.add("k", 1)
        list(backend.groups())
        with pytest.raises(ExecutionError, match="single-pass"):
            list(backend.groups())

    def test_partitioned_encoded_runs_single_pass(self):
        backend = PartitionedShuffle(num_partitions=2, buffer_size=4)
        codes = np.array([1, 2], dtype=np.int64)
        batch = ColumnBatch({"v": np.array([5, 6], dtype=np.int64)})
        backend.add_encoded(codes, None, batch, {1: "a", 2: "b"})
        list(backend.encoded_runs())
        with pytest.raises(ExecutionError, match="single-pass"):
            list(backend.encoded_runs())


class TestDataPlaneConfiguration:
    def test_invalid_data_plane_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="data_plane"):
            ClusterConfig(data_plane="vectorized")

    def test_with_capacity_preserves_data_plane(self):
        config = ClusterConfig(data_plane="columnar")
        assert config.with_capacity(10).data_plane == "columnar"


class TestTimingsInstrumentation:
    WORDS = sorted({(x * 37) % 64 for x in range(40)})

    @pytest.mark.parametrize("plane", ["records", "columnar"])
    def test_job_metrics_carry_phase_timings(self, plane):
        engine = MapReduceEngine(ClusterConfig(data_plane=plane))
        result = engine.run(SplittingSchema(6, 3).job(), self.WORDS)
        timings = result.metrics.timings
        assert timings is not None
        assert timings.map_seconds >= 0.0
        assert timings.shuffle_seconds >= 0.0
        assert timings.reduce_seconds >= 0.0
        assert timings.total_seconds == pytest.approx(
            timings.map_seconds + timings.shuffle_seconds + timings.reduce_seconds
        )

    def test_summary_excludes_timings(self):
        engine = MapReduceEngine(ClusterConfig(data_plane="columnar"))
        result = engine.run(SplittingSchema(6, 3).job(), self.WORDS)
        assert not any(key.endswith("seconds") for key in result.metrics.summary())
        assert not any(key.endswith("_s") for key in result.metrics.summary())


class TestFallbackRules:
    def test_unencodable_inputs_fall_back_to_record_path(self):
        """String words decline encoding; outputs still match the record path."""
        from repro.datagen.relations import RelationInstance
        from repro.problems.joins import JoinQuery
        from repro.schemas.join_shares import SharesSchema

        r = RelationInstance(
            name="R", attributes=("A", "B"), tuples=(("x", "p"), ("y", "q"))
        )
        s = RelationInstance(
            name="S", attributes=("B", "C"), tuples=(("p", "u"), ("q", "v"))
        )
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 2}, domain_size=4)
        records = SharesSchema.input_records([r, s])
        outputs = {}
        for plane in ("records", "columnar"):
            engine = MapReduceEngine(ClusterConfig(data_plane=plane))
            outputs[plane] = engine.run(schema.job([r, s]), records).outputs
        assert outputs["records"] == outputs["columnar"]
        assert len(outputs["records"]) == 2
