"""Pluggable shuffle backends: where intermediate key-value pairs live.

The shuffle is the map → reduce boundary.  The engine streams mapper
emissions into a :class:`ShuffleBackend` one pair at a time and later asks
for the grouped data back, one reduce key at a time, in a deterministic
order.  Two implementations are provided:

* :class:`InMemoryShuffle` — a plain dictionary, fastest for workloads whose
  intermediate data fits in memory (the seed behaviour);
* :class:`PartitionedShuffle` — range-partitions the stable-hash space into
  ``num_partitions`` buckets and spills each bucket to a temporary file once
  its in-memory buffer fills up.  At reduce time only one partition is
  resident at a time, so peak memory is bounded by the largest partition
  plus the write buffers instead of the whole shuffle.

Both backends deliver groups in the same global order — ascending
``(stable_hash(key), repr(key))`` — and preserve the arrival order of the
values within each group, so swapping backends changes neither the outputs
nor the metrics of a job, only the memory profile.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ExecutionError
from repro.mapreduce.partitioner import stable_hash

#: stable_hash digests are 8 bytes, so the hash space is [0, 2^64).
_HASH_BITS = 64


def _group_order_key(key: Hashable) -> Tuple[int, str]:
    """Deterministic reduce-key ordering shared by every backend."""
    return (stable_hash(key), repr(key))


class ShuffleBackend(ABC):
    """Receives mapper emissions and hands back groups deterministically.

    The engine drives a backend through a strict lifecycle: any number of
    :meth:`add` calls, then one pass over :meth:`groups`, then
    :meth:`close`.  Backends are single-use; a new job gets a new backend.

    Backends that can hold typed column batches (the columnar data plane)
    additionally set :attr:`supports_encoded` and implement
    :meth:`add_encoded` / :meth:`encoded_runs`.  A backend instance serves
    one plane per lifetime: mixing record-at-a-time ``add`` calls with
    encoded-batch calls raises
    :class:`~repro.exceptions.ExecutionError`.
    """

    #: Whether this backend implements the encoded-batch (columnar) protocol.
    supports_encoded: bool = False

    @abstractmethod
    def add(self, key: Hashable, value: Any) -> None:
        """Accept one intermediate key-value pair from the map phase."""

    @abstractmethod
    def groups(self) -> Iterator[Tuple[Hashable, List[Any]]]:
        """Yield ``(key, values)`` groups in stable-hash order.

        Values appear in arrival order.  May only be consumed once, and
        only while the backend is open: a closed backend raises
        :class:`~repro.exceptions.ExecutionError` instead of silently
        yielding nothing.
        """

    def add_encoded(
        self,
        codes: Any,
        row_indices: Optional[Any],
        batch: Any,
        keys_by_code: Dict[int, Hashable],
    ) -> None:
        """Accept one encoded emission batch from the columnar map phase.

        ``codes`` is an int64 array with one reducer-key code per emitted
        pair, ``row_indices`` maps each pair back to its source row in
        ``batch`` (a :class:`repro.mapreduce.columnar.ColumnBatch`), or is
        ``None`` when ``batch`` is already pair-aligned, and
        ``keys_by_code`` decodes every distinct code appearing in ``codes``
        to the reduce key the record path would have used.  Communication
        accounting is identical to ``add``: one pair per code.
        """
        raise ConfigurationError(
            f"{type(self).__name__} cannot hold encoded column batches; "
            "use InMemoryShuffle or PartitionedShuffle for the columnar "
            "data plane"
        )

    def encoded_runs(self) -> Iterator[Any]:
        """Yield sorted :class:`repro.mapreduce.columnar.EncodedRun` blocks.

        Runs arrive in global stable-hash key order, and the groups inside
        one run are contiguous slices of its pair-aligned value batch in
        that same order.  Like :meth:`groups`, this is a single-pass
        iterator on spilling backends.
        """
        raise ConfigurationError(
            f"{type(self).__name__} cannot hold encoded column batches; "
            "use InMemoryShuffle or PartitionedShuffle for the columnar "
            "data plane"
        )

    @abstractmethod
    def close(self) -> None:
        """Release any resources (buffers, spill files).  Idempotent."""

    @property
    @abstractmethod
    def num_pairs(self) -> int:
        """Number of pairs that crossed the map → reduce boundary so far.

        Only meaningful while the backend is open; a closed backend raises
        :class:`~repro.exceptions.ExecutionError` rather than reporting a
        count whose underlying data is gone.
        """

    def __enter__(self) -> "ShuffleBackend":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class InMemoryShuffle(ShuffleBackend):
    """Dictionary-backed shuffle: everything stays resident (seed behaviour)."""

    supports_encoded = True

    def __init__(self) -> None:
        self._groups: Dict[Hashable, List[Any]] = {}
        self._num_pairs = 0
        self._closed = False
        # Encoded-batch (columnar) state: raw (codes, rows, batch) entries,
        # gathered lazily at read time so ingestion stays zero-copy.
        self._encoded: List[Tuple[Any, Optional[Any], Any]] = []
        self._encoded_keys: Dict[int, Hashable] = {}

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "shuffle backend already closed; backends are single-use — "
                "create a fresh one per executed job"
            )

    def _check_plane(self, encoded: bool) -> None:
        if encoded and self._groups:
            raise ExecutionError(
                "cannot add encoded column batches to an InMemoryShuffle "
                "already holding record-at-a-time pairs; one backend serves "
                "one data plane per job"
            )
        if not encoded and self._encoded:
            raise ExecutionError(
                "cannot add record-at-a-time pairs to an InMemoryShuffle "
                "already holding encoded column batches; one backend serves "
                "one data plane per job"
            )

    def add(self, key: Hashable, value: Any) -> None:
        self._check_open()
        self._check_plane(encoded=False)
        self._groups.setdefault(key, []).append(value)
        self._num_pairs += 1

    def add_encoded(
        self,
        codes: Any,
        row_indices: Optional[Any],
        batch: Any,
        keys_by_code: Dict[int, Hashable],
    ) -> None:
        self._check_open()
        self._check_plane(encoded=True)
        if len(codes) == 0:
            return
        self._encoded.append((codes, row_indices, batch))
        self._encoded_keys.update(keys_by_code)
        self._num_pairs += len(codes)

    def encoded_runs(self) -> Iterator[Any]:
        self._ensure_readable()
        if self._groups:
            raise ExecutionError(
                "this InMemoryShuffle holds record-at-a-time pairs; use "
                "groups() instead of encoded_runs()"
            )
        return self._iter_encoded_runs()

    def _iter_encoded_runs(self) -> Iterator[Any]:
        from repro.mapreduce.columnar import build_encoded_run

        self._ensure_readable()
        if self._encoded:
            run = build_encoded_run(self._encoded, self._encoded_keys)
            if run is not None:
                self._ensure_readable()
                yield run

    def _ensure_readable(self) -> None:
        if self._closed:
            raise ExecutionError(
                "cannot read groups from a closed InMemoryShuffle: its data "
                "was released on close(); create a fresh backend per job"
            )

    def groups(self) -> Iterator[Tuple[Hashable, List[Any]]]:
        # Checked eagerly (this is not a generator function) so a closed
        # backend fails at the groups() call, not on the first next().
        self._ensure_readable()
        return self._iter_groups()

    def _iter_groups(self) -> Iterator[Tuple[Hashable, List[Any]]]:
        # Re-checked on every step: a close() racing an already-obtained
        # iterator must raise, not quietly exhaust over emptied containers.
        self._ensure_readable()
        for key in sorted(self._groups.keys(), key=_group_order_key):
            self._ensure_readable()
            yield key, self._groups[key]

    def close(self) -> None:
        self._closed = True
        self._groups = {}
        self._encoded = []
        self._encoded_keys = {}

    @property
    def num_pairs(self) -> int:
        if self._closed:
            raise ExecutionError(
                "cannot read num_pairs from a closed InMemoryShuffle: read "
                "it before close(), or use the job metrics' communication "
                "cost, which records the same count"
            )
        return self._num_pairs


class PartitionedShuffle(ShuffleBackend):
    """Hash-range-partitioned shuffle that spills partitions to disk.

    On the record plane each spill is a pickled list of ``(key, value)``
    pairs.  On the columnar plane (:meth:`add_encoded`) a spill is a
    struct-packed block of raw column buffers — one contiguous ``tobytes``
    per column plus the pair's key codes — which is read back zero-copy
    with ``numpy.frombuffer``; no per-record Python objects are ever
    pickled.

    Parameters
    ----------
    num_partitions:
        Number of hash ranges.  Reduce-time peak memory is roughly the
        shuffle size divided by this (plus the write buffers), assuming the
        stable hash spreads keys evenly.
    buffer_size:
        Pairs buffered per partition before a spill to that partition's file.
    spill_dir:
        Directory for spill files; a private temporary directory is created
        (lazily, on first spill) when omitted.
    """

    supports_encoded = True

    def __init__(
        self,
        num_partitions: int = 16,
        buffer_size: int = 8192,
        spill_dir: Optional[str] = None,
    ) -> None:
        if num_partitions <= 0:
            raise ConfigurationError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        if buffer_size <= 0:
            raise ConfigurationError(f"buffer_size must be positive, got {buffer_size}")
        self.num_partitions = num_partitions
        self.buffer_size = buffer_size
        self._spill_dir = spill_dir
        self._owns_spill_dir = spill_dir is None
        self._buffers: List[List[Tuple[Hashable, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._spill_paths: List[Optional[str]] = [None] * num_partitions
        self._num_pairs = 0
        self.spill_count = 0
        self.spilled_bytes = 0
        self._closed = False
        self._consumed = False
        # Encoded-batch (columnar) state: per-partition lists of
        # (codes, pair-aligned ColumnBatch) chunks plus buffered pair counts.
        self._plane: Optional[str] = None
        self._enc_buffers: List[List[Tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._enc_counts: List[int] = [0] * num_partitions
        self._code_key: Dict[int, Hashable] = {}
        self._code_part: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _partition_of(self, key: Hashable) -> int:
        # Range partitioning (not modulo): partition i holds a contiguous
        # slice of the hash space, so visiting partitions in index order and
        # sorting within each yields the global stable-hash order.
        return (stable_hash(key) * self.num_partitions) >> _HASH_BITS

    def _check_plane(self, plane: str) -> None:
        if self._plane is None:
            self._plane = plane
        elif self._plane != plane:
            raise ExecutionError(
                f"cannot mix {plane!r} ingestion with {self._plane!r} "
                "ingestion on one PartitionedShuffle; one backend serves "
                "one data plane per job"
            )

    def add(self, key: Hashable, value: Any) -> None:
        self._check_open()
        self._check_plane("records")
        index = self._partition_of(key)
        buffer = self._buffers[index]
        buffer.append((key, value))
        self._num_pairs += 1
        if len(buffer) >= self.buffer_size:
            self._spill(index)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "shuffle backend already closed; backends are single-use — "
                "create a fresh one per executed job"
            )

    def _spill_target(self, index: int) -> Tuple[str, str]:
        """Resolve (path, open mode) for one partition's next spill write."""
        path = self._spill_paths[index]
        if path is None:
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix="repro-shuffle-")
            path = os.path.join(self._spill_dir, f"partition-{index:05d}.spill")
            self._spill_paths[index] = path
            # Truncate on the first open: a caller-supplied spill_dir may
            # hold partition files left behind by an unclean earlier run,
            # and appending to them would silently resurrect stale pairs.
            return path, "wb"
        return path, "ab"

    def _spill(self, index: int) -> None:
        buffer = self._buffers[index]
        if not buffer:
            return
        path, mode = self._spill_target(index)
        payload = pickle.dumps(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, mode) as handle:
            handle.write(payload)
        self.spill_count += 1
        self.spilled_bytes += len(payload)
        self._buffers[index] = []

    # ------------------------------------------------------------------
    # Encoded-batch (columnar) ingest
    # ------------------------------------------------------------------
    def add_encoded(
        self,
        codes: Any,
        row_indices: Optional[Any],
        batch: Any,
        keys_by_code: Dict[int, Hashable],
    ) -> None:
        self._check_open()
        if len(codes) == 0:
            return
        self._check_plane("columnar")
        # Partition by the *decoded* key's stable hash, computed once per
        # distinct code — the hash-range invariant (partition i holds a
        # contiguous hash slice) is what makes partition-major read-back
        # come out in global stable-hash order, exactly like the record
        # plane.
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        partition_of_code = np.empty(len(unique_codes), dtype=np.int64)
        for position, code in enumerate(unique_codes.tolist()):
            part = self._code_part.get(code)
            if part is None:
                key = keys_by_code[code]
                self._code_key[code] = key
                part = (stable_hash(key) * self.num_partitions) >> _HASH_BITS
                self._code_part[code] = part
            partition_of_code[position] = part
        partitions = partition_of_code[inverse]
        self._num_pairs += len(codes)
        for part in np.unique(partitions).tolist():
            selection = np.nonzero(partitions == part)[0]
            part_codes = codes[selection]
            if row_indices is None:
                part_batch = batch.take(selection)
            else:
                part_batch = batch.take(row_indices[selection])
            self._enc_buffers[part].append((part_codes, part_batch))
            self._enc_counts[part] += len(part_codes)
            if self._enc_counts[part] >= self.buffer_size:
                self._spill_encoded(part)

    def _spill_encoded(self, index: int) -> None:
        from repro.mapreduce.columnar import pack_encoded_chunk

        chunks = self._enc_buffers[index]
        if not chunks:
            return
        path, mode = self._spill_target(index)
        with open(path, mode) as handle:
            for codes, values in chunks:
                payload = pack_encoded_chunk(codes, values)
                handle.write(payload)
                self.spilled_bytes += len(payload)
        self.spill_count += 1
        self._enc_buffers[index] = []
        self._enc_counts[index] = 0

    def encoded_runs(self) -> Iterator[Any]:
        self._ensure_readable()
        if self._plane == "records":
            raise ExecutionError(
                "this PartitionedShuffle holds record-at-a-time pairs; use "
                "groups() instead of encoded_runs()"
            )
        if self._consumed:
            raise ExecutionError(
                "PartitionedShuffle encoded_runs() is a single-pass iterator "
                "and was already consumed; its partition buffers are freed "
                "during the first traversal, so a second pass would yield "
                "incomplete runs — create a fresh backend per executed job"
            )
        self._consumed = True
        return self._iter_encoded_runs()

    def _iter_encoded_runs(self) -> Iterator[Any]:
        from repro.mapreduce.columnar import (
            build_encoded_run,
            unpack_encoded_chunks,
        )

        # One run per partition; partitions hold contiguous hash ranges, so
        # index order + sorting inside build_encoded_run reproduces the
        # global group order of the record plane.
        for index in range(self.num_partitions):
            self._ensure_readable()
            entries: List[Tuple[Any, Optional[Any], Any]] = []
            path = self._spill_paths[index]
            if path is not None and os.path.exists(path):
                with open(path, "rb") as handle:
                    payload = handle.read()
                for codes, values in unpack_encoded_chunks(payload):
                    entries.append((codes, None, values))
            for codes, values in self._enc_buffers[index]:
                entries.append((codes, None, values))
            # Free the sources before handing the run out, so only one
            # partition's data is resident at a time.
            self._enc_buffers[index] = []
            self._enc_counts[index] = 0
            run = build_encoded_run(entries, self._code_key)
            entries = []
            if run is not None:
                self._ensure_readable()
                yield run

    # ------------------------------------------------------------------
    # Grouped read-back
    # ------------------------------------------------------------------
    def _ensure_readable(self) -> None:
        if self._closed:
            raise ExecutionError(
                "cannot read groups from a closed PartitionedShuffle: its "
                "buffers were cleared and spill files removed on close(); "
                "create a fresh backend per job"
            )

    def groups(self) -> Iterator[Tuple[Hashable, List[Any]]]:
        """Single-pass iterator over the grouped pairs, in stable-hash order.

        The first pass frees each partition's buffers as it hands the
        partition out (that is the whole point of a spilling shuffle: only
        one partition resident at a time), so a second traversal would see
        cleared buffers next to intact spill files — silently wrong data.
        A repeated call is therefore an execution-lifecycle violation and
        raises :class:`~repro.exceptions.ExecutionError` loudly instead of
        yielding nothing.
        """
        self._ensure_readable()
        if self._plane == "columnar":
            raise ExecutionError(
                "this PartitionedShuffle holds encoded column batches; use "
                "encoded_runs() instead of groups()"
            )
        if self._consumed:
            raise ExecutionError(
                "PartitionedShuffle groups() is a single-pass iterator and "
                "was already consumed; its partition buffers are freed "
                "during the first traversal, so a second pass would yield "
                "incomplete groups — create a fresh backend per executed job"
            )
        self._consumed = True
        return self._iter_groups()

    def _iter_groups(self) -> Iterator[Tuple[Hashable, List[Any]]]:
        # Re-checked per partition and per group: a close() racing an
        # already-obtained iterator must raise, not quietly exhaust over
        # cleared buffers and removed spill files.
        for index in range(self.num_partitions):
            self._ensure_readable()
            grouped: Dict[Hashable, List[Any]] = {}
            for key, value in self._partition_pairs(index):
                grouped.setdefault(key, []).append(value)
            # Free the sources before handing the partition out, so only one
            # partition's data is resident at a time.
            self._buffers[index] = []
            for key in sorted(grouped.keys(), key=_group_order_key):
                self._ensure_readable()
                yield key, grouped[key]
            grouped = {}

    def _partition_pairs(self, index: int) -> Iterator[Tuple[Hashable, Any]]:
        """Spilled chunks first, then the live buffer: arrival order."""
        path = self._spill_paths[index]
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                while True:
                    try:
                        chunk = pickle.load(handle)
                    except EOFError:
                        break
                    for pair in chunk:
                        yield pair
        for pair in self._buffers[index]:
            yield pair

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffers = [[] for _ in range(self.num_partitions)]
        self._enc_buffers = [[] for _ in range(self.num_partitions)]
        self._enc_counts = [0] * self.num_partitions
        self._code_key = {}
        self._code_part = {}
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
        else:
            for path in self._spill_paths:
                if path is not None and os.path.exists(path):
                    try:
                        os.remove(path)
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
        self._spill_paths = [None] * self.num_partitions

    @property
    def num_pairs(self) -> int:
        if self._closed:
            raise ExecutionError(
                "cannot read num_pairs from a closed PartitionedShuffle: "
                "read it before close(), or use the job metrics' "
                "communication cost, which records the same count"
            )
        return self._num_pairs
