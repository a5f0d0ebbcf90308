"""Typed columnar batches and the vectorized (columnar) data plane.

The record data plane moves one Python object at a time through
map → shuffle → reduce.  That is the bit-identity oracle, but for the
regular, integer-heavy workloads this library studies (edge lists,
bitstrings, matrix entries) it spends most of its time in the interpreter.
This module provides the columnar alternative:

* :class:`ColumnBatch` — a set of named, equally-long 1-D numpy arrays
  standing in for a list of records;
* :class:`BatchKernel` — the vectorized counterpart of a job's
  mapper/reducer pair: ``encode`` packs records into a batch, ``map_batch``
  computes every emitted pair's reducer key as an integer *code* with array
  arithmetic, and ``reduce_groups`` / ``reduce_group`` produce outputs from
  contiguous group slices;
* :class:`EncodedRun` — a block of shuffled groups in global stable-hash
  order, pair-aligned, as produced by the shuffle backends'
  ``encoded_runs``;
* :func:`choose_plane`, :func:`map_batch` and :func:`reduce_runs` — the
  plane decision and the two batch phases that
  :func:`~repro.mapreduce.executor.execute` runs in place of the record
  phases.

Bit-identity contract
---------------------
The columnar plane is an *optimization*, never a semantic change: for any
job, outputs and every cost metric (communication, reducer sizes, worker
loads, compute cost) must equal the record path's exactly.  The pieces that
guarantee this:

* codes are decoded to the record path's reduce keys, and groups are
  ordered by the shared ``(stable_hash(key), repr(key))`` rule
  (:func:`build_encoded_run`);
* within a group, pair arrival order is preserved (stable sorts only);
* metric accounting goes through the same
  :class:`~repro.mapreduce.executor._ReduceBookkeeper` as the record
  plane, fed the same sizes in the same order.

A kernel's reduce is total: :func:`reduce_runs` makes one
``reduce_groups`` call per run, and its outputs are the run's outputs.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import ConfigurationError, ExecutionError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import ShuffleBackend, _group_order_key

if TYPE_CHECKING:
    from repro.mapreduce.executor import _ReduceBookkeeper


class BatchEncodingError(Exception):
    """Raised by a kernel's ``encode`` when records do not fit its layout.

    This is a *decline*, not a failure: :func:`choose_plane` catches it
    and the job runs on the record plane instead.  Kernels raise it for
    inputs outside their typed schema (wrong arity, non-integer fields,
    values overflowing the column dtype, ...).
    """


# ----------------------------------------------------------------------
# Column batches
# ----------------------------------------------------------------------
class ColumnBatch:
    """Named, equally-long 1-D arrays standing in for a list of records.

    Batches are immutable by convention: every operation returns a new
    batch (``take``) or a view (``slice``); callers never mutate columns
    in place (spill read-back hands out read-only buffer views).
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Dict[str, Any]) -> None:
        if not columns:
            raise ConfigurationError("a ColumnBatch needs at least one column")
        length: Optional[int] = None
        for name, column in columns.items():
            if getattr(column, "ndim", None) != 1:
                raise ConfigurationError(
                    f"column {name!r} must be a 1-D array, got {column!r}"
                )
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ConfigurationError(
                    f"column {name!r} has length {len(column)}, expected "
                    f"{length}; all columns of a batch must align"
                )
        self.columns = columns

    def __len__(self) -> int:
        for column in self.columns.values():
            return len(column)
        return 0  # pragma: no cover - constructor forbids zero columns

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str):
        return self.columns[name]

    def take(self, indices) -> "ColumnBatch":
        """Gather rows by index (a copy; accepts any integer array)."""
        return ColumnBatch(
            {name: column[indices] for name, column in self.columns.items()}
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Contiguous row range as zero-copy views."""
        return ColumnBatch(
            {name: column[start:stop] for name, column in self.columns.items()}
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        if not batches:
            raise ConfigurationError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        return cls(
            {
                name: np.concatenate([batch.columns[name] for batch in batches])
                for name in first.columns
            }
        )

    @classmethod
    def from_int_tuples(
        cls, records: Sequence[Any], names: Sequence[str]
    ) -> "ColumnBatch":
        """Pack uniform tuples of Python ints into int64 columns.

        Raises :class:`BatchEncodingError` (a fallback signal, not a
        failure) when the records are ragged, non-integer, or overflow
        int64 — exactly the inputs the record path must keep handling.
        """
        try:
            table = np.asarray(records)
        except (ValueError, OverflowError) as error:
            raise BatchEncodingError(f"records are not a uniform table: {error}")
        if table.ndim != 2 or table.shape[1] != len(names):
            raise BatchEncodingError(
                f"expected tuples of arity {len(names)}, got array of shape "
                f"{table.shape}"
            )
        # kind 'i' only: floats would silently truncate, bools and objects
        # (int64 overflow) would change reduce-key identity.
        if table.dtype.kind != "i":
            raise BatchEncodingError(
                f"records are not int64-representable (dtype {table.dtype})"
            )
        table = table.astype(np.int64, copy=False)
        return cls({name: table[:, i].copy() for i, name in enumerate(names)})


# ----------------------------------------------------------------------
# Encoded shuffle runs
# ----------------------------------------------------------------------
@dataclass
class EncodedRun:
    """A block of shuffled groups, sorted and pair-aligned.

    Groups appear in the global record-path order —
    ascending ``(stable_hash(key), repr(key))`` — and group ``g`` owns the
    contiguous value rows ``values[starts[g]:starts[g+1]]``, in mapper
    arrival order.
    """

    keys: List[Hashable]
    codes: Any  # int64 array, one code per group, aligned with ``keys``
    sizes: Any  # int64 array, one size per group
    starts: Any  # int64 array of length ``len(keys) + 1`` (prefix sums)
    values: ColumnBatch

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    def group_values(self, index: int) -> ColumnBatch:
        return self.values.slice(int(self.starts[index]), int(self.starts[index + 1]))


def build_encoded_run(
    entries: Sequence[Tuple[Any, Optional[Any], Any]],
    keys_by_code: Dict[int, Hashable],
) -> Optional[EncodedRun]:
    """Sort raw ``(codes, row_indices, batch)`` entries into one run.

    ``row_indices`` maps each code to its source row in ``batch``
    (``None`` when the batch is already pair-aligned).  The group order is
    the record-path contract; pair order within a group is arrival order
    (entry order, then row order — a stable argsort preserves it).
    Returns ``None`` for empty input.
    """
    live = [entry for entry in entries if len(entry[0]) > 0]
    if not live:
        return None
    all_codes = (
        live[0][0]
        if len(live) == 1
        else np.concatenate([codes for codes, _, _ in live])
    )
    aligned: List[ColumnBatch] = []
    for codes, rows, batch in live:
        aligned.append(batch if rows is None else batch.take(rows))
    combined = ColumnBatch.concat(aligned)
    unique_codes, inverse = np.unique(all_codes, return_inverse=True)
    # stable_hash is a digest of repr() and cannot be vectorized, so the
    # ordering work happens once per distinct reduce key, in Python, and
    # is then broadcast back over the pairs through a rank array.
    code_list = unique_codes.tolist()
    order = sorted(
        range(len(code_list)),
        key=lambda position: _group_order_key(keys_by_code[code_list[position]]),
    )
    rank = np.empty(len(code_list), dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(len(order), dtype=np.int64)
    pair_rank = rank[inverse]
    permutation = np.argsort(pair_rank, kind="stable")
    sizes = np.bincount(pair_rank, minlength=len(code_list)).astype(np.int64)
    starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64))
    )
    return EncodedRun(
        keys=[keys_by_code[code_list[position]] for position in order],
        codes=unique_codes[np.asarray(order, dtype=np.int64)],
        sizes=sizes,
        starts=starts,
        values=combined.take(permutation),
    )


# ----------------------------------------------------------------------
# Zero-copy spill format
# ----------------------------------------------------------------------
#: Chunk header magic for struct-packed columnar spill blocks.
_SPILL_MAGIC = b"RCB1"
_CHUNK_HEADER = struct.Struct("<qi")
_COLUMN_HEADER = struct.Struct("<iiq")


def pack_encoded_chunk(codes: Any, batch: ColumnBatch) -> bytes:
    """Serialize one (codes, pair-aligned batch) chunk as raw column bytes.

    Unlike the record plane's pickled spills, no per-record Python objects
    are created: each column is written as one contiguous ``tobytes`` blob
    and read back with ``numpy.frombuffer`` (:func:`unpack_encoded_chunks`).
    """
    code_array = np.ascontiguousarray(codes, dtype=np.int64)
    parts: List[bytes] = [
        _SPILL_MAGIC,
        _CHUNK_HEADER.pack(len(code_array), len(batch.columns)),
        code_array.tobytes(),
    ]
    for name, column in batch.columns.items():
        data = np.ascontiguousarray(column).tobytes()
        name_bytes = name.encode("utf-8")
        dtype_bytes = column.dtype.str.encode("ascii")
        parts.append(
            _COLUMN_HEADER.pack(len(name_bytes), len(dtype_bytes), len(data))
        )
        parts.append(name_bytes)
        parts.append(dtype_bytes)
        parts.append(data)
    return b"".join(parts)


def unpack_encoded_chunks(payload: bytes) -> Iterator[Tuple[Any, ColumnBatch]]:
    """Yield ``(codes, batch)`` chunks from concatenated packed blocks.

    Arrays are zero-copy views onto ``payload`` (read-only, like all
    shuffle-held batches).
    """
    offset, total = 0, len(payload)
    while offset < total:
        if payload[offset : offset + 4] != _SPILL_MAGIC:
            raise ExecutionError(
                "corrupt columnar spill chunk: bad magic at offset "
                f"{offset} of {total} bytes"
            )
        offset += 4
        num_pairs, num_columns = _CHUNK_HEADER.unpack_from(payload, offset)
        offset += _CHUNK_HEADER.size
        codes = np.frombuffer(payload, dtype=np.int64, count=num_pairs, offset=offset)
        offset += num_pairs * 8
        columns: Dict[str, Any] = {}
        for _ in range(num_columns):
            name_len, dtype_len, data_len = _COLUMN_HEADER.unpack_from(
                payload, offset
            )
            offset += _COLUMN_HEADER.size
            name = payload[offset : offset + name_len].decode("utf-8")
            offset += name_len
            dtype = np.dtype(payload[offset : offset + dtype_len].decode("ascii"))
            offset += dtype_len
            columns[name] = np.frombuffer(
                payload, dtype=dtype, count=data_len // dtype.itemsize, offset=offset
            )
            offset += data_len
        yield codes, ColumnBatch(columns)


# ----------------------------------------------------------------------
# Kernel protocol
# ----------------------------------------------------------------------
class BatchKernel:
    """Vectorized counterpart of a job's mapper/reducer pair.

    A kernel must be *behaviourally identical* to the scalar functions of
    the job that carries it: same reduce keys, same per-key value
    multisets in the same arrival order, same outputs in the same order.
    The record plane is the oracle; the equivalence tests enforce it.

    Subclasses implement:

    ``encode(records) -> ColumnBatch``
        Pack a materialized record list into typed columns, or raise
        :class:`BatchEncodingError` to send the job down the record path.
    ``map_batch(batch) -> (codes, row_indices, values)``
        The whole map phase as array arithmetic: one int64 *code* per
        emitted pair.  ``values`` is the pair's value payload —
        either pair-aligned (``row_indices is None``) or indexed into by
        ``row_indices``.
    ``key_of_code(code) -> Hashable``
        Decode a code into the exact reduce key the scalar mapper emits.
        Called once per distinct code.

    and the reduce, which is total — it never declines:

    ``reduce_groups(run) -> List``
        Every output of an :class:`EncodedRun`'s groups, in run order, as
        a new list the caller may keep.  Whole-run kernels vectorize across
        all groups; the default loops over the groups and calls
        ``reduce_group``.
    ``reduce_group(key, code, values) -> Iterable``
        The outputs of one group, vectorized within it — what a per-group
        kernel implements instead of ``reduce_groups``.
    """

    def encode(self, records: Sequence[Any]) -> ColumnBatch:
        raise NotImplementedError

    def map_batch(
        self, batch: ColumnBatch
    ) -> Tuple[Any, Optional[Any], ColumnBatch]:
        raise NotImplementedError

    def key_of_code(self, code: int) -> Hashable:
        raise NotImplementedError

    def reduce_groups(self, run: EncodedRun) -> List[Any]:
        outputs: List[Any] = []
        code_list = run.codes.tolist()
        for index, key in enumerate(run.keys):
            try:
                outputs.extend(
                    self.reduce_group(key, code_list[index], run.group_values(index))
                )
            except Exception as error:
                raise ExecutionError(
                    f"reduce_group on key {key!r}: {error}"
                ) from error
        return outputs

    def reduce_group(
        self, key: Hashable, code: int, values: ColumnBatch
    ) -> Iterable[Any]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Vectorization helpers shared by the schema kernels
# ----------------------------------------------------------------------
def unique_sorted_within_groups(
    group_ids: Any, values: Any
) -> Tuple[Any, Any]:
    """Per-group ``sorted(set(values))``, vectorized across all groups.

    Both inputs are parallel 1-D arrays; the result keeps group blocks in
    ascending ``group_ids`` order with values ascending and deduplicated
    inside each block — exactly the scalar reducers' canonical ordering.
    """
    order = np.lexsort((values, group_ids))
    sorted_groups = group_ids[order]
    sorted_values = values[order]
    if len(sorted_groups) == 0:
        return sorted_groups, sorted_values
    keep = np.empty(len(sorted_groups), dtype=bool)
    keep[0] = True
    keep[1:] = (sorted_groups[1:] != sorted_groups[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    return sorted_groups[keep], sorted_values[keep]


def pairs_within_groups(sizes: Any) -> Tuple[Any, Any, Any]:
    """All index pairs ``i < j`` inside each group, in nested-loop order.

    Given group sizes ``s_0, s_1, ...`` (groups laid out contiguously),
    returns ``(group_of_pair, left_local, right_local)`` where the pairs
    of group ``g`` appear consecutively in the row-major
    ``for i: for j > i`` order the scalar all-pairs reducers use.  Built
    from one ``triu_indices`` template per *distinct* size, written
    straight into the output at each group's offset — no per-group Python
    loop.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    pair_counts = sizes * (sizes - 1) // 2
    out_starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(pair_counts, dtype=np.int64))
    )
    total = int(out_starts[-1])
    group_of_pair = np.repeat(np.arange(len(sizes), dtype=np.int64), pair_counts)
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    for size in np.unique(sizes).tolist():
        if size < 2:
            continue
        template_left, template_right = np.triu_indices(size, k=1)
        members = np.nonzero(sizes == size)[0]
        positions = (
            out_starts[members][:, None]
            + np.arange(len(template_left), dtype=np.int64)[None, :]
        ).ravel()
        left[positions] = np.tile(template_left, len(members))
        right[positions] = np.tile(template_right, len(members))
    return group_of_pair, left, right


# ----------------------------------------------------------------------
# Pipeline-intermediate spilling
# ----------------------------------------------------------------------
class SpilledRows:
    """Uniform int tuples spilled to disk as one packed int64 table.

    The pipeline executor uses this to keep multi-round cascades from
    holding every intermediate resident: rows are written once as raw
    column bytes (no per-record pickling) and re-materialized lazily —
    iteration yields bit-identical Python tuples.  Supports repeated
    iteration and ``len``, which is all the downstream rounds need.
    """

    def __init__(self, path: str, num_rows: int, num_columns: int) -> None:
        self.path = path
        self.num_rows = num_rows
        self.num_columns = num_columns
        self.nbytes = num_rows * num_columns * 8

    @classmethod
    def try_spill(
        cls, rows: Sequence[Any], directory: Optional[str] = None
    ) -> Optional["SpilledRows"]:
        """Spill ``rows`` if they form a uniform int table, else ``None``.

        ``None`` means "keep them in memory": ragged, non-integer or
        overflowing rows are outside the packed layout, and silently
        coercing them would break bit identity.
        """
        if not rows:
            return None
        try:
            table = np.asarray(rows)
        except (ValueError, OverflowError):  # pragma: no cover - numpy>=2 raises below
            return None
        if table.ndim != 2 or table.dtype.kind != "i":
            return None
        table = table.astype(np.int64, copy=False)
        handle, path = tempfile.mkstemp(
            prefix="repro-intermediate-", suffix=".cols", dir=directory
        )
        spilled = cls(path, table.shape[0], table.shape[1])
        try:
            with os.fdopen(handle, "wb") as sink:
                sink.write(table.tobytes())
        except BaseException:
            spilled.close()  # no half-written file outlives a failed spill
            raise
        return spilled

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        with open(self.path, "rb") as source:
            payload = source.read()
        table = np.frombuffer(payload, dtype=np.int64).reshape(
            self.num_rows, self.num_columns
        )
        for row in table.tolist():
            yield tuple(row)

    def close(self) -> None:
        try:
            os.remove(self.path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


# ----------------------------------------------------------------------
# The batch plane: decision, map phase, reduce phase
# ----------------------------------------------------------------------
def choose_plane(
    job: MapReduceJob,
    inputs: Iterable[Any],
    backend: ShuffleBackend,
    config: ClusterConfig,
) -> Tuple[Iterable[Any], Optional[ColumnBatch]]:
    """Decide, once per run, whether ``job`` runs on encoded batches.

    Returns ``(inputs, batch)``: the encoded ``batch`` when the batch plane
    applies, else ``None``, with the reason it was declined counted in
    ``plane_declined_total{reason}``.  A decline is never an error: the
    record plane runs the job unchanged, so asking for
    ``data_plane="columnar"`` is always safe.  Encoding needs the records
    twice on a declined encode, so ``inputs`` comes back materialized
    whenever encoding was attempted.
    """
    batch: Optional[ColumnBatch] = None
    reason: Optional[str] = None
    if job.batch_kernel is None:
        reason = "no-kernel"
    elif job.combiner is not None:
        # Combiners re-group inside map tasks, which the single-pass
        # encoded shuffle has no equivalent for.
        reason = "combiner"
    elif not getattr(backend, "supports_encoded", False):
        reason = "backend-not-encoded"
    else:
        if not isinstance(inputs, (list, tuple)):
            inputs = list(inputs)
        try:
            batch = job.batch_kernel.encode(inputs)
        except BatchEncodingError:
            reason = "encoding"
    if reason is not None and config.metrics.enabled:
        config.metrics.counter(
            "plane_declined_total",
            "Runs that asked for the columnar plane and ran on records",
        ).inc(reason=reason)
    return inputs, batch


def map_batch(job: MapReduceJob, batch: ColumnBatch, backend: ShuffleBackend) -> None:
    """The whole map phase as array arithmetic, written to ``backend``."""
    kernel = job.batch_kernel
    try:
        codes, row_indices, values = kernel.map_batch(batch)
    except Exception as error:
        raise ExecutionError(
            f"batch kernel of job {job.name!r} failed in map_batch: {error}"
        ) from error
    keys_by_code = {
        code: kernel.key_of_code(code) for code in np.unique(codes).tolist()
    }
    backend.add_encoded(codes, row_indices, values, keys_by_code)


def reduce_runs(
    job: MapReduceJob, runs: Iterable[EncodedRun], bookkeeper: _ReduceBookkeeper
) -> List[Any]:
    """The reduce phase over encoded runs: one kernel call per run."""
    kernel = job.batch_kernel
    outputs: List[Any] = []
    for run in runs:
        # Observe every group of the run first (in global order): capacity
        # violations must surface at the same key, with the same
        # already-accounted prefix, as the record plane.
        for key, size in zip(run.keys, run.sizes.tolist()):
            bookkeeper.observe_size(key, size)
        try:
            produced = kernel.reduce_groups(run)
        except Exception as error:
            raise ExecutionError(
                f"batch kernel of job {job.name!r} failed in reduce_groups: "
                f"{error}"
            ) from error
        # The first run's fresh list becomes the output list, so a one-run
        # job (every in-memory shuffle) never copies its outputs.
        if outputs:
            outputs.extend(produced)
        else:
            outputs = produced
    return outputs


__all__ = [
    "BatchEncodingError",
    "BatchKernel",
    "ColumnBatch",
    "EncodedRun",
    "SpilledRows",
    "build_encoded_run",
    "choose_plane",
    "map_batch",
    "pack_encoded_chunk",
    "pairs_within_groups",
    "reduce_runs",
    "unique_sorted_within_groups",
    "unpack_encoded_chunks",
]
