"""One-round matrix multiplication by output tiling (Section 6.2).

Let ``s`` divide ``n``.  Partition the rows of R into ``n/s`` groups of
``s`` rows and the columns of S into ``n/s`` groups of ``s`` columns.  One
reducer exists per (row group, column group) pair; it receives the ``2sn``
elements of its rows and columns and produces the ``s²`` product elements of
its output tile.  Every input element is needed by the ``n/s`` reducers
pairing its group with each opposite-side group, so the replication rate is
``n/s = 2n²/q`` — exactly the Section 6.1 lower bound.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import BatchEncodingError, BatchKernel, ColumnBatch
from repro.mapreduce.job import MapReduceJob
from repro.problems.matmul import MatrixMultiplicationProblem

ElementRecord = Tuple[str, int, int, float]
TileId = Tuple[int, int]

_MATRIX_TAGS = {"R": 0, "S": 1}


def encode_element_records(records, n: int) -> ColumnBatch:
    """Pack element records into (tag, i, j, value) columns, or decline.

    Shared by the matrix-multiplication kernels.  Values must be plain
    Python floats (as :func:`repro.datagen.matrix_to_records` produces):
    coercing ints or decimals to float64 silently would let the decoded
    records drift from the originals and break bit identity.
    """
    tags: List[int] = []
    row_ids: List[int] = []
    column_ids: List[int] = []
    values: List[float] = []
    try:
        for matrix, i, j, value in records:
            tags.append(_MATRIX_TAGS[matrix])
            if (
                type(i) is not int
                or type(j) is not int
                or type(value) is not float
            ):
                raise BatchEncodingError(
                    "element records must carry plain int indices and a "
                    "plain float value"
                )
            row_ids.append(i)
            column_ids.append(j)
            values.append(value)
    except (KeyError, TypeError, ValueError) as error:
        raise BatchEncodingError(f"records are not element records: {error}")
    index_low = min(min(row_ids, default=0), min(column_ids, default=0))
    index_high = max(max(row_ids, default=0), max(column_ids, default=0))
    if index_low < 0 or index_high >= n:
        raise BatchEncodingError(f"element indices fall outside [0, n={n})")
    return ColumnBatch(
        {
            "m": np.asarray(tags, dtype=np.int64),
            "i": np.asarray(row_ids, dtype=np.int64),
            "j": np.asarray(column_ids, dtype=np.int64),
            "val": np.asarray(values, dtype=np.float64),
        }
    )


def accumulate_tiles(groups, num_groups, tags, row_ids, column_ids, values, starts, shape):
    """Per-tile products of many tiles at once, in the scalar reducers' order.

    Element ``p`` belongs to tile ``groups[p]``, whose row, column and
    middle index ranges begin at ``starts`` (per-element arrays or scalars)
    and span ``shape = (rows, columns, middles)``.  Builds dense
    (tiles × rows × middles) / (tiles × middles × columns) operand blocks
    with presence masks, then accumulates ``j`` strictly in ascending
    order: IEEE addition order is part of the bit-identity contract, so a
    single ``matmul`` (pairwise summation, different rounding) is off the
    table.  Missing pairs contribute an exact ``+0.0``, which is a bitwise
    no-op on every total this accumulation can produce.  Returns
    ``(totals, contributed)``, each of shape ``(num_groups, rows, columns)``.
    """
    row_start, column_start, middle_start = starts
    rows, columns, middles = shape
    left = np.zeros((num_groups, rows, middles))
    left_present = np.zeros((num_groups, rows, middles), dtype=bool)
    right = np.zeros((num_groups, middles, columns))
    right_present = np.zeros((num_groups, middles, columns), dtype=bool)
    is_left = tags == 0
    is_right = ~is_left
    # Duplicate (i, j) records overwrite in arrival order, matching the
    # scalar reducers' dict construction.
    at = (
        groups[is_left],
        (row_ids - row_start)[is_left],
        (column_ids - middle_start)[is_left],
    )
    left[at] = values[is_left]
    left_present[at] = True
    at = (
        groups[is_right],
        (row_ids - middle_start)[is_right],
        (column_ids - column_start)[is_right],
    )
    right[at] = values[is_right]
    right_present[at] = True
    totals = np.zeros((num_groups, rows, columns))
    contributed = np.zeros((num_groups, rows, columns), dtype=bool)
    for middle in range(middles):
        both = left_present[:, :, middle, None] & right_present[:, None, middle, :]
        product = left[:, :, middle, None] * right[:, None, middle, :]
        totals += np.where(both, product, 0.0)
        contributed |= both
    return totals, contributed


class OnePhaseTilingSchema(SchemaFamily):
    """Square output tiling with group size ``s`` (rows of R / columns of S).

    Parameters
    ----------
    n:
        Matrix dimension; ``group_size`` must divide it.
    group_size:
        The parameter ``s``; reducer size is ``q = 2sn`` and replication rate
        ``n/s``.
    """

    def __init__(self, n: int, group_size: int) -> None:
        if n <= 0:
            raise ConfigurationError(f"matrix dimension must be positive, got {n}")
        if group_size <= 0 or n % group_size != 0:
            raise ConfigurationError(
                f"group_size={group_size} must be positive and divide n={n}"
            )
        self.n = n
        self.group_size = group_size
        self.num_groups = n // group_size
        self.name = f"one-phase-tiling(n={n}, s={group_size})"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def row_group(self, i: int) -> int:
        return i // self.group_size

    def column_group(self, k: int) -> int:
        return k // self.group_size

    def reducers_for_element(self, matrix: str, i: int, j: int) -> Iterator[TileId]:
        """Reducers (tiles) needing element ``(i, j)`` of matrix R or S."""
        if matrix == "R":
            row = self.row_group(i)
            for column in range(self.num_groups):
                yield (row, column)
        elif matrix == "S":
            column = self.column_group(j)
            for row in range(self.num_groups):
                yield (row, column)
        else:
            raise ConfigurationError(f"unknown matrix tag {matrix!r}; expected 'R' or 'S'")

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, MatrixMultiplicationProblem):
            raise ConfigurationError(
                "OnePhaseTilingSchema serves MatrixMultiplicationProblem instances"
            )
        if problem.n != self.n:
            raise ConfigurationError(
                f"schema built for n={self.n} cannot serve a problem with n={problem.n}"
            )
        schema = MappingSchema(problem, q=int(self.max_reducer_size_formula()), name=self.name)
        for input_id in problem.inputs():
            matrix, i, j = input_id
            for tile in self.reducers_for_element(matrix, i, j):
                schema.assign_one(tile, input_id)
        return schema

    def replication_rate_formula(self) -> float:
        """``r = n / s = 2n² / q`` — matches the lower bound exactly."""
        return float(self.num_groups)

    def max_reducer_size_formula(self) -> float:
        """``q = 2sn``: s full rows of R plus s full columns of S."""
        return 2.0 * self.group_size * self.n

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self) -> MapReduceJob:
        """Job computing the product from element records.

        Input records are ``("R", i, j, value)`` / ``("S", j, k, value)``;
        output records are ``(i, k, value)`` with each product element
        produced by exactly one reducer (its tile).
        """
        schema = self

        def mapper(record: ElementRecord):
            matrix, i, j, value = record
            for tile in schema.reducers_for_element(matrix, i, j):
                yield (tile, record)

        def reducer(tile: TileId, records: List[ElementRecord]):
            row_elements: dict[Tuple[int, int], float] = {}
            column_elements: dict[Tuple[int, int], float] = {}
            for matrix, i, j, value in records:
                if matrix == "R":
                    row_elements[(i, j)] = value
                else:
                    column_elements[(i, j)] = value
            row_start = tile[0] * schema.group_size
            column_start = tile[1] * schema.group_size
            for i in range(row_start, row_start + schema.group_size):
                for k in range(column_start, column_start + schema.group_size):
                    total = 0.0
                    for j in range(schema.n):
                        left = row_elements.get((i, j))
                        right = column_elements.get((j, k))
                        if left is not None and right is not None:
                            total += left * right
                    yield (i, k, total)

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            reducer_capacity=int(self.max_reducer_size_formula()),
            batch_kernel=OnePhaseTilingBatchKernel(self),
        )

    # ------------------------------------------------------------------
    # Sizing helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_reducer_size(cls, n: int, q: float) -> "OnePhaseTilingSchema":
        """The largest tiling that fits reducers of ``q`` inputs (``s = q/2n``).

        Requires ``q >= 2n`` (below that no reducer can produce any output,
        as Section 6.2 notes) and rounds ``s`` down to a divisor of ``n``.
        """
        if q < 2 * n:
            raise ConfigurationError(
                f"one-round matrix multiplication needs q >= 2n = {2 * n}, got {q}"
            )
        target = min(n, int(q // (2 * n)))
        for s in range(target, 0, -1):
            if n % s == 0:
                return cls(n, s)
        return cls(n, 1)

    def total_communication(self) -> float:
        """Total shuffled elements ``r · |I| = (n/s) · 2n²`` (Section 6.3's 4n⁴/q)."""
        return self.replication_rate_formula() * 2.0 * self.n * self.n


class OnePhaseTilingBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`OnePhaseTilingSchema.job`.

    Tiles ``(row, column)`` become the code ``row · (n/s) + column``.  An R
    element fans out along a tile row (ascending column group), an S element
    down a tile column (ascending row group) — the same order as the scalar
    mapper.  The per-tile reduce accumulates products middle-index by
    middle-index (see :func:`accumulate_tiles`) so float totals are
    bit-identical to the scalar reducer's sequential sums.
    """

    def __init__(self, schema: OnePhaseTilingSchema) -> None:
        self.schema = schema

    def encode(self, records) -> ColumnBatch:
        return encode_element_records(records, self.schema.n)

    def map_batch(self, batch: ColumnBatch):
        schema = self.schema
        groups = schema.num_groups
        size = schema.group_size
        tags = batch.column("m")
        anchor = np.where(
            tags == 0,
            (batch.column("i") // size) * groups,
            batch.column("j") // size,
        )
        step = np.where(tags == 0, 1, groups)
        codes = (
            anchor[:, None] + step[:, None] * np.arange(groups, dtype=np.int64)[None, :]
        )
        row_indices = np.repeat(np.arange(len(tags), dtype=np.int64), groups)
        return codes.ravel(), row_indices, batch

    def key_of_code(self, code: int) -> TileId:
        code = int(code)
        return (code // self.schema.num_groups, code % self.schema.num_groups)

    def reduce_group(self, key: TileId, code: int, values: ColumnBatch):
        schema = self.schema
        size = schema.group_size
        row_start = key[0] * size
        column_start = key[1] * size
        totals, _ = accumulate_tiles(
            np.zeros(len(values), dtype=np.int64),
            1,
            values.column("m"),
            values.column("i"),
            values.column("j"),
            values.column("val"),
            (row_start, column_start, 0),
            (size, size, schema.n),
        )
        row_ids = np.repeat(
            np.arange(row_start, row_start + size, dtype=np.int64), size
        )
        column_ids = np.tile(
            np.arange(column_start, column_start + size, dtype=np.int64), size
        )
        return list(
            zip(row_ids.tolist(), column_ids.tolist(), totals.ravel().tolist())
        )


def matmul_upper_bound(n: int, q: float) -> float:
    """Table 2's ``r = 2n²/q`` for ``2n <= q <= 2n²``, reached by tiling."""
    if n <= 0:
        raise ConfigurationError("matrix dimension must be positive")
    if q < 2 * n:
        return float("inf")
    return max(1.0, 2.0 * n * n / q)
