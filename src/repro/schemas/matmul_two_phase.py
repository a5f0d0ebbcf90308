"""Two-phase matrix multiplication (Section 6.3).

Phase 1 computes partial sums: each first-phase reducer is responsible for a
cube of the index space — ``s`` rows ``i``, ``s`` columns ``k`` and ``t``
middle indices ``j`` — and emits one partial sum per ``(i, k)`` pair in its
cube.  Phase 2 groups the partial sums by ``(i, k)`` and adds them.  The
paper shows the total communication of the two phases is minimized at aspect
ratio 2:1 (``s = 2t``), i.e. ``s = √q`` and ``t = √q / 2`` when reducers may
take ``q = 2st`` inputs, giving total communication ``4n³/√q`` — always at
least as good as the one-phase method's ``4n⁴/q`` and strictly better for
every ``q < n²``.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import (
    BatchEncodingError,
    BatchKernel,
    ColumnBatch,
    EncodedRun,
)
from repro.mapreduce.job import JobChain, MapReduceJob
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.schemas.matmul_one_phase import (
    accumulate_tiles,
    decode_element_records,
    encode_element_records,
)

ElementRecord = Tuple[str, int, int, float]
CubeId = Tuple[int, int, int]


class TwoPhaseMatMulAlgorithm:
    """The two-round algorithm parameterized by the cube sides ``s`` and ``t``.

    Unlike the single-round constructions this is not a mapping schema in the
    strict one-round sense of the model; it is exposed as a job chain for the
    engine plus closed-form communication accounting, which is exactly how
    Section 6.3 treats it.

    Parameters
    ----------
    n:
        Matrix dimension.
    s:
        Number of rows of R (and columns of S) per first-phase reducer; must
        divide ``n``.
    t:
        Number of middle indices ``j`` per first-phase reducer; must divide
        ``n``.
    """

    def __init__(self, n: int, s: int, t: int) -> None:
        if n <= 0:
            raise ConfigurationError(f"matrix dimension must be positive, got {n}")
        if s <= 0 or n % s != 0:
            raise ConfigurationError(f"s={s} must be positive and divide n={n}")
        if t <= 0 or n % t != 0:
            raise ConfigurationError(f"t={t} must be positive and divide n={n}")
        self.n = n
        self.s = s
        self.t = t
        self.name = f"two-phase-matmul(n={n}, s={s}, t={t})"
        # Reduce keys by batch-plane code, decoded once per algorithm: every
        # chain built from it (one per execution of a cached plan) shares
        # the same key objects instead of allocating fresh tuples per run.
        self.cube_keys = _DecodedKeys(self._cube_of_code)
        self.entry_keys = _DecodedKeys(self._entry_of_code)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def row_group(self, i: int) -> int:
        return i // self.s

    def column_group(self, k: int) -> int:
        return k // self.s

    def middle_group(self, j: int) -> int:
        return j // self.t

    @property
    def num_row_groups(self) -> int:
        return self.n // self.s

    @property
    def num_middle_groups(self) -> int:
        return self.n // self.t

    @property
    def num_first_phase_reducers(self) -> int:
        """``(n/s)² · (n/t)`` cubes."""
        return self.num_row_groups * self.num_row_groups * self.num_middle_groups

    def _cube_of_code(self, code: int) -> CubeId:
        tile, middle = divmod(code, self.num_middle_groups)
        return (tile // self.num_row_groups, tile % self.num_row_groups, middle)

    def _entry_of_code(self, code: int) -> Tuple[int, int]:
        return divmod(code, self.n)

    def reducers_for_element(self, matrix: str, i: int, j: int) -> Iterator[CubeId]:
        """First-phase cubes needing element (i, j) of R or (j, k) of S."""
        if matrix == "R":
            row = self.row_group(i)
            middle = self.middle_group(j)
            for column in range(self.num_row_groups):
                yield (row, column, middle)
        elif matrix == "S":
            middle = self.middle_group(i)
            column = self.column_group(j)
            for row in range(self.num_row_groups):
                yield (row, column, middle)
        else:
            raise ConfigurationError(f"unknown matrix tag {matrix!r}; expected 'R' or 'S'")

    # ------------------------------------------------------------------
    # Closed-form accounting (Section 6.3)
    # ------------------------------------------------------------------
    @property
    def first_phase_reducer_size(self) -> int:
        """``q = 2st``: s·t elements of R plus s·t elements of S per cube."""
        return 2 * self.s * self.t

    def first_phase_communication(self) -> float:
        """``2n³ / s`` — each of the 2n² elements goes to n/s cubes."""
        return 2.0 * self.n ** 3 / self.s

    def second_phase_communication(self) -> float:
        """``n³ / t`` — s² partial sums from each of the (n/s)²(n/t) cubes."""
        return float(self.n ** 3) / self.t

    def total_communication(self) -> float:
        """``2n³/s + n³/t``; equals ``4n³/√q`` at the optimal aspect ratio."""
        return self.first_phase_communication() + self.second_phase_communication()

    # ------------------------------------------------------------------
    # Optimal parameter choice
    # ------------------------------------------------------------------
    @classmethod
    def optimal_for_reducer_size(cls, n: int, q: float) -> "TwoPhaseMatMulAlgorithm":
        """The 2:1 aspect-ratio optimum ``s = √q``, ``t = √q / 2``.

        The continuous optimum is rounded to divisors of ``n``; the paper's
        constraint is ``2st = q``.  Requires ``q >= 2`` so that ``t >= 1``.
        """
        if q < 2:
            raise ConfigurationError("two-phase matrix multiplication needs q >= 2")
        target_s = max(1.0, min(float(n), math.sqrt(q)))
        target_t = max(1.0, min(float(n), math.sqrt(q) / 2.0))
        s = _nearest_divisor(n, target_s)
        t = _nearest_divisor(n, target_t)
        return cls(n, s, t)

    # ------------------------------------------------------------------
    # Executable job chain
    # ------------------------------------------------------------------
    def chain(self) -> JobChain:
        """The two-round job chain: partial sums, then final aggregation.

        The second round's mappers are co-located with the first round's
        reducers (the chain records this), matching the paper's statement
        that no communication is needed between them.
        """
        algorithm = self

        def first_mapper(record: ElementRecord):
            matrix, i, j, value = record
            for cube in algorithm.reducers_for_element(matrix, i, j):
                yield (cube, record)

        def first_reducer(cube: CubeId, records: List[ElementRecord]):
            row_elements: dict[Tuple[int, int], float] = {}
            column_elements: dict[Tuple[int, int], float] = {}
            for matrix, i, j, value in records:
                if matrix == "R":
                    row_elements[(i, j)] = value
                else:
                    column_elements[(i, j)] = value
            row_start = cube[0] * algorithm.s
            column_start = cube[1] * algorithm.s
            middle_start = cube[2] * algorithm.t
            for i in range(row_start, row_start + algorithm.s):
                for k in range(column_start, column_start + algorithm.s):
                    partial = 0.0
                    contributed = False
                    for j in range(middle_start, middle_start + algorithm.t):
                        left = row_elements.get((i, j))
                        right = column_elements.get((j, k))
                        if left is not None and right is not None:
                            partial += left * right
                            contributed = True
                    if contributed:
                        yield ((i, k), partial)

        def second_mapper(record: Tuple[Tuple[int, int], float]):
            (i, k), partial = record
            yield ((i, k), partial)

        def second_reducer(key: Tuple[int, int], partials: List[float]):
            i, k = key
            yield (i, k, sum(partials))

        first_job = MapReduceJob(
            mapper=first_mapper,
            reducer=first_reducer,
            name=f"{self.name}/phase-1",
            reducer_capacity=self.first_phase_reducer_size,
            batch_kernel=CubePartialSumBatchKernel(self),
        )
        second_job = MapReduceJob(
            mapper=second_mapper,
            reducer=second_reducer,
            name=f"{self.name}/phase-2",
            batch_kernel=PartialSumAggregationBatchKernel(self),
        )
        return JobChain(jobs=[first_job, second_job], name=self.name, colocated_rounds=(1,))


class CubePartialSumBatchKernel(BatchKernel):
    """Vectorized twin of the first-phase (partial sum) job.

    Cubes ``(row, column, middle)`` become the code
    ``(row · n/s + column) · n/t + middle``.  A whole run of cubes is
    reduced at once by :func:`repro.schemas.matmul_one_phase.accumulate_tiles`,
    each cube restricted to its middle-index band; only contributing
    ``(i, k)`` pairs emit, cube by cube in run order and in the scalar
    reducer's row-major order within a cube.
    """

    def __init__(self, algorithm: TwoPhaseMatMulAlgorithm) -> None:
        self.algorithm = algorithm

    def encode(self, records) -> ColumnBatch:
        return encode_element_records(records, self.algorithm.n)

    def decode_records(self, values: ColumnBatch) -> List[ElementRecord]:
        return decode_element_records(values)

    def map_batch(self, batch: ColumnBatch):
        import numpy as np

        algorithm = self.algorithm
        row_groups = algorithm.num_row_groups
        middle_groups = algorithm.num_middle_groups
        tags = batch.column("m")
        is_left = tags == 0
        # R(i, j): cube middle comes from j; S(j, k): from i.
        middle = np.where(
            is_left,
            batch.column("j") // algorithm.t,
            batch.column("i") // algorithm.t,
        )
        # R fans out along a row of cubes (ascending column group), S down a
        # column (ascending row group) — the scalar mapper's loop order.
        anchor = np.where(
            is_left,
            (batch.column("i") // algorithm.s) * row_groups,
            batch.column("j") // algorithm.s,
        )
        step = np.where(is_left, 1, row_groups)
        codes = (
            anchor[:, None] + step[:, None] * np.arange(row_groups, dtype=np.int64)[None, :]
        ) * middle_groups + middle[:, None]
        row_indices = np.repeat(np.arange(len(tags), dtype=np.int64), row_groups)
        return codes.ravel(), row_indices, batch

    def key_of_code(self, code: int) -> CubeId:
        return self.algorithm.cube_keys[int(code)]

    def reduce_groups(self, run: EncodedRun):
        import numpy as np

        algorithm = self.algorithm
        s = algorithm.s
        tiles, middles = np.divmod(run.codes, algorithm.num_middle_groups)
        rows, columns = np.divmod(tiles, algorithm.num_row_groups)
        # First row, column and middle index of each cube of the run.
        row_start, column_start = rows * s, columns * s
        groups = np.repeat(np.arange(run.num_groups, dtype=np.int64), run.sizes)
        values = run.values
        totals, contributed = accumulate_tiles(
            groups,
            run.num_groups,
            values.column("m"),
            values.column("i"),
            values.column("j"),
            values.column("val"),
            (row_start[groups], column_start[groups], middles[groups] * algorithm.t),
            (s, s, algorithm.t),
        )
        local = np.arange(s, dtype=np.int64)
        row_ids = np.broadcast_to(
            row_start[:, None, None] + local[None, :, None], totals.shape
        )
        column_ids = np.broadcast_to(
            column_start[:, None, None] + local[None, None, :], totals.shape
        )
        emit = contributed.ravel()
        return [
            ((i, k), partial)
            for i, k, partial in zip(
                row_ids.ravel()[emit].tolist(),
                column_ids.ravel()[emit].tolist(),
                totals.ravel()[emit].tolist(),
            )
        ]


class PartialSumAggregationBatchKernel(BatchKernel):
    """Vectorized twin of the second-phase (final aggregation) job.

    Keys ``(i, k)`` become ``i · n + k``; each record emits exactly once,
    so the value batch is already pair-aligned.  The per-key reduce is the
    scalar ``sum(partials)`` on the arrival-ordered Python floats — the
    addition order is the bit-identity contract, so no numpy pairwise sum.
    A whole run is reduced at once: one ``tolist()`` of its values, then
    ``sum`` over each group's slice.
    """

    def __init__(self, algorithm: TwoPhaseMatMulAlgorithm) -> None:
        self.algorithm = algorithm

    def encode(self, records) -> ColumnBatch:
        import numpy as np

        row_ids: List[int] = []
        column_ids: List[int] = []
        values: List[float] = []
        try:
            for (i, k), partial in records:
                if (
                    type(i) is not int
                    or type(k) is not int
                    or type(partial) is not float
                ):
                    raise BatchEncodingError(
                        "partial-sum records must carry plain int indices "
                        "and a plain float value"
                    )
                row_ids.append(i)
                column_ids.append(k)
                values.append(partial)
        except (TypeError, ValueError) as error:
            raise BatchEncodingError(f"records are not partial sums: {error}")
        index_low = min(min(row_ids, default=0), min(column_ids, default=0))
        index_high = max(max(row_ids, default=0), max(column_ids, default=0))
        if index_low < 0 or index_high >= self.algorithm.n:
            raise BatchEncodingError(
                f"partial-sum indices fall outside [0, n={self.algorithm.n})"
            )
        return ColumnBatch(
            {
                "i": np.asarray(row_ids, dtype=np.int64),
                "k": np.asarray(column_ids, dtype=np.int64),
                "val": np.asarray(values, dtype=np.float64),
            }
        )

    def decode_records(self, values: ColumnBatch) -> List[float]:
        return values.column("val").tolist()

    def map_batch(self, batch: ColumnBatch):
        codes = batch.column("i") * self.algorithm.n + batch.column("k")
        return codes, None, batch

    def key_of_code(self, code: int) -> Tuple[int, int]:
        return self.algorithm.entry_keys[int(code)]

    def reduce_groups(self, run: EncodedRun):
        partials = run.values.column("val").tolist()
        starts = run.starts.tolist()
        return [
            (i, k, sum(partials[start:stop]))
            for (i, k), start, stop in zip(run.keys, starts, starts[1:])
        ]

    def reduce_group(self, key: Tuple[int, int], code: int, values: ColumnBatch):
        # Never reached by ``reduce_runs`` (``reduce_groups`` always answers);
        # the per-group form the whole-run reduce is tested against.
        return [(key[0], key[1], sum(values.column("val").tolist()))]


class _DecodedKeys(dict):
    """Batch-plane code -> reduce key, decoded on first use and then shared."""

    def __init__(self, decode: Callable[[int], Hashable]) -> None:
        self.decode = decode

    def __missing__(self, code: int) -> Hashable:
        key = self[code] = self.decode(code)
        return key


def _nearest_divisor(n: int, target: float) -> int:
    """The divisor of ``n`` closest to ``target`` (ties go to the smaller)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return min(divisors, key=lambda d: (abs(d - target), d))


def one_phase_total_communication(n: int, q: float) -> float:
    """Section 6.3's one-phase total communication ``4n⁴ / q``."""
    if q <= 0:
        return float("inf")
    return 4.0 * n ** 4 / q


def two_phase_total_communication(n: int, q: float) -> float:
    """Section 6.3's optimal two-phase total communication ``4n³ / √q``."""
    if q <= 0:
        return float("inf")
    return 4.0 * n ** 3 / math.sqrt(q)


def communication_crossover_q(n: int) -> float:
    """The reducer size at which the two methods tie: ``q = n²``."""
    return float(n * n)
