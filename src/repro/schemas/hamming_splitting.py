"""Schemas for Hamming distance 1: the Splitting algorithm and the extremes.

Section 3.3 describes three constructions that meet the ``b / log2 q`` lower
bound exactly:

* ``q = 2``: one reducer per potential output pair, replication rate ``b``;
* ``q = 2^b``: a single reducer holding the whole universe, rate 1;
* the Splitting algorithm: for any ``c`` dividing ``b``, split each string
  into ``c`` segments; a reducer corresponds to a (group index, remaining
  bits) pair obtained by deleting one segment.  Reducer size is ``2^{b/c}``
  and the replication rate is exactly ``c = b / log2 q``.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import (
    BatchEncodingError,
    BatchKernel,
    ColumnBatch,
    EncodedRun,
    pairs_within_groups,
    unique_sorted_within_groups,
)
from repro.mapreduce.job import MapReduceJob
from repro.problems.hamming import HammingDistanceProblem


def _encode_words(records, b: int) -> ColumnBatch:
    """Pack bare bit-string ints into a one-column batch, or decline.

    Shared by the Hamming kernels: words must be plain ints inside
    ``[0, 2^b)`` with ``b`` small enough that reducer codes stay exact
    int64 arithmetic.
    """
    if b > 62:
        raise BatchEncodingError(f"b={b} exceeds exact int64 code arithmetic")
    if not hasattr(np, "bitwise_count"):  # numpy < 2.0: no popcount ufunc
        raise BatchEncodingError("numpy >= 2.0 is required for popcount kernels")
    try:
        words = np.asarray(records)
    except (ValueError, OverflowError) as error:
        raise BatchEncodingError(f"words are not a uniform int array: {error}")
    if words.ndim != 1 or (len(words) > 0 and words.dtype.kind != "i"):
        raise BatchEncodingError(
            f"expected plain int words, got array of shape {words.shape} "
            f"and dtype {words.dtype}"
        )
    words = words.astype(np.int64, copy=False)
    if len(words) > 0 and (int(words.min()) < 0 or int(words.max()) >= 1 << b):
        raise BatchEncodingError(f"words fall outside [0, 2^{b})")
    return ColumnBatch({"word": words})


def _group_pairs(run: EncodedRun):
    """Per-group ``sorted(set(words))`` and all ``i < j`` pairs of the run.

    Returns ``(group_of_pair, left_words, right_words)`` with pairs laid
    out group-major in the run's order and nested-loop order inside each
    group — the scalar all-pairs reducers' iteration order exactly.
    """
    group_ids = np.repeat(np.arange(run.num_groups, dtype=np.int64), run.sizes)
    groups, words = unique_sorted_within_groups(group_ids, run.values.column("word"))
    sizes = np.bincount(groups, minlength=run.num_groups)
    group_of_pair, left, right = pairs_within_groups(sizes)
    starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64))
    )
    base = starts[group_of_pair]
    return group_of_pair, words[base + left], words[base + right]


def _single_bit_positions(differences):
    """Bit index of each value of an array of single-bit ints.

    Powers of two up to ``2^62`` are exact in float64, so ``frexp``'s
    exponent recovers the position without a per-element Python loop.
    """
    _, exponents = np.frexp(differences.astype(np.float64))
    return exponents.astype(np.int64) - 1


def _check_problem(problem: Problem) -> HammingDistanceProblem:
    if not isinstance(problem, HammingDistanceProblem):
        raise ConfigurationError(
            "Hamming-distance schemas require a HammingDistanceProblem, "
            f"got {type(problem).__name__}"
        )
    if problem.distance != 1:
        raise ConfigurationError(
            "the Splitting schema as implemented targets Hamming distance 1; "
            "use HammingDistanceDSchema for larger distances"
        )
    return problem


class SplittingSchema(SchemaFamily):
    """The Splitting algorithm with ``c`` segments (Section 3.3).

    Parameters
    ----------
    b:
        Bit-string length.
    num_segments:
        The parameter ``c``; must divide ``b``.  ``c = 1`` degenerates to the
        single-reducer schema, ``c = b`` to the one-reducer-per-pair schema.
    """

    def __init__(self, b: int, num_segments: int) -> None:
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        if num_segments <= 0 or b % num_segments != 0:
            raise ConfigurationError(
                f"num_segments={num_segments} must be positive and divide b={b}"
            )
        self.b = b
        self.num_segments = num_segments
        self.segment_length = b // num_segments
        self.name = f"splitting(b={b}, c={num_segments})"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def reducers_for(self, word: int) -> Iterator[Tuple[int, int]]:
        """Yield the ``c`` reducer ids an input string is sent to.

        Reducer ids are ``(group index i, residual bits)`` where the residual
        is the string with its i-th segment deleted.
        """
        for group in range(self.num_segments):
            yield (group, self._delete_segment(word, group))

    def _delete_segment(self, word: int, group: int) -> int:
        """Remove the ``group``-th segment (counting from the most significant)."""
        seg_len = self.segment_length
        total = self.b
        # Bits above the deleted segment (more significant side).
        high_shift = total - group * seg_len
        high = word >> high_shift if group > 0 else 0
        # Bits below the deleted segment (less significant side).
        low_bits = total - (group + 1) * seg_len
        low = word & ((1 << low_bits) - 1) if low_bits > 0 else 0
        return (high << low_bits) | low

    def emitting_group(self, u: int, v: int) -> int:
        """The unique group index at which the pair {u, v} is emitted.

        Strings at distance 1 differ in exactly one segment; the reducer of
        that group covers the pair, and we designate it as the one that
        emits, so every output is produced exactly once.
        """
        difference = u ^ v
        highest = difference.bit_length() - 1
        position_from_left = self.b - 1 - highest
        return position_from_left // self.segment_length

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        hamming = _check_problem(problem)
        if hamming.b != self.b:
            raise ConfigurationError(
                f"schema built for b={self.b} cannot serve a problem with b={hamming.b}"
            )
        schema = MappingSchema(
            problem, q=int(self.max_reducer_size_formula()), name=self.name
        )
        for word in problem.inputs():
            for reducer_id in self.reducers_for(word):
                schema.assign_one(reducer_id, word)
        return schema

    def replication_rate_formula(self) -> float:
        """Each input is sent to exactly ``c`` reducers."""
        return float(self.num_segments)

    def max_reducer_size_formula(self) -> float:
        """Each reducer receives the ``2^{b/c}`` strings sharing its residual."""
        return float(2 ** self.segment_length)

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self) -> MapReduceJob:
        """Map-reduce job finding all distance-1 pairs among present inputs.

        The mapper routes each string to its ``c`` reducers; each reducer
        compares the strings it received and emits a pair only if it is that
        pair's designated emitting group, so outputs are produced exactly
        once across the whole job.
        """
        schema = self

        def mapper(word: int):
            for reducer_id in schema.reducers_for(word):
                yield (reducer_id, word)

        def reducer(reducer_id: Tuple[int, int], words: List[int]):
            group, _ = reducer_id
            ordered = sorted(set(words))
            for index, first in enumerate(ordered):
                for second in ordered[index + 1 :]:
                    if (first ^ second).bit_count() != 1:
                        continue
                    if schema.emitting_group(first, second) == group:
                        yield (first, second)

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            reducer_capacity=int(self.max_reducer_size_formula()),
            batch_kernel=SplittingBatchKernel(self),
        )


class SplittingBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`SplittingSchema.job`.

    Reducer keys ``(group, residual)`` are encoded as
    ``group * 2^(b - b/c) + residual``.  The reduce runs across all groups
    of a run at once: deduplicate words per group, enumerate the
    nested-loop pairs, keep those at Hamming distance one whose differing
    bit lies in the reducer's own segment.
    """

    def __init__(self, schema: SplittingSchema) -> None:
        self.schema = schema
        self._residual_bits = schema.b - schema.segment_length

    def encode(self, records) -> ColumnBatch:
        return _encode_words(records, self.schema.b)

    def map_batch(self, batch: ColumnBatch):
        schema = self.schema
        words = batch.column("word")
        seg_len, total = schema.segment_length, schema.b
        residual_radix = 1 << self._residual_bits
        codes = np.empty((len(words), schema.num_segments), dtype=np.int64)
        for group in range(schema.num_segments):
            high_shift = total - group * seg_len
            high = words >> high_shift if group > 0 else 0
            low_bits = total - (group + 1) * seg_len
            low = words & ((1 << low_bits) - 1) if low_bits > 0 else 0
            codes[:, group] = group * residual_radix + ((high << low_bits) | low)
        row_indices = np.repeat(
            np.arange(len(words), dtype=np.int64), schema.num_segments
        )
        return codes.ravel(), row_indices, batch

    def key_of_code(self, code: int) -> Tuple[int, int]:
        code = int(code)
        return (code >> self._residual_bits, code % (1 << self._residual_bits))

    def reduce_groups(self, run: EncodedRun) -> List[Tuple[int, int]]:
        group_of_pair, left, right = _group_pairs(run)
        if len(left) == 0:
            return []
        difference = left ^ right
        keep = np.bitwise_count(difference) == 1
        key_groups = run.codes >> self._residual_bits
        positions = _single_bit_positions(np.where(keep, difference, 1))
        emitting = (self.schema.b - 1 - positions) // self.schema.segment_length
        keep &= emitting == key_groups[group_of_pair]
        return list(zip(left[keep].tolist(), right[keep].tolist()))


class PairReducersSchema(SchemaFamily):
    """The ``q = 2`` extreme: one reducer per potential distance-1 pair.

    Every string is sent to the ``b`` reducers of the pairs it belongs to, so
    the replication rate is exactly ``b``, matching ``b / log2 2``.
    """

    def __init__(self, b: int) -> None:
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        self.b = b
        self.name = f"pair-reducers(b={b})"

    def reducers_for(self, word: int) -> Iterator[Tuple[int, int]]:
        for position in range(self.b):
            other = word ^ (1 << position)
            yield (min(word, other), max(word, other))

    def build(self, problem: Problem) -> MappingSchema:
        hamming = _check_problem(problem)
        if hamming.b != self.b:
            raise ConfigurationError(
                f"schema built for b={self.b} cannot serve a problem with b={hamming.b}"
            )
        schema = MappingSchema(problem, q=2, name=self.name)
        for word in problem.inputs():
            for reducer_id in self.reducers_for(word):
                schema.assign_one(reducer_id, word)
        return schema

    def replication_rate_formula(self) -> float:
        return float(self.b)

    def max_reducer_size_formula(self) -> float:
        return 2.0

    def job(self) -> MapReduceJob:
        """Executable job: each pair-reducer emits its pair if both arrived."""
        schema = self

        def mapper(word: int):
            for reducer_id in schema.reducers_for(word):
                yield (reducer_id, word)

        def reducer(reducer_id: Tuple[int, int], words: List[int]):
            present = set(words)
            first, second = reducer_id
            if first in present and second in present:
                yield (first, second)

        return MapReduceJob(mapper=mapper, reducer=reducer, name=self.name, reducer_capacity=2)


class SingleReducerSchema(SchemaFamily):
    """The ``q = 2^b`` extreme: the whole universe at one reducer (r = 1)."""

    def __init__(self, b: int) -> None:
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        self.b = b
        self.name = f"single-reducer(b={b})"

    def build(self, problem: Problem) -> MappingSchema:
        hamming = _check_problem(problem)
        if hamming.b != self.b:
            raise ConfigurationError(
                f"schema built for b={self.b} cannot serve a problem with b={hamming.b}"
            )
        schema = MappingSchema(problem, q=1 << self.b, name=self.name)
        schema.assign("all", problem.inputs())
        return schema

    def replication_rate_formula(self) -> float:
        return 1.0

    def max_reducer_size_formula(self) -> float:
        return float(1 << self.b)

    def job(self) -> MapReduceJob:
        def mapper(word: int):
            yield ("all", word)

        def reducer(_key: str, words: List[int]):
            ordered = sorted(set(words))
            for index, first in enumerate(ordered):
                for second in ordered[index + 1 :]:
                    if (first ^ second).bit_count() == 1:
                        yield (first, second)

        return MapReduceJob(mapper=mapper, reducer=reducer, name=self.name)


def splitting_points(b: int) -> List[Tuple[int, float, float]]:
    """The Fig. 1 dots: (c, log2 q, r) for every c dividing b.

    Returns tuples ``(c, log2 q = b / c, replication rate = c)``; these are
    the known algorithms matching the lower bound on replication rate.
    """
    points = []
    for c in range(1, b + 1):
        if b % c == 0:
            points.append((c, b / c, float(c)))
    return points


def hamming1_upper_bound(b: int, q: float) -> float:
    """Table 2's idealized ``r = b / log2 q`` for the Splitting algorithm.

    Exact when ``log2 q`` divides ``b``; for other ``q`` the rate actually
    reached is :func:`hamming1_achievable_upper_bound`, never below this.
    """
    if b <= 0:
        raise ConfigurationError("b must be positive")
    if q < 2:
        return float("inf")
    return max(1.0, b / math.log2(q))


def hamming1_achievable_upper_bound(b: int, q: float) -> float:
    """The rate the Splitting family reaches within reducer size ``q``.

    The smallest segment count ``c`` dividing ``b`` whose reducer size
    ``2^{b/c}`` fits in ``q``; infinity when even ``c = b`` (reducer size 2)
    does not.
    """
    rates = [rate for _, log_q, rate in splitting_points(b) if 2.0 ** log_q <= q]
    return min(rates, default=float("inf"))
