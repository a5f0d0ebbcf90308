"""Schemas for Hamming distances larger than 1 (Section 3.6).

Two constructions are described in the paper:

* **Segment deletion** — generalizing the Splitting algorithm: divide the
  ``b`` bits into ``k`` equal segments; a reducer corresponds to a choice of
  ``d`` segments to delete plus the remaining bits.  Two strings within
  distance ``d`` differ in at most ``d`` segments, so the reducer obtained
  by deleting a superset of those segments covers the pair.  Each input is
  sent to ``C(k, d)`` reducers, giving replication rate ``C(k, d) ≈ (ek/d)^d``.

* **Ball-2 / anchor reducers** — one reducer per string ``s`` of length
  ``b`` receiving all strings at distance ≤ 1 from ``s``.  Every two strings
  at distance ≤ 2 share such an anchor, each reducer has ``q = b + 1``
  inputs, and the replication rate is ``b + 1``.  Its importance in the
  paper is the ``Ω(q²)`` output coverage that blocks a strong lower bound.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import BatchKernel, ColumnBatch, EncodedRun
from repro.mapreduce.job import MapReduceJob
from repro.problems.hamming import HammingDistanceProblem
from repro.schemas.hamming_splitting import _encode_words, _group_pairs


class SegmentDeletionSchema(SchemaFamily):
    """Generalized splitting for Hamming distance ``d`` (Section 3.6).

    Parameters
    ----------
    b:
        Bit-string length.
    num_segments:
        Number of equal segments ``k``; must divide ``b`` and satisfy
        ``k > d`` (otherwise deleting ``d`` segments leaves nothing to key on).
    distance:
        The target Hamming distance ``d``.
    """

    def __init__(self, b: int, num_segments: int, distance: int) -> None:
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        if num_segments <= 0 or b % num_segments != 0:
            raise ConfigurationError(
                f"num_segments={num_segments} must be positive and divide b={b}"
            )
        if distance <= 0 or distance >= num_segments:
            raise ConfigurationError(
                f"distance={distance} must satisfy 0 < d < num_segments={num_segments}"
            )
        self.b = b
        self.num_segments = num_segments
        self.distance = distance
        self.segment_length = b // num_segments
        self.name = f"segment-deletion(b={b}, k={num_segments}, d={distance})"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _segments(self, word: int) -> Tuple[int, ...]:
        mask = (1 << self.segment_length) - 1
        pieces = []
        for index in range(self.num_segments):
            shift = (self.num_segments - 1 - index) * self.segment_length
            pieces.append((word >> shift) & mask)
        return tuple(pieces)

    def reducers_for(self, word: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Yield the ``C(k, d)`` reducer ids for an input string.

        A reducer id is ``(deleted segment indices, remaining segment values)``.
        """
        segments = self._segments(word)
        for deleted in itertools.combinations(range(self.num_segments), self.distance):
            remaining = tuple(
                segments[index]
                for index in range(self.num_segments)
                if index not in deleted
            )
            yield (deleted, remaining)

    def emitting_reducer(
        self, u: int, v: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """A canonical reducer covering the pair {u, v} (for deduplication).

        The pair differs in at most ``d`` segments; take the lexicographically
        first choice of ``d`` segments that includes every differing one.
        """
        segments_u = self._segments(u)
        segments_v = self._segments(v)
        differing = [
            index
            for index in range(self.num_segments)
            if segments_u[index] != segments_v[index]
        ]
        if len(differing) > self.distance:
            raise ConfigurationError(
                f"strings differ in {len(differing)} segments, more than d={self.distance}"
            )
        padding = [
            index for index in range(self.num_segments) if index not in differing
        ]
        deleted = tuple(sorted(differing + padding[: self.distance - len(differing)]))
        remaining = tuple(
            segments_u[index]
            for index in range(self.num_segments)
            if index not in deleted
        )
        return (deleted, remaining)

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, HammingDistanceProblem):
            raise ConfigurationError(
                "segment-deletion schemas serve Hamming-distance problems"
            )
        if problem.b != self.b or problem.distance > self.distance:
            raise ConfigurationError(
                f"schema (b={self.b}, d={self.distance}) cannot serve problem "
                f"(b={problem.b}, d={problem.distance})"
            )
        schema = MappingSchema(
            problem, q=int(self.max_reducer_size_formula()), name=self.name
        )
        for word in problem.inputs():
            for reducer_id in self.reducers_for(word):
                schema.assign_one(reducer_id, word)
        return schema

    def replication_rate_formula(self) -> float:
        """Each input reaches exactly ``C(k, d)`` reducers."""
        return float(math.comb(self.num_segments, self.distance))

    def approximate_replication_rate(self) -> float:
        """The paper's Stirling form ``(e·k/d)^d`` (valid for k >> d)."""
        return (math.e * self.num_segments / self.distance) ** self.distance

    def max_reducer_size_formula(self) -> float:
        """Strings agreeing on the kept ``k - d`` segments: ``2^{b·d/k}``."""
        return float(2 ** (self.segment_length * self.distance))

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self, emit_distance: int | None = None) -> MapReduceJob:
        """Job emitting all pairs at Hamming distance <= d (or == emit_distance)."""
        schema = self
        target = emit_distance

        def mapper(word: int):
            for reducer_id in schema.reducers_for(word):
                yield (reducer_id, word)

        def reducer(reducer_id, words: List[int]):
            ordered = sorted(set(words))
            for index, first in enumerate(ordered):
                for second in ordered[index + 1 :]:
                    distance = (first ^ second).bit_count()
                    if distance > schema.distance or distance == 0:
                        continue
                    if target is not None and distance != target:
                        continue
                    if schema.emitting_reducer(first, second) == reducer_id:
                        yield (first, second)

        return MapReduceJob(mapper=mapper, reducer=reducer, name=self.name)


class BallTwoSchema(SchemaFamily):
    """The "Ball-2" construction from [3] discussed in Section 3.6.

    One reducer per anchor string ``s``; the reducer receives every string at
    Hamming distance at most 1 from ``s`` (that is, ``s`` itself and its
    ``b`` neighbours).  Any two strings at distance ≤ 2 have a common anchor,
    so the schema covers all distance-2 (and distance-1) pairs with
    ``q = b + 1`` and replication rate ``b + 1``.
    """

    def __init__(self, b: int) -> None:
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        self.b = b
        self.name = f"ball-2(b={b})"

    def reducers_for(self, word: int) -> Iterator[int]:
        """A string is sent to its own anchor and each neighbour's anchor."""
        yield word
        for position in range(self.b):
            yield word ^ (1 << position)

    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, HammingDistanceProblem):
            raise ConfigurationError("Ball-2 serves Hamming-distance problems")
        if problem.b != self.b or problem.distance > 2:
            raise ConfigurationError(
                f"Ball-2(b={self.b}) covers distances up to 2; got problem "
                f"(b={problem.b}, d={problem.distance})"
            )
        schema = MappingSchema(problem, q=self.b + 1, name=self.name)
        for word in problem.inputs():
            for anchor in self.reducers_for(word):
                schema.assign_one(anchor, word)
        return schema

    def replication_rate_formula(self) -> float:
        return float(self.b + 1)

    def max_reducer_size_formula(self) -> float:
        return float(self.b + 1)

    def outputs_covered_per_reducer(self) -> int:
        """Each anchor's ``b`` neighbours are pairwise at distance 2: C(b, 2).

        This is the ``Ω(q²)`` coverage that prevents an O(q log q)-style
        lower-bound argument for distance 2.
        """
        return math.comb(self.b, 2)

    def job(self, emit_distance: int | None = None) -> MapReduceJob:
        """Job emitting distance ≤ 2 pairs; deduplicated by the anchor rule.

        A pair {u, v} at distance 2 has exactly two common anchors (flip one
        of the two differing bits of u); we emit at the smaller anchor.  A
        pair at distance 1 is emitted at the smaller of the two strings
        (which is an anchor of the pair).  Pass ``emit_distance`` (1 or 2)
        to restrict the output to pairs at exactly that distance.
        """
        schema = self
        target = emit_distance

        def mapper(word: int):
            for anchor in schema.reducers_for(word):
                yield (anchor, word)

        def reducer(anchor: int, words: List[int]):
            ordered = sorted(set(words))
            for index, first in enumerate(ordered):
                for second in ordered[index + 1 :]:
                    distance = (first ^ second).bit_count()
                    if distance not in (1, 2):
                        continue
                    if target is not None and distance != target:
                        continue
                    difference = first ^ second
                    if distance == 1:
                        canonical_anchor = min(first, second)
                    else:
                        low_bit = difference & -difference
                        candidate_a = first ^ low_bit
                        candidate_b = second ^ low_bit
                        canonical_anchor = min(candidate_a, candidate_b)
                    if canonical_anchor == anchor:
                        yield (first, second)

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            batch_kernel=BallTwoBatchKernel(self, emit_distance),
        )


class BallTwoBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`BallTwoSchema.job`.

    The reducer key *is* the anchor string, so codes need no packing.  The
    reduce enumerates all nested-loop pairs of each group's deduplicated
    words in one pass over the run and applies the canonical-anchor rule
    (smaller string at distance 1, smaller low-bit-flipped common anchor
    at distance 2) with array arithmetic.
    """

    def __init__(self, schema: BallTwoSchema, emit_distance: Optional[int]) -> None:
        self.schema = schema
        self.emit_distance = emit_distance

    def encode(self, records) -> ColumnBatch:
        return _encode_words(records, self.schema.b)

    def map_batch(self, batch: ColumnBatch):
        words = batch.column("word")
        b = self.schema.b
        # The scalar mapper visits the word's own anchor first, then each
        # bit flip in ascending position order.
        codes = np.empty((len(words), b + 1), dtype=np.int64)
        codes[:, 0] = words
        for position in range(b):
            codes[:, position + 1] = words ^ (1 << position)
        row_indices = np.repeat(np.arange(len(words), dtype=np.int64), b + 1)
        return codes.ravel(), row_indices, batch

    def key_of_code(self, code: int) -> int:
        return int(code)

    def reduce_groups(self, run: EncodedRun) -> List[Tuple[int, int]]:
        group_of_pair, left, right = _group_pairs(run)
        if len(left) == 0:
            return []
        difference = left ^ right
        distance = np.bitwise_count(difference)
        keep = (distance == 1) | (distance == 2)
        if self.emit_distance is not None:
            keep &= distance == self.emit_distance
        low_bit = difference & -difference
        # distance 1: the smaller word (always ``left``, pairs are ordered)
        # is itself a common anchor; distance 2: flip the lower differing
        # bit in either word and take the smaller result.
        canonical = np.where(
            distance == 1,
            left,
            np.minimum(left ^ low_bit, right ^ low_bit),
        )
        keep &= canonical == run.codes[group_of_pair]
        return list(zip(left[keep].tolist(), right[keep].tolist()))
