"""The 2-path schema of Section 5.4.2.

Nodes are hashed into ``k`` buckets.  Reducers are pairs ``[u, {i, j}]`` of a
middle node ``u`` and an unordered pair of bucket indices ``{i, j}`` with
``i != j``.  An edge ``(a, b)`` is sent to the ``2(k-1)`` reducers
``[b, {h(a), *}]`` and ``[a, {*, h(b)}]``, so the replication rate is
``2(k-1)``.  Each reducer receives roughly ``q = 2n/k`` edges, and the lower
bound ``2n/q = k`` is therefore within a factor of two of this construction.

The emission rule of the paper guarantees each 2-path is produced exactly
once: reducer ``[u, {i, j}]`` emits ``v-u-w`` if the endpoint buckets are
``{i, j}``, or if both endpoints hash to ``i`` and ``j = i + 1 (mod k)``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import (
    BatchEncodingError,
    BatchKernel,
    ColumnBatch,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import stable_hash
from repro.problems.subgraphs import TwoPathProblem

Edge = Tuple[int, int]
ReducerId = Tuple[int, FrozenSet[int]]


class TwoPathSchema(SchemaFamily):
    """Middle-node / bucket-pair schema for finding all paths of length two.

    Parameters
    ----------
    n:
        Number of nodes in the data-graph domain.
    num_buckets:
        The hash-bucket count ``k``; must be at least 2 so that bucket pairs
        exist.  ``k`` controls the tradeoff: ``q ≈ 2n/k`` and ``r = 2(k-1)``.
    hash_nodes:
        Hash-based bucketing (True) or contiguous bucketing (False).
    """

    def __init__(self, n: int, num_buckets: int, hash_nodes: bool = False) -> None:
        if n < 3:
            raise ConfigurationError(f"2-path finding needs n >= 3, got {n}")
        if num_buckets < 2 or num_buckets > n:
            raise ConfigurationError(
                f"num_buckets must be in [2, n={n}], got {num_buckets}"
            )
        self.n = n
        self.num_buckets = num_buckets
        self.hash_nodes = hash_nodes
        #: Nodes per contiguous bucket (the last bucket absorbs the remainder).
        self.group_size = math.ceil(n / num_buckets)
        self.name = f"two-path(n={n}, k={num_buckets})"

    # ------------------------------------------------------------------
    # Bucketing and routing
    # ------------------------------------------------------------------
    def bucket_of(self, node: int) -> int:
        if self.hash_nodes:
            return stable_hash(node) % self.num_buckets
        return min(node // self.group_size, self.num_buckets - 1)

    def reducers_for(self, edge: Edge) -> Iterator[ReducerId]:
        """The ``2(k-1)`` reducers an edge (a, b) is sent to."""
        a, b = edge
        bucket_a, bucket_b = self.bucket_of(a), self.bucket_of(b)
        for other in range(self.num_buckets):
            if other != bucket_a:
                yield (b, frozenset((bucket_a, other)))
            if other != bucket_b:
                yield (a, frozenset((bucket_b, other)))

    def emitting_reducer(self, v: int, u: int, w: int) -> ReducerId:
        """The reducer designated to emit the 2-path ``v - u - w``."""
        bucket_v, bucket_w = self.bucket_of(v), self.bucket_of(w)
        if bucket_v != bucket_w:
            return (u, frozenset((bucket_v, bucket_w)))
        neighbour = (bucket_v + 1) % self.num_buckets
        return (u, frozenset((bucket_v, neighbour)))

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, TwoPathProblem):
            raise ConfigurationError("TwoPathSchema serves TwoPathProblem instances")
        if problem.n != self.n:
            raise ConfigurationError(
                f"schema built for n={self.n} cannot serve a problem with n={problem.n}"
            )
        schema = MappingSchema(problem, q=None, name=self.name)
        for edge in problem.inputs():
            for reducer_id in self.reducers_for(edge):
                schema.assign_one(reducer_id, edge)
        schema.q = schema.max_reducer_size()
        return schema

    def replication_rate_formula(self) -> float:
        """Each edge reaches exactly ``2(k-1)`` reducers."""
        return 2.0 * (self.num_buckets - 1)

    def max_reducer_size_formula(self) -> float:
        """Approximately ``2n/k`` edges per reducer (Section 5.4.2)."""
        return 2.0 * self.n / self.num_buckets

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self) -> MapReduceJob:
        """Job emitting every present 2-path exactly once."""
        schema = self

        def mapper(edge: Edge):
            for reducer_id in schema.reducers_for(edge):
                yield (reducer_id, edge)

        def reducer(reducer_id: ReducerId, edges: List[Edge]):
            middle, _buckets = reducer_id
            neighbours = set()
            for a, b in set(edges):
                if a == middle:
                    neighbours.add(b)
                elif b == middle:
                    neighbours.add(a)
            ordered = sorted(neighbours)
            for index, v in enumerate(ordered):
                for w in ordered[index + 1 :]:
                    if schema.emitting_reducer(v, middle, w) == reducer_id:
                        yield (v, middle, w)

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            batch_kernel=TwoPathBatchKernel(self),
        )

    @classmethod
    def for_reducer_size(cls, n: int, q: float, hash_nodes: bool = False) -> "TwoPathSchema":
        """Pick ``k`` so that reducers receive about ``q`` edges (``k = 2n/q``)."""
        if q <= 0:
            raise ConfigurationError("q must be positive")
        k = max(2, math.ceil(2.0 * n / q))
        return cls(n, min(k, n), hash_nodes=hash_nodes)


class TwoPathBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`TwoPathSchema.job`.

    A reducer id ``(middle, {i, j})`` with ``i < j`` becomes the code
    ``(middle · k + i) · k + j``.  The scalar mapper interleaves, for each
    ``other`` bucket in ascending order, the ``(b, {h(a), other})`` and
    ``(a, {h(b), other})`` emissions; the kernel lays the same codes out as
    a ``(num_edges, 2k)`` matrix and drops the skipped slots with a mask,
    so the row-major ravel reproduces the record-path emission order.
    """

    def __init__(self, schema: TwoPathSchema) -> None:
        self.schema = schema
        self._bucket_cache: Dict[int, int] = {}

    def _buckets_of(self, nodes):
        """Bucket indices of an array of *distinct* node values."""
        schema, cache = self.schema, self._bucket_cache
        if not schema.hash_nodes:
            return np.minimum(nodes // schema.group_size, schema.num_buckets - 1)
        values = nodes.tolist()
        for value in values:
            if value not in cache:
                cache[value] = schema.bucket_of(value)
        return np.fromiter(
            (cache[value] for value in values), dtype=np.int64, count=len(values)
        )

    def encode(self, records) -> ColumnBatch:
        k = self.schema.num_buckets
        if self.schema.n * k * k >= 2**62:
            raise BatchEncodingError(
                f"reducer codes for n={self.schema.n}, k={k} exceed exact "
                "int64 arithmetic"
            )
        batch = ColumnBatch.from_int_tuples(records, ("u", "v"))
        if len(batch) > 0:
            low = min(int(batch.column("u").min()), int(batch.column("v").min()))
            high = max(int(batch.column("u").max()), int(batch.column("v").max()))
            if low < 0 or high >= self.schema.n:
                raise BatchEncodingError(
                    f"edge endpoints fall outside [0, n={self.schema.n})"
                )
        return batch

    def map_batch(self, batch: ColumnBatch):
        k = self.schema.num_buckets
        u, v = batch.column("u"), batch.column("v")
        unique_nodes, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
        node_buckets = self._buckets_of(unique_nodes)
        bucket_u = node_buckets[inverse[: len(u)]]
        bucket_v = node_buckets[inverse[len(u) :]]
        num_edges = len(u)
        codes = np.empty((num_edges, 2 * k), dtype=np.int64)
        valid = np.empty((num_edges, 2 * k), dtype=bool)
        for other in range(k):
            codes[:, 2 * other] = (
                v * k + np.minimum(bucket_u, other)
            ) * k + np.maximum(bucket_u, other)
            valid[:, 2 * other] = bucket_u != other
            codes[:, 2 * other + 1] = (
                u * k + np.minimum(bucket_v, other)
            ) * k + np.maximum(bucket_v, other)
            valid[:, 2 * other + 1] = bucket_v != other
        mask = valid.ravel()
        row_indices = np.repeat(np.arange(num_edges, dtype=np.int64), 2 * k)
        return codes.ravel()[mask], row_indices[mask], batch

    def key_of_code(self, code: int) -> ReducerId:
        k = self.schema.num_buckets
        code = int(code)
        return (code // (k * k), frozenset(((code // k) % k, code % k)))

    def reduce_group(self, key: ReducerId, code: int, values: ColumnBatch):
        k = self.schema.num_buckets
        middle = code // (k * k)
        bucket_i, bucket_j = (code // k) % k, code % k
        u, v = values.column("u"), values.column("v")
        # if a == middle take b; elif b == middle take a — same rule as the
        # scalar reducer's neighbour collection.
        incident = (u == middle) | (v == middle)
        neighbours = np.unique(np.where(u == middle, v, u)[incident])
        if len(neighbours) < 2:
            return []
        left, right = np.triu_indices(len(neighbours), k=1)
        bucket_left = self._buckets_of(neighbours)[left]
        bucket_right = self._buckets_of(neighbours)[right]
        same = bucket_left == bucket_right
        alternate = (bucket_left + 1) % k
        pair_low = np.where(
            same,
            np.minimum(bucket_left, alternate),
            np.minimum(bucket_left, bucket_right),
        )
        pair_high = np.where(
            same,
            np.maximum(bucket_left, alternate),
            np.maximum(bucket_left, bucket_right),
        )
        keep = (pair_low == bucket_i) & (pair_high == bucket_j)
        first = neighbours[left[keep]].tolist()
        second = neighbours[right[keep]].tolist()
        return [(v_node, middle, w_node) for v_node, w_node in zip(first, second)]


def two_path_upper_bound(n: int, q: float) -> float:
    """Table 2's 2-path rate: ``2(k-1)`` with ``k = 2n/q`` buckets.

    The paper quotes ``O(2n/q)``; the construction's exact rate is
    ``2(k-1)``, about twice the lower bound ``2n/q``.
    """
    if q <= 0:
        return float("inf")
    k = max(2.0, 2.0 * n / q)
    return 2.0 * (k - 1.0)
