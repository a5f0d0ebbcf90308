"""The partition-based triangle-finding schema (Section 4 upper bound).

Nodes are hashed into ``k`` buckets; there is one reducer for every multiset
``{a, b, c}`` of bucket indices (``a <= b <= c``).  An edge is sent to every
reducer whose multiset contains the buckets of both its endpoints, which is
exactly ``k`` reducers, so the replication rate is ``k``.  A reducer holds
the edges among (up to) three buckets — about ``4.5 n²/k²`` potential edges —
and can therefore emit every triangle whose three nodes hash into its bucket
multiset.  Solving ``q ≈ 4.5 n²/k²`` for ``k`` gives ``r = O(n/√q)``,
matching the Section 4.1 lower bound ``n/√(2q)`` to within a constant factor
(the ratio is 3; ``tests/test_paper_figures.py`` pins it at ≤ 3.1).

This is the algorithm of Suri–Vassilvitskii [21] and Afrati–Fotakis–Ullman
[2] restated in the paper's vocabulary.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import BatchKernel, ColumnBatch
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import stable_hash
from repro.problems.triangles import TriangleProblem

Edge = Tuple[int, int]
BucketTriple = Tuple[int, int, int]


class PartitionTriangleSchema(SchemaFamily):
    """Bucket-triple triangle finding with ``k`` node buckets.

    Parameters
    ----------
    n:
        Number of nodes in the data-graph domain.
    num_buckets:
        The parameter ``k``; replication rate equals ``k`` exactly.
    hash_nodes:
        If True nodes are assigned to buckets by a stable hash; if False they
        are assigned contiguously (node // ceil(n/k)), which makes reducer
        loads deterministic and is convenient in tests.
    """

    def __init__(self, n: int, num_buckets: int, hash_nodes: bool = False) -> None:
        if n < 3:
            raise ConfigurationError(f"triangle finding needs n >= 3, got {n}")
        if num_buckets < 1 or num_buckets > n:
            raise ConfigurationError(
                f"num_buckets must be in [1, n={n}], got {num_buckets}"
            )
        self.n = n
        self.num_buckets = num_buckets
        self.hash_nodes = hash_nodes
        #: Nodes per contiguous bucket (the last bucket absorbs the remainder).
        self.group_size = math.ceil(n / num_buckets)
        self.name = f"partition-triangles(n={n}, k={num_buckets})"
        #: The one routing rule: endpoint buckets -> the ``k`` reducer ids.
        self.routes = _RouteTable(num_buckets)

    # ------------------------------------------------------------------
    # Bucketing and routing
    # ------------------------------------------------------------------
    def bucket_of(self, node: int) -> int:
        """Bucket index of a node (hash-based or contiguous)."""
        if self.hash_nodes:
            return stable_hash(node) % self.num_buckets
        return min(node // self.group_size, self.num_buckets - 1)

    def reducers_for(self, edge: Edge) -> Iterator[BucketTriple]:
        """The ``k`` reducers (bucket multisets) an edge is sent to."""
        return iter(self.routes[self.bucket_of(edge[0]), self.bucket_of(edge[1])])

    def triangle_reducer(self, u: int, v: int, w: int) -> BucketTriple:
        """The unique reducer designated to emit the triangle {u, v, w}."""
        return tuple(sorted((self.bucket_of(u), self.bucket_of(v), self.bucket_of(w))))

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, TriangleProblem):
            raise ConfigurationError(
                "PartitionTriangleSchema serves TriangleProblem instances"
            )
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
        """Each edge reaches exactly ``k`` reducers."""
        return float(self.num_buckets)

    def max_reducer_size_formula(self) -> float:
        """Edges among the three buckets of a reducer: ``C(3n/k, 2) ≈ 4.5 n²/k²``."""
        nodes_per_reducer = 3.0 * self.n / self.num_buckets
        return nodes_per_reducer * (nodes_per_reducer - 1.0) / 2.0

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self) -> MapReduceJob:
        """Triangle-enumeration job over the edges actually present.

        Each reducer builds the subgraph induced by its edges and emits every
        triangle whose bucket multiset equals the reducer's id, so each
        triangle is produced exactly once across the job.
        """
        routes, bucket_of = self.routes, self.bucket_of

        def mapper(edge: Edge):
            return [(rid, edge) for rid in routes[bucket_of(edge[0]), bucket_of(edge[1])]]

        def reducer(reducer_id: BucketTriple, edges: List[Edge]):
            # Int bitsets over the sorted local node set: bit i is nodes[i].
            edge_list = sorted(set(edges))
            nodes = sorted({node for edge in edge_list for node in edge})
            index = {node: i for i, node in enumerate(nodes)}
            bucket = [bucket_of(node) for node in nodes]
            adjacency = [0] * len(nodes)
            for u, v in edge_list:
                adjacency[index[u]] |= 1 << index[v]
                adjacency[index[v]] |= 1 << index[u]
            # Per pair of endpoint buckets, the member mask of the bucket
            # that completes reducer_id; a pair that does not fit it gets none.
            a, b, c = reducer_id
            ma, mb, mc = (sum(1 << i for i, t in enumerate(bucket) if t == s) for s in reducer_id)
            third = {(a, b): mc, (b, a): mc, (a, c): mb, (c, a): mb, (b, c): ma, (c, b): ma}
            for u, v in edge_list:
                i, j = index[u], index[v]
                # Common neighbours w > v in the third bucket, lowest first.
                common = third.get((bucket[i], bucket[j]), 0) & adjacency[i] & adjacency[j]
                common >>= j + 1
                while common:
                    low = common & -common
                    yield (u, v, nodes[j + low.bit_length()])
                    common ^= low

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            batch_kernel=TriangleBatchKernel(self),
        )

    # ------------------------------------------------------------------
    # Sizing helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_reducer_size(
        cls, n: int, q: float, hash_nodes: bool = False
    ) -> "PartitionTriangleSchema":
        """Pick the largest ``k`` whose reducers stay within ``q`` edges.

        Inverts ``q ≈ 4.5 n² / k²``: ``k = ceil(n·√(4.5/q))``, clamped to
        [1, n].  This is the knob the Section 4 benchmark sweeps.
        """
        if q <= 0:
            raise ConfigurationError("q must be positive")
        k = max(1, math.ceil(n * math.sqrt(4.5 / q)))
        return cls(n, min(k, n), hash_nodes=hash_nodes)


class _RouteTable(dict):
    """``(bucket_u, bucket_v)`` -> its ``k`` sorted bucket triples, filled on first use."""

    def __init__(self, num_buckets: int) -> None:
        self.thirds = range(num_buckets)

    def __missing__(self, pair: Tuple[int, int]) -> Tuple[BucketTriple, ...]:
        routes = self[pair] = tuple(tuple(sorted((*pair, t))) for t in self.thirds)
        return routes


class TriangleBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`PartitionTriangleSchema.job`.

    Reduce keys (sorted bucket triples ``(a, b, c)``) are encoded as the
    mixed-radix integer ``(a·k + b)·k + c``.  The per-group reduce packs the
    adjacency of the group's local node set into bit rows (``np.packbits``,
    big-endian), plus a "later node" row per node and an "in bucket" row
    per bucket of the key.  The candidates ``w`` of a deduplicated edge
    ``(u, v)`` are then one AND of four packed rows — common neighbours,
    ``w > v``, bucket completing the key — never an edges × nodes boolean
    matrix.  Set bits are read in two levels: the non-zero bytes first,
    then only those bytes unpacked; both levels ascend, so the triangles
    come out edge-major with ``w`` ascending, the scalar reducer's order.
    """

    def __init__(self, schema: PartitionTriangleSchema) -> None:
        self.schema = schema
        # Node buckets are memoized per distinct node value: the hash-based
        # bucketing goes through stable_hash, which is not vectorizable.
        self._bucket_cache: Dict[int, int] = {}

    def _buckets_of(self, nodes) -> "object":
        """Bucket index of every node of an array."""
        schema, cache = self.schema, self._bucket_cache
        if not schema.hash_nodes:
            return np.minimum(nodes // schema.group_size, schema.num_buckets - 1)
        distinct, inverse = np.unique(nodes, return_inverse=True)
        values = distinct.tolist()
        for value in values:
            if value not in cache:
                cache[value] = schema.bucket_of(value)
        buckets = np.fromiter(
            (cache[value] for value in values), dtype=np.int64, count=len(values)
        )
        return buckets[inverse]

    # -- encode / map ----------------------------------------------------
    def encode(self, records) -> ColumnBatch:
        return ColumnBatch.from_int_tuples(records, ("u", "v"))

    def map_batch(self, batch: ColumnBatch):
        k = self.schema.num_buckets
        u, v = batch.column("u"), batch.column("v")
        num_edges = len(u)
        buckets = self._buckets_of(np.concatenate((u, v)))
        low = np.minimum(buckets[:num_edges], buckets[num_edges:])[:, None]
        high = np.maximum(buckets[:num_edges], buckets[num_edges:])[:, None]
        # One emission per (edge, third) in the scalar mapper's order:
        # record-major, third ascending; sorted((low, high, third)) is
        # (min, clip, max) because low <= high.
        third = np.arange(k, dtype=np.int64)
        codes = (
            np.minimum(low, third) * k + np.clip(third, low, high)
        ) * k + np.maximum(high, third)
        row_indices = np.repeat(np.arange(num_edges, dtype=np.int64), k)
        return codes.ravel(), row_indices, batch

    def key_of_code(self, code: int):
        k = self.schema.num_buckets
        return (code // (k * k), (code // k) % k, code % k)

    # -- reduce ----------------------------------------------------------
    def reduce_group(self, key, code: int, values: ColumnBatch):
        u, v = values.column("u"), values.column("v")
        if len(u) == 0:
            return []
        # sorted(set(edges)): over the sorted local node set, the set cells
        # of the directed edge matrix in row-major order.
        nodes, local = np.unique(np.concatenate((u, v)), return_inverse=True)
        size = len(nodes)
        directed = np.zeros((size, size), dtype=bool)
        directed[local[: len(u)], local[len(u) :]] = True
        local_u, local_v = np.divmod(np.flatnonzero(directed), size)
        buckets = self._buckets_of(nodes)
        # Only an edge whose bucket pair is a sub-multiset of the key can
        # close a triangle here (the scalar reducer's third_bucket lookup);
        # the key's remaining bucket is the one its third node must have.
        triple = np.array(sorted(key), dtype=np.int64)
        a, b, c = triple.tolist()
        bucket_u, bucket_v = buckets[local_u], buckets[local_v]
        low, high = np.minimum(bucket_u, bucket_v), np.maximum(bucket_u, bucket_v)
        fits = ((low == a) & ((high == b) | (high == c))) | ((low == b) & (high == c))
        third_row = np.searchsorted(triple, (a + b + c) - low[fits] - high[fits])
        local_u, local_v = local_u[fits], local_v[fits]
        # Packed bit rows: each node's neighbours, the nodes after it (nodes
        # is sorted, so "w > v" is "local index above v's"), and each key
        # bucket's members.
        packed = np.packbits(directed | directed.T, axis=1)
        above = np.packbits(~np.tri(size, dtype=bool), axis=1)
        in_bucket = np.packbits(buckets[None, :] == triple[:, None], axis=1)
        candidates = (
            packed.take(local_u, axis=0)
            & packed.take(local_v, axis=0)
            & above.take(local_v, axis=0)
            & in_bucket.take(third_row, axis=0)
        )
        # Two-level read-out: the non-zero bytes, then only their set bits
        # (``!= 0`` first: nonzero is several times faster on booleans).
        flat = candidates.ravel()
        byte_index = np.flatnonzero(flat != 0)
        hits = np.flatnonzero(np.unpackbits(flat[byte_index]) != 0)
        bits = byte_index[hits >> 3] * 8 + (hits & 7)
        edge_index, node_index = np.divmod(bits, 8 * candidates.shape[1])
        return list(
            zip(
                nodes[local_u[edge_index]].tolist(),
                nodes[local_v[edge_index]].tolist(),
                nodes[node_index].tolist(),
            )
        )


def triangle_upper_bound(n: int, q: float) -> float:
    """Table 2's ``r = 3n/√(2q)`` for the partition schema.

    ``k`` buckets give reducers of ``C(3n/k, 2) < (3n/k)²/2`` edges, so the
    schema's ``r = k`` stays below ``3n/√(2q)`` when ``k`` divides ``n``.
    """
    if q <= 0:
        return float("inf")
    return max(1.0, 3.0 * n / math.sqrt(2.0 * q))
