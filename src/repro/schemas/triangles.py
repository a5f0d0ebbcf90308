"""The partition-based triangle-finding schema (Section 4 upper bound).

Nodes are hashed into ``k`` buckets; there is one reducer for every multiset
``{a, b, c}`` of bucket indices (``a <= b <= c``).  An edge is sent to every
reducer whose multiset contains the buckets of both its endpoints, which is
exactly ``k`` reducers, so the replication rate is ``k``.  A reducer holds
the edges among (up to) three buckets — about ``4.5 n²/k²`` potential edges —
and can therefore emit every triangle whose three nodes hash into its bucket
multiset.  Solving ``q ≈ 4.5 n²/k²`` for ``k`` gives ``r = O(n/√q)``,
matching the Section 4.1 lower bound ``n/√(2q)`` to within a constant factor
(the ratio is 3, as recorded in EXPERIMENTS.md).

This is the algorithm of Suri–Vassilvitskii [21] and Afrati–Fotakis–Ullman
[2] restated in the paper's vocabulary.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

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
        u, v = edge
        bucket_u, bucket_v = self.bucket_of(u), self.bucket_of(v)
        for third in range(self.num_buckets):
            yield tuple(sorted((bucket_u, bucket_v, third)))

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
        schema = self

        def mapper(edge: Edge):
            for reducer_id in schema.reducers_for(edge):
                yield (reducer_id, edge)

        def reducer(reducer_id: BucketTriple, edges: List[Edge]):
            adjacency: dict[int, set[int]] = {}
            edge_set = set(edges)
            for u, v in edge_set:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
            bucket = {node: schema.bucket_of(node) for node in adjacency}
            # The bucket a third node must have for the bucket multiset to
            # equal reducer_id, per pair of endpoint buckets; a pair that is
            # not a sub-multiset of the id has none.
            a, b, c = reducer_id
            third_bucket = {(a, b): c, (b, a): c, (a, c): b, (c, a): b, (b, c): a, (c, b): a}
            for u, v in sorted(edge_set):
                third = third_bucket.get((bucket[u], bucket[v]))
                if third is None:
                    continue
                for w in sorted(adjacency[u] & adjacency[v]):
                    if w > v and bucket[w] == third:
                        yield (u, v, w)

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


class TriangleBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`PartitionTriangleSchema.job`.

    Reduce keys (sorted bucket triples ``(a, b, c)``) are encoded as the
    mixed-radix integer ``(a·k + b)·k + c``.  The per-group reduce builds a
    boolean adjacency matrix over the group's local node set and finds, for
    every deduplicated edge ``(u, v)``, the common neighbours ``w > v``
    whose bucket completes the reducer's triple — ``np.nonzero`` row-major
    order reproduces the scalar reducer's lexicographic emission order.
    """

    def __init__(self, schema: PartitionTriangleSchema) -> None:
        self.schema = schema
        # Node buckets are memoized per distinct node value: the hash-based
        # bucketing goes through stable_hash, which is not vectorizable.
        self._bucket_cache: Dict[int, int] = {}

    def _buckets_of(self, nodes) -> "object":
        """Bucket indices of an array of *distinct* node values."""
        import numpy as np

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

    # -- encode / map ----------------------------------------------------
    def encode(self, records) -> ColumnBatch:
        return ColumnBatch.from_int_tuples(records, ("u", "v"))

    def map_batch(self, batch: ColumnBatch):
        import numpy as np

        k = self.schema.num_buckets
        u, v = batch.column("u"), batch.column("v")
        unique_nodes, inverse = np.unique(
            np.concatenate((u, v)), return_inverse=True
        )
        node_buckets = self._buckets_of(unique_nodes)
        bucket_u = node_buckets[inverse[: len(u)]]
        bucket_v = node_buckets[inverse[len(u) :]]
        # One emission per (edge, third) in the scalar mapper's order:
        # record-major, third ascending.
        num_edges = len(u)
        triples = np.sort(
            np.stack(
                (
                    np.repeat(bucket_u, k),
                    np.repeat(bucket_v, k),
                    np.tile(np.arange(k, dtype=np.int64), num_edges),
                ),
                axis=1,
            ),
            axis=1,
        )
        codes = (triples[:, 0] * k + triples[:, 1]) * k + triples[:, 2]
        row_indices = np.repeat(np.arange(num_edges, dtype=np.int64), k)
        return codes, row_indices, batch

    def key_of_code(self, code: int):
        k = self.schema.num_buckets
        return (code // (k * k), (code // k) % k, code % k)

    # -- reduce ----------------------------------------------------------
    def reduce_group(self, key, code: int, values: ColumnBatch):
        import numpy as np

        u, v = values.column("u"), values.column("v")
        # sorted(set(edges)): lexicographic sort, then first-occurrence
        # dedupe on the (u, v) pairs.
        order = np.lexsort((v, u))
        edge_u, edge_v = u[order], v[order]
        if len(edge_u) == 0:
            return []
        keep = np.empty(len(edge_u), dtype=bool)
        keep[0] = True
        keep[1:] = (edge_u[1:] != edge_u[:-1]) | (edge_v[1:] != edge_v[:-1])
        edge_u, edge_v = edge_u[keep], edge_v[keep]
        nodes = np.unique(np.concatenate((edge_u, edge_v)))
        local_u = np.searchsorted(nodes, edge_u)
        local_v = np.searchsorted(nodes, edge_v)
        size = len(nodes)
        adjacency = np.zeros((size, size), dtype=bool)
        adjacency[local_u, local_v] = True
        adjacency[local_v, local_u] = True
        buckets = self._buckets_of(nodes)
        # The third bucket that completes this reducer's multiset for each
        # edge; {bucket(u), bucket(v)} is a sub-multiset of the key by
        # construction, so the difference of sums identifies it.
        target = (key[0] + key[1] + key[2]) - buckets[local_u] - buckets[local_v]
        candidates = adjacency[local_u] & adjacency[local_v]
        candidates &= nodes[None, :] > edge_v[:, None]
        candidates &= buckets[None, :] == target[:, None]
        edge_index, node_index = np.nonzero(candidates)
        return list(
            zip(
                edge_u[edge_index].tolist(),
                edge_v[edge_index].tolist(),
                nodes[node_index].tolist(),
            )
        )
