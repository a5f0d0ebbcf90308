"""The packed-bitset triangle kernel against the dense kernel it replaced.

``TriangleBatchKernel`` used to build, per reducer, a dense edges × nodes
boolean candidate matrix and read it with ``np.nonzero``; its map side
sorted a stacked ``(edges·k, 3)`` array of bucket triples.  Those methods
are kept below verbatim (``DenseTriangleKernel``) as the oracle: on
Hypothesis graphs the packed kernel must give the same ``(codes,
row_indices)`` and, group by group, the same output list.  The graphs cover
local node counts on both sides of byte and word boundaries, both bucketing
rules, every ``k`` from 1 to ``n``, both edge orientations, duplicated
edges, self-loops, sparse node ids and empty groups.  ``--full-sweep``
adds the benchmark's size (400 nodes, 30 000 edges, k = 6) on three seeds.

The dense kernel trusted every edge's bucket pair to fit the reducer's key;
offered a key it does not fit, it could emit triangles the scalar reducer
never does.  The packed kernel skips such edges, as the scalar reducer
does, and is held to the scalar reducer directly on every key of small key
spaces.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen.graphs import gnm_random_graph
from repro.mapreduce.columnar import ColumnBatch
from repro.schemas.triangles import PartitionTriangleSchema, TriangleBatchKernel


# ----------------------------------------------------------------------
# The oracle: the dense kernel as it was, verbatim
# ----------------------------------------------------------------------
class DenseTriangleKernel(TriangleBatchKernel):
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


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def edge_batch(edges) -> ColumnBatch:
    """The kernel's ``(u, v)`` batch of an edge list, empty lists included."""
    return ColumnBatch(
        {
            "u": np.array([u for u, _ in edges], dtype=np.int64),
            "v": np.array([v for _, v in edges], dtype=np.int64),
        }
    )


def assert_same_as_dense(schema: PartitionTriangleSchema, edges) -> int:
    """Map and every reduce group equal the dense kernel's; returns the
    number of triangles emitted."""
    kernel, dense = TriangleBatchKernel(schema), DenseTriangleKernel(schema)
    batch = edge_batch(edges)
    codes, row_indices, values = kernel.map_batch(batch)
    dense_codes, dense_rows, dense_values = dense.map_batch(batch)
    assert codes.dtype == dense_codes.dtype and np.array_equal(codes, dense_codes)
    assert row_indices.dtype == dense_rows.dtype
    assert np.array_equal(row_indices, dense_rows)
    assert values is batch and dense_values is batch
    emitted = 0
    for code in np.unique(codes).tolist():
        key = kernel.key_of_code(code)
        group = values.take(row_indices[codes == code])
        got = kernel.reduce_group(key, code, group)
        assert got == dense.reduce_group(key, code, group)
        assert all(type(node) is int for triangle in got for node in triangle)
        emitted += len(got)
    return emitted


@st.composite
def kernel_graphs(draw):
    """(schema, edges): a seeded random multigraph as it reaches the kernel.

    Edges come in either orientation, repeated, occasionally as self-loops,
    and optionally on sparse node ids far above the schema's ``n``.
    """
    n = draw(st.integers(3, 80))
    k = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0, 10**12]))
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(draw(st.integers(0, 4 * n)))
    ]
    edges += rng.choices(edges, k=len(edges) // 4) if edges else []
    edges = [(offset + u, offset + v) for u, v in edges]
    return PartitionTriangleSchema(n, k, hash_nodes=draw(st.booleans())), edges


def dense_graph(nodes: int, rng: random.Random):
    """A graph touching exactly ``nodes`` nodes: a Hamiltonian path plus
    random chords, half of them reversed and a few repeated."""
    order = list(range(nodes))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    edges += [tuple(rng.sample(range(nodes), 2)) for _ in range(3 * nodes)]
    edges += rng.choices(edges, k=nodes // 4)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


# ----------------------------------------------------------------------
# The packed kernel against the dense oracle
# ----------------------------------------------------------------------
class TestPackedKernelAgainstDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(kernel_graphs())
    def test_map_and_every_group_match(self, case):
        schema, edges = case
        assert_same_as_dense(schema, edges)

    # Local node counts on both sides of the byte (8) and word (64)
    # boundaries of a packed row; k = 1 puts the whole graph in the single
    # group (0, 0, 0), larger k spreads it over three-bucket groups.
    @pytest.mark.parametrize("nodes", [7, 8, 9, 63, 64, 65, 129])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("hash_nodes", [False, True])
    def test_row_widths_across_byte_and_word_boundaries(self, nodes, k, hash_nodes):
        edges = dense_graph(nodes, random.Random(nodes * 10 + k))
        schema = PartitionTriangleSchema(nodes, k, hash_nodes=hash_nodes)
        assert assert_same_as_dense(schema, edges) > 0

    @pytest.mark.parametrize("hash_nodes", [False, True])
    def test_empty_batch_and_empty_groups(self, hash_nodes):
        schema = PartitionTriangleSchema(9, 3, hash_nodes=hash_nodes)
        assert assert_same_as_dense(schema, []) == 0
        empty = edge_batch([])
        for key in itertools.combinations_with_replacement(range(3), 3):
            code = (key[0] * 3 + key[1]) * 3 + key[2]
            assert TriangleBatchKernel(schema).reduce_group(key, code, empty) == []

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_benchmark_sized_graph(self, request, seed):
        if not request.config.getoption("--full-sweep"):
            pytest.skip("benchmark-sized graphs run under --full-sweep")
        edges = gnm_random_graph(400, 30000, seed)
        assert assert_same_as_dense(PartitionTriangleSchema(400, 6), edges) > 0


# ----------------------------------------------------------------------
# Keys the edges do not fit: the scalar reducer is the oracle
# ----------------------------------------------------------------------
@st.composite
def unfit_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(max(3, k), 16))
    node = st.integers(0, n - 1)
    # Any orientation, duplicates and self-loops: whatever reaches a reducer.
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return PartitionTriangleSchema(n, k, hash_nodes=draw(st.booleans())), edges


class TestKeysTheEdgesDoNotFit:
    @settings(max_examples=150, deadline=None)
    @given(unfit_cases())
    # Buckets of 2 nodes: edge (0, 1) lies in bucket 0 twice, so for the key
    # (0, 1, 2) the difference of sums names bucket 3, where node 6 is a
    # common neighbour; the scalar reducer skips the edge, the dense kernel
    # emitted (0, 1, 6).
    @example((PartitionTriangleSchema(10, 5), [(0, 1), (0, 6), (1, 6)]))
    def test_every_key_matches_the_scalar_reducer(self, case):
        schema, edges = case
        kernel, reducer = TriangleBatchKernel(schema), schema.job().reducer
        batch, k = edge_batch(edges), schema.num_buckets
        # Every key of the key space sees every edge, so most edges' bucket
        # pairs are not sub-multisets of the key they are offered to.
        for key in itertools.combinations_with_replacement(range(k), 3):
            code = (key[0] * k + key[1]) * k + key[2]
            assert kernel.reduce_group(key, code, batch) == list(reducer(key, edges))
