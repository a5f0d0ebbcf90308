"""Partition-based schema for finding arbitrary sample graphs (Section 5).

This generalizes the triangle construction of Section 4 to any fixed sample
graph ``S`` with ``s`` nodes, in the style of the multiway-join / subgraph
enumeration algorithms of [2] (Afrati, Fotakis, Ullman): hash the data-graph
nodes into ``k`` buckets and create one reducer for every multiset of ``s``
bucket indices.  An edge is sent to every reducer whose multiset contains
the buckets of both endpoints (with multiplicity when they collide), so a
reducer holds all edges among at most ``s`` buckets and can enumerate every
instance of ``S`` whose nodes fall inside them.

Replication rate: an edge occupies 2 slots of the multiset (or 1..2 when the
endpoints share a bucket); the remaining ``s - 2`` slots range over multisets
of the ``k`` buckets, so the replication rate is ``C(k + s - 3, s - 2)``
≈ ``k^{s-2}/(s-2)!`` — the ``(n/√q)^{s-2}`` shape of Section 5.2 once
``q ≈ C(s·n/k, 2)`` is inverted.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import FrozenSet, Iterator, List, Mapping, Sequence, Tuple

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.exceptions import ConfigurationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import stable_hash
from repro.problems.subgraphs import SampleGraph, SampleGraphProblem

Edge = Tuple[int, int]
BucketMultiset = Tuple[int, ...]


class PartitionSampleGraphSchema(SchemaFamily):
    """Bucket-multiset schema finding all instances of a fixed sample graph.

    Parameters
    ----------
    n:
        Number of nodes in the data-graph domain.
    sample:
        The sample graph to search for (triangle, cycle, clique, ...).
    num_buckets:
        The number of node buckets ``k``.
    hash_nodes:
        Hash-based bucketing (True) or contiguous bucketing (False).
    boundaries:
        Optional non-uniform contiguous bucketing: ``k - 1`` non-decreasing
        interior cut points, bucket ``i`` covering nodes in
        ``[boundaries[i-1], boundaries[i])``.  Mutually exclusive with
        ``hash_nodes``; built by :func:`degree_balanced_boundaries` to
        equalize an instance's endpoint mass per bucket.
    """

    def __init__(
        self,
        n: int,
        sample: SampleGraph,
        num_buckets: int,
        hash_nodes: bool = False,
        boundaries: Sequence[int] | None = None,
    ) -> None:
        if n < sample.num_nodes:
            raise ConfigurationError(
                f"the data graph needs at least {sample.num_nodes} nodes, got {n}"
            )
        if num_buckets < 1 or num_buckets > n:
            raise ConfigurationError(
                f"num_buckets must be in [1, n={n}], got {num_buckets}"
            )
        if boundaries is not None:
            if hash_nodes:
                raise ConfigurationError(
                    "boundaries define a contiguous bucketing; they cannot be "
                    "combined with hash_nodes"
                )
            boundaries = tuple(int(cut) for cut in boundaries)
            if len(boundaries) != num_buckets - 1:
                raise ConfigurationError(
                    f"a {num_buckets}-bucket schema needs {num_buckets - 1} "
                    f"cut points, got {len(boundaries)}"
                )
            if any(b < a for a, b in zip(boundaries, boundaries[1:])) or any(
                cut < 0 or cut > n for cut in boundaries
            ):
                raise ConfigurationError(
                    f"cut points must be non-decreasing within [0, n={n}], "
                    f"got {boundaries}"
                )
        self.n = n
        self.sample = sample
        self.num_buckets = num_buckets
        self.hash_nodes = hash_nodes
        self.boundaries = boundaries
        #: Nodes per contiguous bucket (the last bucket absorbs the remainder).
        self.group_size = math.ceil(n / num_buckets)
        suffix = ", balanced" if boundaries is not None else ""
        self.name = f"partition-{sample.name}(n={n}, k={num_buckets}{suffix})"

    # ------------------------------------------------------------------
    # Bucketing and routing
    # ------------------------------------------------------------------
    def bucket_of(self, node: int) -> int:
        if self.boundaries is not None:
            return bisect.bisect_right(self.boundaries, node)
        if self.hash_nodes:
            return stable_hash(node) % self.num_buckets
        return min(node // self.group_size, self.num_buckets - 1)

    def reducers_for(self, edge: Edge) -> Iterator[BucketMultiset]:
        """All size-``s`` bucket multisets containing both endpoint buckets."""
        u, v = edge
        base = sorted((self.bucket_of(u), self.bucket_of(v)))
        slots = self.sample.num_nodes - 2
        seen = set()
        for extra in itertools.combinations_with_replacement(range(self.num_buckets), slots):
            multiset = tuple(sorted(base + list(extra)))
            if multiset not in seen:
                seen.add(multiset)
                yield multiset

    def instance_reducer(self, nodes: Sequence[int]) -> BucketMultiset:
        """The unique reducer designated to emit an instance on ``nodes``."""
        return tuple(sorted(self.bucket_of(node) for node in nodes))

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, SampleGraphProblem):
            raise ConfigurationError(
                "PartitionSampleGraphSchema serves SampleGraphProblem instances"
            )
        if problem.n != self.n or problem.sample.name != self.sample.name:
            raise ConfigurationError(
                "schema and problem were built for different parameters"
            )
        schema = MappingSchema(problem, q=None, name=self.name)
        for edge in problem.inputs():
            for reducer_id in self.reducers_for(edge):
                schema.assign_one(reducer_id, edge)
        schema.q = schema.max_reducer_size()
        return schema

    def replication_rate_formula(self) -> float:
        """``C(k + s - 3, s - 2)``: multisets of size s-2 over k buckets.

        This counts the reducers an edge with two *distinct* endpoint buckets
        reaches; edges whose endpoints share a bucket reach slightly more
        (their multiset has a free slot more ways to coincide), so the exact
        average is marginally above this for contiguous bucketing.  The
        asymptotic shape is ``k^{s-2}/(s-2)!``.
        """
        s = self.sample.num_nodes
        return float(math.comb(self.num_buckets + s - 3, s - 2))

    def max_reducer_size_formula(self) -> float:
        """Edges among ``s`` buckets of ``n/k`` nodes each: ``C(s·n/k, 2)``.

        With explicit ``boundaries`` the widest bucket replaces ``n/k`` —
        the full-domain worst case of a non-uniform bucketing; the
        instance-specific certificate comes from
        :func:`repro.planner.certify.certify_sample_graph_load` instead.
        """
        if self.boundaries is not None:
            edges = (0,) + self.boundaries + (self.n,)
            widest = max(b - a for a, b in zip(edges, edges[1:]))
            nodes = min(self.n, self.sample.num_nodes * widest)
        else:
            nodes = self.sample.num_nodes * self.n / self.num_buckets
        return nodes * (nodes - 1) / 2.0

    # ------------------------------------------------------------------
    # Executable job
    # ------------------------------------------------------------------
    def job(self) -> MapReduceJob:
        """Job enumerating every instance of the sample graph exactly once.

        Each reducer builds the subgraph induced by its edges and runs a
        subgraph-isomorphism search (networkx GraphMatcher) for the sample
        graph; an instance is emitted only at the reducer matching its node
        buckets, as a frozenset of its data edges.
        """
        schema = self
        pattern = self.sample.to_networkx()

        def mapper(edge: Edge):
            for reducer_id in schema.reducers_for(edge):
                yield (reducer_id, edge)

        def reducer(reducer_id: BucketMultiset, edges: List[Edge]):
            import networkx as nx  # not captured from job(): a module cannot ship to the pool

            graph = nx.Graph()
            graph.add_edges_from(set(edges))
            matcher = nx.algorithms.isomorphism.GraphMatcher(graph, pattern)
            emitted = set()
            for mapping in matcher.subgraph_monomorphisms_iter():
                # mapping: data node -> pattern node; invert to place edges.
                inverse = {pattern_node: data_node for data_node, pattern_node in mapping.items()}
                instance_nodes = tuple(sorted(inverse.values()))
                instance = frozenset(
                    tuple(sorted((inverse[a], inverse[b]))) for a, b in pattern.edges
                )
                if instance in emitted:
                    continue
                if schema.instance_reducer(instance_nodes) == reducer_id:
                    emitted.add(instance)
                    yield instance

        return MapReduceJob(mapper=mapper, reducer=reducer, name=self.name)


def degree_balanced_boundaries(
    degrees: Mapping[int, int], n: int, num_buckets: int
) -> Tuple[int, ...]:
    """Contiguous cut points that equalize endpoint mass across buckets.

    ``degrees`` maps nodes to their endpoint counts (as collected by
    :func:`repro.stats.profile.profile_graph`); nodes absent from the map
    weigh nothing.  Returns ``num_buckets - 1`` non-decreasing interior cut
    points for :class:`PartitionSampleGraphSchema`; trailing buckets may be
    empty when the mass is concentrated at high node ids.
    """
    if num_buckets < 1 or num_buckets > n:
        raise ConfigurationError(
            f"num_buckets must be in [1, n={n}], got {num_buckets}"
        )
    total = sum(degrees.values())
    cuts: List[int] = []
    accumulated = 0
    for node in range(n):
        if len(cuts) == num_buckets - 1:
            break
        accumulated += degrees.get(node, 0)
        if accumulated * num_buckets >= total * (len(cuts) + 1):
            cuts.append(node + 1)
    while len(cuts) < num_buckets - 1:
        cuts.append(min((cuts[-1] if cuts else 0) + 1, n))
    return tuple(cuts)


def enumerate_sample_graph_oracle(
    edges: Sequence[Edge], sample: SampleGraph
) -> FrozenSet[FrozenSet[Edge]]:
    """Serial oracle: all instances of ``sample`` in the given edge set.

    Instances are reported as frozensets of data edges, matching the output
    convention of :class:`PartitionSampleGraphSchema` and
    :class:`~repro.problems.subgraphs.SampleGraphProblem`.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(set(edges))
    pattern = sample.to_networkx()
    matcher = nx.algorithms.isomorphism.GraphMatcher(graph, pattern)
    instances = set()
    for mapping in matcher.subgraph_monomorphisms_iter():
        inverse = {pattern_node: data_node for data_node, pattern_node in mapping.items()}
        instance = frozenset(
            tuple(sorted((inverse[a], inverse[b]))) for a, b in pattern.edges
        )
        instances.add(instance)
    return frozenset(instances)


def alon_upper_bound_edges(m: int, s: int, q: float) -> float:
    """Table 2's ``r = O((√(m/q))^{s-2})`` for Alon-class samples (from [2])."""
    if q <= 0:
        return float("inf")
    return max(1.0, math.sqrt(m / q) ** (s - 2))
