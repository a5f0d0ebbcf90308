"""Graph generators for the triangle / subgraph / 2-path experiments.

Graphs are represented as sorted tuples of undirected edges, each edge being
a pair ``(u, v)`` with ``u < v`` over nodes ``0 .. n-1``.  Conversion to and
from :mod:`networkx` is provided for the oracles used in tests.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Iterable, List, Set, Tuple

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # networkx serves the oracles only; imported where used
    import networkx as nx

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    if u == v:
        raise ConfigurationError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def complete_graph_edges(n: int) -> List[Edge]:
    """All C(n, 2) edges of the complete graph on nodes 0..n-1."""
    if n < 0:
        raise ConfigurationError(f"node count must be non-negative, got {n}")
    return [(u, v) for u, v in itertools.combinations(range(n), 2)]


def gnm_random_graph(n: int, m: int, seed: int | None = None) -> List[Edge]:
    """Uniform random graph with exactly ``m`` of the C(n,2) possible edges.

    This is the G(n, m) model assumed by the sparse-graph analysis of
    Section 4.2: the present edges are a uniformly random m-subset of all
    possible edges.
    """
    possible = n * (n - 1) // 2
    if m > possible:
        raise ConfigurationError(
            f"cannot place {m} edges in a graph with only {possible} possible edges"
        )
    rng = random.Random(seed)
    all_edges = complete_graph_edges(n)
    rng.shuffle(all_edges)
    return sorted(all_edges[:m])


def gnp_random_graph(n: int, p: float, seed: int | None = None) -> List[Edge]:
    """Erdős–Rényi G(n, p): include each possible edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    return [edge for edge in complete_graph_edges(n) if rng.random() < p]


def skewed_graph(
    n: int, m: int, hub_fraction: float = 0.1, seed: int | None = None
) -> List[Edge]:
    """A graph with a few high-degree "hub" nodes and a random remainder.

    Used to exercise the skew discussion of Section 1.4: nodes whose degree
    exceeds the reducer limit ``q`` force alternative algorithms.  Roughly
    half the edges touch a hub node chosen from the first
    ``hub_fraction * n`` nodes; the rest are uniform.
    """
    if not 0.0 < hub_fraction <= 1.0:
        raise ConfigurationError("hub_fraction must be in (0, 1]")
    rng = random.Random(seed)
    num_hubs = max(1, int(hub_fraction * n))
    edges: Set[Edge] = set()
    attempts = 0
    max_attempts = 50 * m + 100
    while len(edges) < m and attempts < max_attempts:
        attempts += 1
        if rng.random() < 0.5:
            hub = rng.randrange(num_hubs)
            other = rng.randrange(n)
            if other == hub:
                continue
            edges.add(normalize_edge(hub, other))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edges.add(normalize_edge(u, v))
    return sorted(edges)


def cycle_graph_edges(n: int) -> List[Edge]:
    """Edges of the n-node cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ConfigurationError("a cycle needs at least 3 nodes")
    return sorted(normalize_edge(i, (i + 1) % n) for i in range(n))


def to_networkx(edges: Iterable[Edge]) -> nx.Graph:
    """Build a networkx graph from an edge list (used by test oracles)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(edges)
    return graph


def count_triangles_oracle(edges: Iterable[Edge]) -> int:
    """Serial triangle count via networkx, used to verify the MR algorithms."""
    import networkx as nx

    graph = to_networkx(edges)
    return sum(nx.triangles(graph).values()) // 3


def enumerate_triangles_oracle(edges: Iterable[Edge]) -> Set[Tuple[int, int, int]]:
    """Serial triangle enumeration returning sorted node triples."""
    import networkx as nx

    graph = to_networkx(edges)
    triangles: Set[Tuple[int, int, int]] = set()
    for clique in nx.enumerate_all_cliques(graph):
        if len(clique) == 3:
            triangles.add(tuple(sorted(clique)))
        elif len(clique) > 3:
            break
    return triangles


def enumerate_two_paths_oracle(edges: Iterable[Edge]) -> Set[Tuple[int, int, int]]:
    """Serial enumeration of 2-paths, as (end, middle, end) with ends sorted.

    A 2-path v-u-w is identified by its middle node u and the unordered pair
    of its endpoints {v, w}; the canonical form is (min(v, w), u, max(v, w)).
    """
    adjacency: dict[int, Set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    result: Set[Tuple[int, int, int]] = set()
    for middle, neighbors in adjacency.items():
        for v, w in itertools.combinations(sorted(neighbors), 2):
            result.add((v, middle, w))
    return result


def node_degrees(edges: Iterable[Edge]) -> dict[int, int]:
    """Degree of every node appearing in the edge list."""
    degrees: dict[int, int] = {}
    for u, v in edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees
