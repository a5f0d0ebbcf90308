"""Sample-graph finding: the Alon class and 2-paths (Section 5).

A *sample graph* is a fixed small graph ``S`` with ``s`` nodes; the problem
is to find all of its instances inside a data graph over ``n`` nodes.  For
sample graphs in the *Alon class* (node set partitionable into single edges
and odd Hamiltonian-cycle components), Alon's theorem bounds the number of
instances in an m-edge graph by ``O(m^{s/2})``, giving ``g(q) = q^{s/2}``
and the lower bound ``r = Ω((n/√q)^{s-2})``.

Paths of length two are the simplest non-Alon sample graph; they get their
own problem class with ``g(q) = C(q, 2)`` and lower bound ``2n/q``.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, FrozenSet, Iterator, Sequence, Set, Tuple

from repro.core.problem import InputId, OutputId, Problem
from repro.exceptions import BoundDerivationError, ConfigurationError, ProblemDomainError
from repro.datagen.graphs import Edge, normalize_edge

if TYPE_CHECKING:  # imported where used: most processes never need it
    import networkx as nx


# ----------------------------------------------------------------------
# Sample graphs and the Alon-class membership test
# ----------------------------------------------------------------------
class SampleGraph:
    """A fixed pattern graph whose instances we search for in the data graph."""

    def __init__(self, edges: Sequence[Edge], name: str = "sample-graph") -> None:
        if not edges:
            raise ConfigurationError("a sample graph needs at least one edge")
        canonical = sorted({normalize_edge(u, v) for u, v in edges})
        self.edges: Tuple[Edge, ...] = tuple(canonical)
        self.nodes: Tuple[int, ...] = tuple(
            sorted({node for edge in canonical for node in edge})
        )
        self.name = name

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def to_networkx(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        return graph

    def automorphism_count(self) -> int:
        """``|Aut(S)|``: self-isomorphisms of the sample graph.

        Computed once (samples are tiny) and cached; used by the
        closed-form output count.
        """
        cached = getattr(self, "_automorphisms", None)
        if cached is None:
            import networkx as nx

            graph = self.to_networkx()
            matcher = nx.algorithms.isomorphism.GraphMatcher(graph, graph)
            cached = sum(1 for _ in matcher.isomorphisms_iter())
            self._automorphisms = cached
        return cached

    # -- constructions -------------------------------------------------
    @classmethod
    def triangle(cls) -> "SampleGraph":
        return cls([(0, 1), (1, 2), (0, 2)], name="triangle")

    @classmethod
    def cycle(cls, length: int) -> "SampleGraph":
        if length < 3:
            raise ConfigurationError("a cycle needs length >= 3")
        edges = [(i, (i + 1) % length) for i in range(length)]
        return cls(edges, name=f"cycle-{length}")

    @classmethod
    def clique(cls, size: int) -> "SampleGraph":
        if size < 2:
            raise ConfigurationError("a clique needs size >= 2")
        edges = list(itertools.combinations(range(size), 2))
        return cls(edges, name=f"clique-{size}")

    @classmethod
    def path(cls, num_edges: int) -> "SampleGraph":
        if num_edges < 1:
            raise ConfigurationError("a path needs at least one edge")
        edges = [(i, i + 1) for i in range(num_edges)]
        return cls(edges, name=f"path-{num_edges}")

    # -- Alon-class membership ------------------------------------------
    def is_in_alon_class(self) -> bool:
        """Decide membership in the Alon class (Section 5.1).

        The node set must be partitionable into disjoint groups whose induced
        subgraphs are either a single edge (two nodes) or contain an
        odd-length Hamiltonian cycle.  For the small sample graphs of
        interest (≤ ~10 nodes) exhaustive search over partitions is fine.
        """
        graph = self.to_networkx()
        nodes = list(self.nodes)
        return _alon_partition_exists(graph, frozenset(nodes))


def _alon_partition_exists(graph: nx.Graph, remaining: FrozenSet[int]) -> bool:
    """Recursive search for an Alon-class partition of ``remaining`` nodes."""
    if not remaining:
        return True
    pivot = min(remaining)
    rest = remaining - {pivot}
    # Option 1: pivot pairs with a neighbour as a "single edge" component.
    for neighbour in graph.neighbors(pivot):
        if neighbour in rest:
            if _alon_partition_exists(graph, rest - {neighbour}):
                return True
    # Option 2: pivot is part of an odd-size group whose induced subgraph has
    # a Hamiltonian cycle.  Try all odd-size subsets containing the pivot.
    candidates = sorted(rest)
    for group_size in range(3, len(remaining) + 1, 2):
        for extra in itertools.combinations(candidates, group_size - 1):
            group = frozenset((pivot,) + extra)
            if _has_hamiltonian_cycle(graph.subgraph(group)):
                if _alon_partition_exists(graph, remaining - group):
                    return True
    return False


def _has_hamiltonian_cycle(graph: nx.Graph) -> bool:
    """Exhaustive Hamiltonian-cycle test, adequate for tiny sample graphs."""
    nodes = list(graph.nodes)
    if len(nodes) < 3:
        return False
    start = nodes[0]
    others = nodes[1:]
    for permutation in itertools.permutations(others):
        cycle = (start,) + permutation
        if all(
            graph.has_edge(cycle[index], cycle[(index + 1) % len(cycle)])
            for index in range(len(cycle))
        ):
            return True
    return False


# ----------------------------------------------------------------------
# The sample-graph finding problem
# ----------------------------------------------------------------------
class SampleGraphProblem(Problem):
    """Find all instances of a sample graph ``S`` in a data graph on n nodes.

    Outputs are injective mappings of S's nodes to data-graph nodes, reported
    as the sorted tuple of *data-graph edges* forming the instance, so that
    symmetric images of the same node set are not double-counted.
    """

    def __init__(self, n: int, sample: SampleGraph) -> None:
        if n < sample.num_nodes:
            raise ConfigurationError(
                f"data graph must have at least {sample.num_nodes} nodes, got {n}"
            )
        self.n = n
        self.sample = sample
        self.name = f"sample-graph[{sample.name}](n={n})"

    def inputs(self) -> Iterator[InputId]:
        return iter(itertools.combinations(range(self.n), 2))

    def outputs(self) -> Iterator[OutputId]:
        """Each output is a frozenset of data edges forming one instance."""
        seen: Set[FrozenSet[Edge]] = set()
        sample_nodes = list(self.sample.nodes)
        for assignment in itertools.permutations(range(self.n), len(sample_nodes)):
            mapping = dict(zip(sample_nodes, assignment))
            instance = frozenset(
                normalize_edge(mapping[u], mapping[v]) for u, v in self.sample.edges
            )
            if instance not in seen:
                seen.add(instance)
                yield instance

    def inputs_of(self, output: OutputId) -> FrozenSet[InputId]:
        if not isinstance(output, frozenset):
            raise ProblemDomainError(
                f"sample-graph outputs are frozensets of edges, got {output!r}"
            )
        return frozenset(output)

    @property
    def num_inputs(self) -> int:
        return math.comb(self.n, 2)

    @property
    def num_outputs(self) -> int:
        """Closed form ``|O| = n! / (n-s)! / |Aut(S)|``.

        Each output is an instance's edge set; sample graphs have no
        isolated nodes (nodes are derived from edges), so the edge set
        determines the node image and, by orbit–stabilizer, the injective
        node mappings over-count instances by exactly ``|Aut(S)|``.  The
        base-class default enumerates :meth:`outputs` — ``Θ(n^s)`` work,
        minutes at ``n`` in the hundreds — and the lower-bound recipe reads
        ``|O|`` on every planner call, so the closed form matters.
        """
        arrangements = math.perm(self.n, self.sample.num_nodes)
        return arrangements // self.sample.automorphism_count()

    def _require_alon_class(self) -> None:
        """Alon's theorem gives g(q) (and every bound below) only in its class."""
        if not self.sample.is_in_alon_class():
            raise BoundDerivationError(
                f"sample graph {self.sample.name!r} is not in the Alon class; "
                "no g(q) or lower bound is derived for it"
            )

    def max_outputs_covered(self, q: float) -> float:
        """Alon's bound ``g(q) = q^{s/2}`` for Alon-class sample graphs."""
        self._require_alon_class()
        if q <= 0:
            return 0.0
        return float(q) ** (self.sample.num_nodes / 2.0)

    def lower_bound(self, q: float) -> float:
        """Section 5.2's ``r = Ω((n / √q)^{s-2})`` (constant factors dropped)."""
        self._require_alon_class()
        if q <= 0:
            return float("inf")
        s = self.sample.num_nodes
        return max(1.0, (self.n / math.sqrt(q)) ** (s - 2))

    def lower_bound_sparse(self, q: float, m: int) -> float:
        """Section 5.3's edge form ``r = Ω((√(m/q))^{s-2})``."""
        self._require_alon_class()
        if q <= 0:
            return float("inf")
        s = self.sample.num_nodes
        return max(1.0, math.sqrt(m / q) ** (s - 2))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "num_inputs": self.num_inputs,
            "sample_nodes": self.sample.num_nodes,
            "sample_edges": self.sample.num_edges,
            "alon_class": self.sample.is_in_alon_class(),
        }


# ----------------------------------------------------------------------
# Paths of length two (Section 5.4)
# ----------------------------------------------------------------------
class TwoPathProblem(Problem):
    """Find all paths of length two in a graph over ``n`` nodes.

    An output is a 2-path ``v - u - w`` identified by its middle node ``u``
    and the unordered endpoint pair ``{v, w}``; it depends on the two edges
    ``{u, v}`` and ``{u, w}``.
    """

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ConfigurationError(f"2-path finding needs n >= 3 nodes, got {n}")
        self.n = n
        self.name = f"two-paths(n={n})"

    def inputs(self) -> Iterator[InputId]:
        return iter(itertools.combinations(range(self.n), 2))

    def outputs(self) -> Iterator[OutputId]:
        """Yield (v, u, w) with v < w and u the middle node, u != v, w."""
        for u in range(self.n):
            others = [node for node in range(self.n) if node != u]
            for v, w in itertools.combinations(others, 2):
                yield (v, u, w)

    def inputs_of(self, output: OutputId) -> FrozenSet[InputId]:
        self.validate_output(output)
        v, u, w = output
        return frozenset({normalize_edge(u, v), normalize_edge(u, w)})

    @property
    def num_inputs(self) -> int:
        return math.comb(self.n, 2)

    @property
    def num_outputs(self) -> int:
        """``3·C(n,3)`` — every node triple forms a 2-path in three ways."""
        return 3 * math.comb(self.n, 3)

    def max_outputs_covered(self, q: float) -> float:
        """Section 5.4.1's ``g(q) = C(q, 2) ≈ q²/2``."""
        if q <= 1:
            return 0.0
        return q * (q - 1) / 2.0

    def validate_output(self, output: OutputId) -> None:
        if not isinstance(output, tuple) or len(output) != 3:
            raise ProblemDomainError(f"{output!r} is not a 2-path triple")
        v, u, w = output
        nodes = {v, u, w}
        if len(nodes) != 3 or not all(0 <= node < self.n for node in nodes):
            raise ProblemDomainError(
                f"2-path {output!r} must have three distinct nodes within [0, {self.n})"
            )
        if v >= w:
            raise ProblemDomainError(
                f"2-path {output!r} endpoints must be ordered (v < w)"
            )

    def lower_bound(self, q: float) -> float:
        """Section 5.4.1's ``r >= 2n / q``, floored at the trivial bound 1."""
        if q <= 0:
            return float("inf")
        return max(1.0, 2.0 * self.n / q)

    def describe(self) -> dict:
        info = super().describe()
        info.update({"n": self.n})
        return info
