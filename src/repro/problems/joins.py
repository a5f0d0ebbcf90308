"""Join problems: natural join, chain joins, star joins (Sections 2.1, 5.5).

The join problems are parameterized by a *query hypergraph*: nodes are
attributes (variables), hyperedges are relation schemas.  The size bound on
the number of outputs coverable with ``q`` inputs is ``g(q) = q^ρ`` where
``ρ`` is the optimal fractional edge cover value of the hypergraph
(Atserias–Grohe–Marx), computed in :mod:`repro.bounds.cover`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.problem import InputId, OutputId, Problem
from repro.exceptions import ConfigurationError, ProblemDomainError


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one relation in a join query: a name plus attribute names."""

    name: str
    attributes: Tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.attributes)


class JoinQuery:
    """A multiway natural-join query, i.e. a named query hypergraph."""

    def __init__(self, relations: Sequence[RelationSchema], name: str = "join-query") -> None:
        if not relations:
            raise ConfigurationError("a join query needs at least one relation")
        names = [relation.name for relation in relations]
        if len(set(names)) != len(names):
            raise ConfigurationError("relation names in a join query must be distinct")
        self.relations: Tuple[RelationSchema, ...] = tuple(relations)
        self.name = name
        # ``relations`` is fixed here, so its attributes are too (a dict keeps
        # first-appearance order).
        self._attributes: Tuple[str, ...] = tuple(
            dict.fromkeys(itertools.chain.from_iterable(r.attributes for r in self.relations))
        )

    @property
    def attributes(self) -> Tuple[str, ...]:
        """All attributes (hypergraph nodes) in first-appearance order."""
        return self._attributes

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def hyperedges(self) -> List[FrozenSet[str]]:
        """The hypergraph's edges: one attribute set per relation."""
        return [frozenset(relation.attributes) for relation in self.relations]

    def relation(self, name: str) -> RelationSchema:
        """The named relation's schema."""
        for relation in self.relations:
            if relation.name == name:
                return relation
        raise ConfigurationError(
            f"query {self.name!r} has no relation {name!r} "
            f"(relations: {[r.name for r in self.relations]})"
        )

    def induced(self, relation_names: Sequence[str], name: Optional[str] = None) -> "JoinQuery":
        """The sub-query over a subset of this query's relations.

        Relations keep their schemas and this query's relative order.  The
        multi-round pipeline planner uses induced sub-queries to price and
        bound the intermediate result of a cascade subtree (e.g. the AGM
        bound of ``R1 ⋈ R2`` inside a longer chain).
        """
        wanted = set(relation_names)
        unknown = wanted - {relation.name for relation in self.relations}
        if unknown:
            raise ConfigurationError(
                f"query {self.name!r} has no relations {sorted(unknown)}"
            )
        kept = [relation for relation in self.relations if relation.name in wanted]
        return JoinQuery(
            kept,
            name=name or f"{self.name}[{'+'.join(r.name for r in kept)}]",
        )

    def connected(self, relation_names: Optional[Sequence[str]] = None) -> bool:
        """Whether the join graph over the given relations is connected.

        Two relations are adjacent when they share at least one attribute.
        A cascade planner only joins connected subsets — joining a
        disconnected pair is a cross product, which the Shares analysis
        (and this library's enumeration) deliberately avoids.
        """
        names = (
            [relation.name for relation in self.relations]
            if relation_names is None
            else list(relation_names)
        )
        if not names:
            return False
        schemas = {name: self.relation(name) for name in names}
        visited = {names[0]}
        frontier = [names[0]]
        while frontier:
            current = schemas[frontier.pop()]
            for other in names:
                if other in visited:
                    continue
                if set(current.attributes) & set(schemas[other].attributes):
                    visited.add(other)
                    frontier.append(other)
        return len(visited) == len(names)

    # -- standard query shapes -----------------------------------------
    @classmethod
    def binary_join(cls) -> "JoinQuery":
        """R(A,B) ⋈ S(B,C) — the Example 2.1 join."""
        return cls(
            [
                RelationSchema("R", ("A", "B")),
                RelationSchema("S", ("B", "C")),
            ],
            name="binary-join",
        )

    @classmethod
    def chain(cls, num_relations: int) -> "JoinQuery":
        """R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... ⋈ RN(A_{N-1}, A_N)."""
        if num_relations < 2:
            raise ConfigurationError("a chain join needs at least two relations")
        relations = [
            RelationSchema(f"R{index + 1}", (f"A{index}", f"A{index + 1}"))
            for index in range(num_relations)
        ]
        return cls(relations, name=f"chain-join-{num_relations}")

    @classmethod
    def star(cls, num_dimensions: int) -> "JoinQuery":
        """F(K1..KN) ⋈ D1(K1,V1) ⋈ ... ⋈ DN(KN,VN)."""
        if num_dimensions < 1:
            raise ConfigurationError("a star join needs at least one dimension table")
        fact = RelationSchema("F", tuple(f"K{i + 1}" for i in range(num_dimensions)))
        dimensions = [
            RelationSchema(f"D{i + 1}", (f"K{i + 1}", f"V{i + 1}"))
            for i in range(num_dimensions)
        ]
        return cls([fact] + dimensions, name=f"star-join-{num_dimensions}")

    @classmethod
    def cycle(cls, length: int) -> "JoinQuery":
        """R1(A0,A1) ⋈ ... ⋈ RL(A_{L-1}, A0) — a cyclic binary-relation join."""
        if length < 3:
            raise ConfigurationError("a cycle join needs at least three relations")
        relations = [
            RelationSchema(
                f"R{index + 1}",
                (f"A{index}", f"A{(index + 1) % length}"),
            )
            for index in range(length)
        ]
        return cls(relations, name=f"cycle-join-{length}")


class MultiwayJoinProblem(Problem):
    """The multiway-join problem over a finite attribute domain of size n.

    Inputs are all possible tuples of every relation in the query; outputs
    are all assignments of domain values to the query's attributes.  An
    output depends on one tuple per relation — the projection of the
    assignment onto that relation's schema.
    """

    def __init__(self, query: JoinQuery, domain_size: int, rho: Optional[float] = None) -> None:
        if domain_size <= 0:
            raise ConfigurationError(f"domain size must be positive, got {domain_size}")
        if rho is not None and rho < 1:
            raise ConfigurationError(
                f"the fractional edge cover value is at least 1, got rho={rho}"
            )
        self.query = query
        self.domain_size = domain_size
        self._rho = rho
        self.name = f"{query.name}(n={domain_size})"

    # ------------------------------------------------------------------
    # Domain
    # ------------------------------------------------------------------
    def inputs(self) -> Iterator[InputId]:
        """Each input is (relation name, tuple of attribute values)."""
        for relation in self.query.relations:
            for values in itertools.product(range(self.domain_size), repeat=relation.arity):
                yield (relation.name, values)

    def outputs(self) -> Iterator[OutputId]:
        """Each output is a full assignment: a tuple of values, one per attribute."""
        for values in itertools.product(
            range(self.domain_size), repeat=self.query.num_attributes
        ):
            yield values

    def inputs_of(self, output: OutputId) -> FrozenSet[InputId]:
        assignment = self._assignment(output)
        needed = set()
        for relation in self.query.relations:
            projected = tuple(assignment[attribute] for attribute in relation.attributes)
            needed.add((relation.name, projected))
        return frozenset(needed)

    def _assignment(self, output: OutputId) -> Dict[str, int]:
        attributes = self.query.attributes
        if not isinstance(output, tuple) or len(output) != len(attributes):
            raise ProblemDomainError(
                f"output {output!r} is not an assignment to {len(attributes)} attributes"
            )
        for value in output:
            if not (0 <= value < self.domain_size):
                raise ProblemDomainError(
                    f"output {output!r} has a value outside [0, {self.domain_size})"
                )
        return dict(zip(attributes, output))

    # ------------------------------------------------------------------
    # Counts and g(q)
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return sum(self.domain_size ** relation.arity for relation in self.query.relations)

    @property
    def num_outputs(self) -> int:
        return self.domain_size ** self.query.num_attributes

    @property
    def rho(self) -> float:
        """The fractional edge cover value ρ used in g(q) = q^ρ.

        Read from the cached cover of the query hypergraph unless supplied
        at construction time.  Imported here (not at module import) to keep
        the problems package import-light.
        """
        if self._rho is None:
            from repro.bounds.cover import fractional_edge_cover

            self._rho = fractional_edge_cover(self.query).value
        return self._rho

    def max_outputs_covered(self, q: float) -> float:
        """AGM-style bound ``g(q) = q^ρ`` (constant factors dropped)."""
        if q <= 0:
            return 0.0
        return float(q) ** self.rho

    # ------------------------------------------------------------------
    # Closed-form lower bounds (Section 5.5.1)
    # ------------------------------------------------------------------
    def lower_bound(self, q: float) -> float:
        """``r >= n^{m-α} / q^{ρ-1}`` with m attributes over domain size n.

        ``α`` is the largest relation arity: the recipe's ``|I|`` is taken
        as ``n^α``, the order of the largest relation (constant factors
        dropped).  Binary relations give the paper's ``n^{m-2}``; equal
        arities give Section 5.5.1's ``n^{m-α}``.
        """
        if q <= 0:
            return float("inf")
        n = self.domain_size
        m = self.query.num_attributes
        alpha = max(relation.arity for relation in self.query.relations)
        return max(1.0, n ** (m - alpha) / q ** (self.rho - 1.0))

    def chain_lower_bound(self, q: float) -> float:
        """Chain-join specialisation ``r >= (n/√q)^{N-1}`` (Section 5.5.2)."""
        if q <= 0:
            return float("inf")
        num_relations = self.query.num_relations
        return max(1.0, (self.domain_size / math.sqrt(q)) ** (num_relations - 1))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "relations": self.query.num_relations,
            "attributes": self.query.num_attributes,
            "domain_size": self.domain_size,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "rho": self.rho,
        }


def star_join_replication_lower_bound(
    fact_size: float, dimension_size: float, q: float, num_dimensions: int
) -> float:
    """Section 5.5.2's star-join lower bound ``N·d0·(N·d0/q)^{N-1} / (f + N·d0)``."""
    if num_dimensions < 1:
        raise ConfigurationError("a star join needs at least one dimension table")
    if q <= 0:
        return float("inf")
    N = num_dimensions
    d0 = dimension_size
    return N * d0 * (N * d0 / q) ** (N - 1) / (fact_size + N * d0)


class NaturalJoinProblem(MultiwayJoinProblem):
    """The two-relation natural join R(A,B) ⋈ S(B,C) of Example 2.1.

    Provided as its own class because the paper uses it as the introductory
    example; it is simply the chain join with two relations.
    """

    def __init__(self, domain_size: int) -> None:
        super().__init__(JoinQuery.binary_join(), domain_size)
        self.name = f"natural-join(n={domain_size})"
