"""Logical operators and round-structure enumeration for multi-round plans.

The paper's cost model is inherently multi-round — the two-phase matrix
multiplication beats the one-phase tiling past a communication threshold,
and a multiway join can run as one Shares round or as a cascade of binary
Shares joins — but each physical schema family only knows its own round.
This module supplies the *logical* vocabulary the
:class:`~repro.pipeline.planner.PipelinePlanner` enumerates over:

* :class:`RelationLeaf` — a base relation (no rounds);
* :class:`BinaryJoinOp` — one Shares round joining two child operators;
* :class:`MultiwayJoinOp` — all relations joined in a single Shares round
  (the paper's Section 5.5 algorithm, the cascade's one-round rival);
* :class:`MatMulRoundOp` — a matrix-multiplication stage (the one-phase
  tiling, or the Section 6 two-phase chain);
* :class:`AggregateOp` — a grouping/aggregation round (replication 1).

:func:`enumerate_join_trees` generates every cascade shape for a join
query: left-deep and bushy binary trees whose internal nodes join
*attribute-connected* subsets only (a disconnected pair would be a cross
product, which the Shares enumeration deliberately never performs).  The
enumeration is a textbook subset dynamic program — the same search space
PostBOUND's upper-bound-driven join ordering walks — canonicalized so each
unordered tree appears exactly once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.problems.joins import JoinQuery, RelationSchema

#: Past this many relations the bushy enumeration is cut to left-deep trees
#: only (the subset DP is exponential; left-deep keeps planning polynomial).
MAX_BUSHY_RELATIONS = 6


@dataclass(frozen=True)
class LogicalOp:
    """Base class: one node of a logical multi-round plan."""

    @property
    def schema(self) -> RelationSchema:
        raise NotImplementedError

    @property
    def base_relations(self) -> Tuple[str, ...]:
        """Names of the base relations this operator's subtree consumes."""
        raise NotImplementedError

    @property
    def num_rounds(self) -> int:
        """Map-reduce rounds needed to materialize this operator."""
        raise NotImplementedError

    def label(self) -> str:
        return self.schema.name


@dataclass(frozen=True)
class RelationLeaf(LogicalOp):
    """A base relation: already materialized, zero rounds."""

    relation: RelationSchema

    @property
    def schema(self) -> RelationSchema:
        return self.relation

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return (self.relation.name,)

    @property
    def num_rounds(self) -> int:
        return 0


def _joined_schema(left: RelationSchema, right: RelationSchema) -> RelationSchema:
    """Schema of a binary join result: left's attributes, then right's new ones."""
    attributes = list(left.attributes)
    for attribute in right.attributes:
        if attribute not in attributes:
            attributes.append(attribute)
    return RelationSchema(
        name=f"({left.name}*{right.name})", attributes=tuple(attributes)
    )


@dataclass(frozen=True)
class BinaryJoinOp(LogicalOp):
    """One Shares round joining two child operators into an intermediate."""

    left: LogicalOp
    right: LogicalOp

    def __post_init__(self) -> None:
        shared = set(self.left.schema.attributes) & set(self.right.schema.attributes)
        if not shared:
            raise ConfigurationError(
                f"binary join of {self.left.schema.name!r} and "
                f"{self.right.schema.name!r} shares no attributes (cross "
                f"product); cascade enumeration never builds these"
            )

    @functools.cached_property
    def schema(self) -> RelationSchema:
        # Cached (the op is frozen): the executor reads it several times per
        # round and an uncached property rebuilds the whole subtree's schemas.
        return _joined_schema(self.left.schema, self.right.schema)

    @property
    def shared_attributes(self) -> Tuple[str, ...]:
        right_attrs = set(self.right.schema.attributes)
        return tuple(
            attribute
            for attribute in self.left.schema.attributes
            if attribute in right_attrs
        )

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return self.left.base_relations + self.right.base_relations

    @property
    def num_rounds(self) -> int:
        return self.left.num_rounds + self.right.num_rounds + 1

    def round_query(self) -> JoinQuery:
        """The two-relation join query this round's Shares schema serves."""
        left, right = self.left.schema, self.right.schema
        return JoinQuery([left, right], name=f"pipe:{left.name}*{right.name}")

    def post_order(self) -> List["BinaryJoinOp"]:
        """Internal nodes in execution order (children before parents)."""
        rounds: List[BinaryJoinOp] = []
        for child in (self.left, self.right):
            if isinstance(child, BinaryJoinOp):
                rounds.extend(child.post_order())
        rounds.append(self)
        return rounds

    def label(self) -> str:
        return f"cascade{self.schema.name}"


@dataclass(frozen=True)
class MultiwayJoinOp(LogicalOp):
    """All relations of a query joined in one Shares round (Section 5.5)."""

    query: JoinQuery

    @property
    def schema(self) -> RelationSchema:
        return RelationSchema(
            name=f"join[{self.query.name}]", attributes=self.query.attributes
        )

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return tuple(relation.name for relation in self.query.relations)

    @property
    def num_rounds(self) -> int:
        return 1

    def label(self) -> str:
        return f"one-round[{self.query.name}]"


@dataclass(frozen=True)
class MatMulRoundOp(LogicalOp):
    """A matrix-multiplication stage: one-phase tiling or two-phase chain."""

    n: int
    phases: int = 1

    def __post_init__(self) -> None:
        if self.phases not in (1, 2):
            raise ConfigurationError(
                f"matmul rounds come in 1- or 2-phase form, got {self.phases}"
            )

    @property
    def schema(self) -> RelationSchema:
        return RelationSchema(name=f"matmul(n={self.n})", attributes=("i", "k"))

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return ("A", "B")

    @property
    def num_rounds(self) -> int:
        return self.phases

    def label(self) -> str:
        return f"matmul-{self.phases}phase(n={self.n})"


@dataclass(frozen=True)
class AggregateOp(LogicalOp):
    """A grouping/aggregation round — trivially parallel, replication 1."""

    group_attribute: str
    input_schema: RelationSchema

    @property
    def schema(self) -> RelationSchema:
        return RelationSchema(
            name=f"agg[{self.input_schema.name}/{self.group_attribute}]",
            attributes=(self.group_attribute,),
        )

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return (self.input_schema.name,)

    @property
    def num_rounds(self) -> int:
        return 1


# ----------------------------------------------------------------------
# Cascade enumeration
# ----------------------------------------------------------------------
def enumerate_join_trees(
    query: JoinQuery,
    include_bushy: bool = True,
    max_bushy_relations: int = MAX_BUSHY_RELATIONS,
) -> List[BinaryJoinOp]:
    """Every binary join tree over the query's relations, cross-product-free.

    Trees are canonical: the child containing the query's earliest-listed
    relation is always the *left* child, so each unordered tree shape is
    produced exactly once.  Subsets that induce a disconnected join graph
    are never joined (that would be a cross product).  Beyond
    ``max_bushy_relations`` relations (or with ``include_bushy=False``)
    only left-deep trees are enumerated, keeping the search polynomial.

    A two-relation query yields the single binary tree — which is the same
    physical round as the one-round Shares plan, so the pipeline planner
    prices both paths identically there.
    """
    relations = list(query.relations)
    if len(relations) < 2:
        return []
    bushy = include_bushy and len(relations) <= max_bushy_relations
    order = {relation.name: index for index, relation in enumerate(relations)}
    leaves: Dict[str, LogicalOp] = {
        relation.name: RelationLeaf(relation) for relation in relations
    }

    memo: Dict[FrozenSet[str], List[LogicalOp]] = {}

    def trees(names: FrozenSet[str]) -> List[LogicalOp]:
        cached = memo.get(names)
        if cached is not None:
            return cached
        if len(names) == 1:
            result: List[LogicalOp] = [leaves[next(iter(names))]]
            memo[names] = result
            return result
        if not query.connected(sorted(names, key=order.get)):
            memo[names] = []
            return []
        result = []
        anchor = min(names, key=order.get)
        for left_names in _splits(names, anchor, bushy):
            right_names = names - left_names
            if not right_names:
                continue
            for left in trees(left_names):
                for right in trees(right_names):
                    if set(left.schema.attributes) & set(right.schema.attributes):
                        result.append(BinaryJoinOp(left, right))
        memo[names] = result
        return result

    def _splits(
        names: FrozenSet[str], anchor: str, bushy_here: bool
    ) -> Iterator[FrozenSet[str]]:
        rest = sorted(names - {anchor}, key=order.get)
        if bushy_here:
            # Every subset containing the anchor (canonical: anchor on the
            # left) except the full set.
            for mask in range(1 << len(rest)):
                if mask == (1 << len(rest)) - 1:
                    continue
                subset = frozenset(
                    [anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
                )
                yield subset
        else:
            # Left-deep only: one child is always a single leaf — any of
            # the non-anchor relations on the right, or the anchor itself
            # on the left (the shape where the anchor relation joins last;
            # for a two-element set that split is already the one above).
            for name in rest:
                yield names - {name}
            if len(rest) > 1:
                yield frozenset([anchor])

    roots = trees(frozenset(order))
    return [root for root in roots if isinstance(root, BinaryJoinOp)]
