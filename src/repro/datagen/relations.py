"""Relation generators for the join experiments (Sections 2.1 and 5.5).

Relations are lists of tuples over small integer attribute domains.  The
generators cover the three join shapes the paper analyses:

* the binary natural join R(A,B) ⋈ S(B,C) of Example 2.1,
* chain joins R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... ⋈ RN(A_{N-1},A_N),
* star joins of a large fact table with N smaller dimension tables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ConfigurationError

Tuple_ = Tuple[int, ...]


@dataclass(frozen=True)
class RelationInstance:
    """A named relation: attribute names plus a list of tuples."""

    name: str
    attributes: Tuple[str, ...]
    tuples: Tuple[Tuple_, ...]

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def size(self) -> int:
        return len(self.tuples)

    def project(self, attribute: str) -> List[int]:
        """Values of one attribute across all tuples (with duplicates)."""
        try:
            index = self.attributes.index(attribute)
        except ValueError as error:
            raise ConfigurationError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from error
        return [row[index] for row in self.tuples]


def random_relation(
    name: str,
    attributes: Sequence[str],
    size: int,
    domain_size: int,
    seed: int | None = None,
) -> RelationInstance:
    """A relation with ``size`` distinct random tuples over [0, domain_size)."""
    if size < 0:
        raise ConfigurationError("relation size must be non-negative")
    if domain_size <= 0:
        raise ConfigurationError("domain size must be positive")
    max_tuples = domain_size ** len(attributes)
    if size > max_tuples:
        raise ConfigurationError(
            f"cannot build {size} distinct tuples over a domain of {max_tuples}"
        )
    rng = random.Random(seed)
    rows: set[Tuple_] = set()
    while len(rows) < size:
        rows.add(tuple(rng.randrange(domain_size) for _ in attributes))
    return RelationInstance(name=name, attributes=tuple(attributes), tuples=tuple(sorted(rows)))


def zipf_relation(
    name: str,
    attributes: Sequence[str],
    size: int,
    domain_size: int,
    skew: float = 1.2,
    skewed_attribute: str | None = None,
    seed: int | None = None,
) -> RelationInstance:
    """A relation whose ``skewed_attribute`` column is Zipf-distributed.

    Values of the skewed attribute are drawn from a truncated Zipf law over
    ``[0, domain_size)`` — value ``i`` with probability proportional to
    ``1 / (i + 1) ** skew`` — while every other attribute stays uniform, so
    value 0 is the heaviest join key and ``skew`` (the documented skew
    parameter; 0 recovers the uniform generator, the paper-style skewed
    workloads use 1.2) controls how hard it dominates.  Tuples are distinct,
    which models *degree* skew: the heavy value accumulates many distinct
    join partners.  Seeded and fully reproducible.

    Because heavy values exhaust their distinct-partner supply, the
    generator stops after a bounded number of attempts; the returned
    relation may then hold fewer than ``size`` tuples (it never silently
    un-skews the distribution to hit the count).
    """
    if size < 0:
        raise ConfigurationError("relation size must be non-negative")
    if domain_size <= 0:
        raise ConfigurationError("domain size must be positive")
    if skew < 0:
        raise ConfigurationError(f"skew must be non-negative, got {skew}")
    attributes = tuple(attributes)
    if skewed_attribute is None:
        skewed_attribute = attributes[0]
    if skewed_attribute not in attributes:
        raise ConfigurationError(
            f"skewed attribute {skewed_attribute!r} is not among {attributes}"
        )
    skew_index = attributes.index(skewed_attribute)
    # Cumulative weights computed once; random.choices would otherwise
    # rebuild the O(domain_size) table on every draw of the rejection loop.
    cumulative = list(
        itertools.accumulate(
            1.0 / (value + 1) ** skew for value in range(domain_size)
        )
    )
    domain = range(domain_size)
    rng = random.Random(seed)
    rows: set[Tuple_] = set()
    attempts = 0
    max_attempts = 50 * size + 100
    while len(rows) < size and attempts < max_attempts:
        attempts += 1
        row = [rng.randrange(domain_size) for _ in attributes]
        row[skew_index] = rng.choices(domain, cum_weights=cumulative)[0]
        rows.add(tuple(row))
    return RelationInstance(
        name=name, attributes=attributes, tuples=tuple(sorted(rows))
    )


def skewed_chain_join_instance(
    num_relations: int,
    size_each: int,
    domain_size: int,
    skew: float = 1.2,
    skewed_attribute: str = "A1",
    seed: int | None = None,
) -> List[RelationInstance]:
    """A chain-join instance with one Zipf-skewed shared attribute.

    Every relation containing ``skewed_attribute`` (for the default ``A1``:
    R1 and R2) draws that column from Zipf(``skew``); all other columns and
    relations are uniform.  This is the reproducible skew workload the
    skew-aware planner tests and the repo benchmark run on.
    """
    if num_relations < 2:
        raise ConfigurationError("a chain join needs at least 2 relations")
    relations: List[RelationInstance] = []
    for index in range(num_relations):
        relation_seed = None if seed is None else seed + index
        name = f"R{index + 1}"
        attributes = (f"A{index}", f"A{index + 1}")
        if skewed_attribute in attributes:
            relations.append(
                zipf_relation(
                    name,
                    attributes,
                    size_each,
                    domain_size,
                    skew=skew,
                    skewed_attribute=skewed_attribute,
                    seed=relation_seed,
                )
            )
        else:
            relations.append(
                random_relation(name, attributes, size_each, domain_size, seed=relation_seed)
            )
    return relations


def fk_chain_join_instance(
    num_relations: int,
    size_each: int,
    domain_size: int,
    degree_cap: int = 1,
    fk_skew: float = 0.0,
    seed: int | None = None,
) -> List[RelationInstance]:
    """A chain join whose *left* attributes are degree-capped (key → FK).

    Each relation ``Ri(A_{i-1}, A_i)`` uses its first attribute as a key:
    any value of ``A_{i-1}`` appears in at most ``degree_cap`` tuples of
    ``Ri``.  With the default cap of 1 the left column is a true key, so
    every relation carries the functional dependency ``A_{i-1} → A_i`` and
    the join result can never exceed ``|R1|`` — the regime where
    degree-constraint bounds are strictly tighter than AGM (which only
    sees row counts and charges the full fractional-cover product).

    ``fk_skew > 0`` draws the *right* column (the foreign key referencing
    the next relation's key) from a truncated Zipf law instead of
    uniformly — the classic fact-to-popular-dimension shape, where a few
    referenced keys dominate while the referencing side keeps its
    key/FD structure intact.  Seeded and fully reproducible; tuples are
    distinct and sorted.
    """
    if num_relations < 2:
        raise ConfigurationError("a chain join needs at least 2 relations")
    if degree_cap < 1:
        raise ConfigurationError(f"degree cap must be >= 1, got {degree_cap}")
    if fk_skew < 0:
        raise ConfigurationError(f"fk_skew must be non-negative, got {fk_skew}")
    if size_each > domain_size * degree_cap:
        raise ConfigurationError(
            f"cannot place {size_each} tuples with left-attribute degree "
            f"<= {degree_cap} over a domain of {domain_size}"
        )
    cumulative = (
        list(
            itertools.accumulate(
                1.0 / (value + 1) ** fk_skew for value in range(domain_size)
            )
        )
        if fk_skew > 0
        else None
    )
    domain = range(domain_size)
    relations: List[RelationInstance] = []
    for index in range(num_relations):
        rng = random.Random(None if seed is None else seed + index)
        rows: set[Tuple_] = set()
        degrees: Dict[int, int] = {}
        while len(rows) < size_each:
            key = rng.randrange(domain_size)
            if degrees.get(key, 0) >= degree_cap:
                continue
            if cumulative is not None:
                value = rng.choices(domain, cum_weights=cumulative)[0]
            else:
                value = rng.randrange(domain_size)
            row = (key, value)
            if row in rows:
                continue
            rows.add(row)
            degrees[key] = degrees.get(key, 0) + 1
        relations.append(
            RelationInstance(
                name=f"R{index + 1}",
                attributes=(f"A{index}", f"A{index + 1}"),
                tuples=tuple(sorted(rows)),
            )
        )
    return relations


def binary_join_instance(
    size_r: int, size_s: int, domain_size: int, seed: int | None = None
) -> Tuple[RelationInstance, RelationInstance]:
    """R(A,B) and S(B,C) instances for the Example 2.1 natural join."""
    r = random_relation("R", ("A", "B"), size_r, domain_size, seed=seed)
    s = random_relation("S", ("B", "C"), size_s, domain_size, seed=None if seed is None else seed + 1)
    return r, s


def chain_join_instance(
    num_relations: int,
    size_each: int,
    domain_size: int,
    seed: int | None = None,
) -> List[RelationInstance]:
    """Relations R1(A0,A1) ... RN(A_{N-1},A_N) of a chain join."""
    if num_relations < 2:
        raise ConfigurationError("a chain join needs at least 2 relations")
    relations = []
    for index in range(num_relations):
        relation_seed = None if seed is None else seed + index
        relations.append(
            random_relation(
                name=f"R{index + 1}",
                attributes=(f"A{index}", f"A{index + 1}"),
                size=size_each,
                domain_size=domain_size,
                seed=relation_seed,
            )
        )
    return relations


def star_join_instance(
    num_dimensions: int,
    fact_size: int,
    dimension_size: int,
    domain_size: int,
    seed: int | None = None,
) -> Tuple[RelationInstance, List[RelationInstance]]:
    """A fact table F(K1..KN) plus N dimension tables Di(Ki, Vi).

    Dimension tables pairwise share no attributes (as the paper assumes);
    each shares exactly its key attribute with the fact table.
    """
    if num_dimensions < 1:
        raise ConfigurationError("a star join needs at least one dimension table")
    fact_attributes = tuple(f"K{i + 1}" for i in range(num_dimensions))
    fact = random_relation("F", fact_attributes, fact_size, domain_size, seed=seed)
    dimensions = []
    for index in range(num_dimensions):
        dim_seed = None if seed is None else seed + 100 + index
        dimensions.append(
            random_relation(
                name=f"D{index + 1}",
                attributes=(f"K{index + 1}", f"V{index + 1}"),
                size=dimension_size,
                domain_size=domain_size,
                seed=dim_seed,
            )
        )
    return fact, dimensions


def natural_join_oracle(
    left: RelationInstance, right: RelationInstance
) -> List[Tuple_]:
    """Serial hash-join oracle producing the natural join of two relations.

    The output tuple layout is the left tuple followed by the right tuple's
    non-shared attributes, in attribute order.
    """
    shared = [attr for attr in left.attributes if attr in right.attributes]
    if not shared:
        raise ConfigurationError(
            f"relations {left.name!r} and {right.name!r} share no attributes"
        )
    left_indices = [left.attributes.index(attr) for attr in shared]
    right_indices = [right.attributes.index(attr) for attr in shared]
    right_keep = [
        index for index, attr in enumerate(right.attributes) if attr not in shared
    ]
    table: Dict[Tuple_, List[Tuple_]] = {}
    for row in right.tuples:
        key = tuple(row[i] for i in right_indices)
        table.setdefault(key, []).append(row)
    joined: List[Tuple_] = []
    for row in left.tuples:
        key = tuple(row[i] for i in left_indices)
        for match in table.get(key, []):
            joined.append(row + tuple(match[i] for i in right_keep))
    return joined


def multiway_join_oracle(relations: Sequence[RelationInstance]) -> Tuple[List[str], List[Tuple_]]:
    """Serial left-to-right multiway natural join oracle.

    Returns the output attribute order and the joined tuples.  Intended for
    verifying the Shares algorithm on small instances, not for performance.
    """
    if not relations:
        raise ConfigurationError("multiway join needs at least one relation")
    attributes = list(relations[0].attributes)
    rows = [tuple(row) for row in relations[0].tuples]
    for relation in relations[1:]:
        shared = [attr for attr in attributes if attr in relation.attributes]
        new_attrs = [attr for attr in relation.attributes if attr not in attributes]
        rel_shared_idx = [relation.attributes.index(attr) for attr in shared]
        rel_new_idx = [relation.attributes.index(attr) for attr in new_attrs]
        acc_shared_idx = [attributes.index(attr) for attr in shared]
        table: Dict[Tuple_, List[Tuple_]] = {}
        for row in relation.tuples:
            key = tuple(row[i] for i in rel_shared_idx)
            table.setdefault(key, []).append(row)
        next_rows: List[Tuple_] = []
        for row in rows:
            key = tuple(row[i] for i in acc_shared_idx)
            for match in table.get(key, []):
                next_rows.append(row + tuple(match[i] for i in rel_new_idx))
        rows = next_rows
        attributes.extend(new_attrs)
    return attributes, rows
