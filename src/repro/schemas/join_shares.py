"""The Shares algorithm for multiway joins (Section 5.5 upper bounds).

The Shares algorithm [Afrati–Ullman, ref. 1 in the paper] assigns each
attribute ``A`` of the join a *share* ``s_A``; the reducers form a grid with
one coordinate per attribute, the coordinate for ``A`` ranging over
``s_A`` hash buckets.  A tuple of relation ``R_e`` (with attribute set
``A_e``) knows the coordinates of the attributes it contains and must be
replicated to every combination of the remaining coordinates, i.e. to
``Π_{A ∉ A_e} s_A`` reducers.

The module provides:

* a generic :class:`SharesSchema` that works for any join query and share
  vector, can build an explicit mapping schema over the model's full input
  domain, and produces an executable job joining real relation instances;
* share-vector constructors for the two query shapes the paper analyses
  (chain joins and star joins) plus the closed-form replication rates used
  in Table 2.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.mapping_schema import MappingSchema, SchemaFamily
from repro.core.problem import Problem
from repro.datagen.relations import RelationInstance, multiway_join_oracle
from repro.exceptions import ConfigurationError
from repro.mapreduce.columnar import (
    BatchEncodingError,
    BatchKernel,
    ColumnBatch,
    require_numpy,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import attribute_bucket
from repro.problems.joins import JoinQuery, MultiwayJoinProblem

GridPoint = Tuple[int, ...]

#: Above this many reducers, certification falls back to one coarse bound
#: (valid for every grid point) instead of bounding each point of the grid.
_CERTIFICATION_GRID_LIMIT = 4096


class SharesSchema(SchemaFamily):
    """Grid-of-reducers schema defined by a share per join attribute.

    Parameters
    ----------
    query:
        The join query (hypergraph).
    shares:
        Mapping from attribute name to its integer share (>= 1).  Attributes
        omitted from the mapping get share 1 (no partitioning on them).
    domain_size:
        Domain size ``n`` used for the closed-form replication-rate and
        reducer-size formulas over the model's full input domain.
    """

    def __init__(
        self,
        query: JoinQuery,
        shares: Mapping[str, int],
        domain_size: int,
    ) -> None:
        if domain_size <= 0:
            raise ConfigurationError("domain_size must be positive")
        unknown = set(shares) - set(query.attributes)
        if unknown:
            raise ConfigurationError(
                f"shares given for attributes not in the query: {sorted(unknown)}"
            )
        self.query = query
        self.domain_size = domain_size
        self.shares: Dict[str, int] = {}
        for attribute in query.attributes:
            share = int(shares.get(attribute, 1))
            if share < 1:
                raise ConfigurationError(
                    f"share for attribute {attribute!r} must be >= 1, got {share}"
                )
            self.shares[attribute] = share
        share_text = ",".join(f"{a}={s}" for a, s in self.shares.items())
        self.name = f"shares[{query.name}]({share_text})"

    # ------------------------------------------------------------------
    # Grid geometry
    # ------------------------------------------------------------------
    @property
    def num_reducers(self) -> int:
        """Total number of grid points ``Π_A s_A`` (the paper's ``p``)."""
        return math.prod(self.shares.values())

    def bucket_of(self, attribute: str, value: int) -> int:
        """Hash bucket of an attribute value within that attribute's share."""
        return attribute_bucket(attribute, value, self.shares[attribute])

    def reducers_for(
        self, relation_name: str, values: Sequence[int]
    ) -> Iterator[GridPoint]:
        """Grid points a tuple of the named relation is replicated to."""
        relation = self.query.relation(relation_name)
        if len(values) != relation.arity:
            raise ConfigurationError(
                f"tuple {values!r} does not match the arity of {relation_name!r}"
            )
        assignment = dict(zip(relation.attributes, values))
        coordinate_choices: List[range | List[int]] = []
        for attribute in self.query.attributes:
            if attribute in assignment:
                coordinate_choices.append([self.bucket_of(attribute, assignment[attribute])])
            else:
                coordinate_choices.append(range(self.shares[attribute]))
        for point in itertools.product(*coordinate_choices):
            yield tuple(point)

    def reducer_of_output(self, assignment: Mapping[str, int]) -> GridPoint:
        """The unique grid point responsible for a full attribute assignment."""
        return tuple(
            self.bucket_of(attribute, assignment[attribute])
            for attribute in self.query.attributes
        )

    def replication_of(self, relation_name: str) -> int:
        """Number of reducers one tuple of the named relation reaches."""
        covered = self.query.relation(relation_name).attributes
        return math.prod(
            share for attribute, share in self.shares.items() if attribute not in covered
        )

    # ------------------------------------------------------------------
    # SchemaFamily interface
    # ------------------------------------------------------------------
    def build(self, problem: Problem) -> MappingSchema:
        if not isinstance(problem, MultiwayJoinProblem):
            raise ConfigurationError("SharesSchema serves MultiwayJoinProblem instances")
        if problem.query is not self.query and problem.query.name != self.query.name:
            raise ConfigurationError(
                "schema and problem were built for different join queries"
            )
        if problem.domain_size != self.domain_size:
            raise ConfigurationError(
                "schema and problem were built for different domain sizes"
            )
        schema = MappingSchema(problem, q=None, name=self.name)
        for input_id in problem.inputs():
            relation_name, values = input_id
            for point in self.reducers_for(relation_name, values):
                schema.assign_one(point, input_id)
        schema.q = schema.max_reducer_size()
        return schema

    def replication_rate_formula(self) -> float:
        """Average replication over the model's full input domain.

        Each relation contributes ``n^arity`` inputs each replicated to
        ``Π_{A ∉ relation} s_A`` reducers.
        """
        n = self.domain_size
        total_inputs = 0
        total_pairs = 0
        for relation in self.query.relations:
            relation_inputs = n ** relation.arity
            total_inputs += relation_inputs
            total_pairs += relation_inputs * self.replication_of(relation.name)
        return total_pairs / total_inputs

    def max_reducer_size_formula(self) -> float:
        """The Section 5.5 expectation of a reducer's load on the full domain.

        :meth:`expected_reducer_load` at ``n^arity`` rows per relation.  It
        is an average, not a bound (hash buckets on a small domain are not
        balanced), and the planner does not read it: it certifies Shares
        candidates on the model domain's exact profile instead.
        """
        n = self.domain_size
        return self.expected_reducer_load(
            {relation.name: n ** relation.arity for relation in self.query.relations}
        )

    def expected_communication(self, row_counts: Mapping[str, int]) -> float:
        """Shuffled pairs on an actual instance: ``Σ_e |R_e| · Π_{A∉A_e} s_A``.

        Delegates to :func:`shares_communication`, the module-level form
        the profile-driven share optimizer evaluates on raw share vectors
        (the model's closed form uses ``n^arity`` row counts instead).
        """
        return shares_communication(self.query, self.shares, row_counts)

    def expected_reducer_load(self, row_counts: Mapping[str, int]) -> float:
        """Hash-balanced expected load per reducer (the Section 5.5 analysis).

        Relation ``R_e`` spreads its ``row_counts[R_e]`` tuples over
        ``Π_{A ∈ A_e} s_A`` coordinate combinations.  On skewed inputs, and
        on small domains where hash buckets are unbalanced, the observed
        maximum can exceed this freely — that gap is exactly what the
        profile-based certificates close.
        """
        expected = 0.0
        for relation in self.query.relations:
            covered_shares = 1
            for attribute in relation.attributes:
                covered_shares *= self.shares[attribute]
            expected += row_counts[relation.name] / covered_shares
        return expected

    # ------------------------------------------------------------------
    # Profile-based certification hook
    # ------------------------------------------------------------------
    def reducer_load_bounds(self, oracle) -> array:
        """Upper bound on the input load of every reducer of this schema.

        ``oracle`` answers bucket-weight queries from a dataset profile (see
        :class:`repro.planner.certify.ProfileWeightOracle`); it must hash
        values to buckets exactly as :meth:`bucket_of` does.  A relation's
        tuples at a grid point all agree with the point's coordinate on each
        of the relation's own attributes, so the *minimum* over those
        attributes of the bucket weights bounds the relation's contribution;
        summing over relations bounds the reducer.  Bounds come in
        ``itertools.product`` order of the grid points; grids larger than
        ``_CERTIFICATION_GRID_LIMIT`` yield a single coarse bound (max
        bucket weight per attribute) valid for every point.
        """
        return self._main_grid_loads(oracle, {})

    def _main_grid_loads(
        self, oracle, excluded: Mapping[str, FrozenSet[Any]]
    ) -> array:
        """Main-grid bounds; ``excluded`` values never reach an attribute."""
        coarse = math.prod(self.shares.values()) > _CERTIFICATION_GRID_LIMIT

        def weights(relation: str, attribute: str) -> Sequence[float]:
            return _bucket_weights(
                oracle,
                relation,
                attribute,
                self.shares[attribute],
                coarse,
                excluded.get(attribute, frozenset()),
            )

        return _separable_loads(self.query, self.query.attributes, weights)

    # ------------------------------------------------------------------
    # Executable job over real relation instances
    # ------------------------------------------------------------------
    def job(self, relations: Sequence[RelationInstance]) -> MapReduceJob:
        """Join the given relation instances with one round of map-reduce.

        Input records are ``(relation name, tuple)``.  Each reducer joins its
        local fragments with the serial oracle and emits only the result
        tuples whose full attribute assignment hashes to that reducer,
        guaranteeing each join result is emitted exactly once.
        """
        by_name = {relation.name: relation for relation in relations}
        for relation in self.query.relations:
            if relation.name not in by_name:
                raise ConfigurationError(
                    f"no instance supplied for relation {relation.name!r}"
                )
        schema = self
        query = self.query

        def mapper(record: Tuple[str, Tuple[int, ...]]):
            relation_name, values = record
            for point in schema.reducers_for(relation_name, values):
                yield (point, record)

        def reducer(point: GridPoint, records: List[Tuple[str, Tuple[int, ...]]]):
            fragments: Dict[str, set] = {
                relation.name: set() for relation in query.relations
            }
            for relation_name, values in records:
                fragments[relation_name].add(tuple(values))
            local_instances = []
            for relation in query.relations:
                local_instances.append(
                    RelationInstance(
                        name=relation.name,
                        attributes=relation.attributes,
                        tuples=tuple(sorted(fragments[relation.name])),
                    )
                )
            attributes, rows = multiway_join_oracle(local_instances)
            for row in rows:
                assignment = dict(zip(attributes, row))
                if schema.reducer_of_output(assignment) == point:
                    yield tuple(assignment[attribute] for attribute in query.attributes)

        return MapReduceJob(
            mapper=mapper,
            reducer=reducer,
            name=self.name,
            batch_kernel=self._batch_kernel(),
        )

    def _batch_kernel(self) -> "SharesBatchKernel":
        """The vectorized kernel matching this schema's mapper/reducer."""
        return SharesBatchKernel(self)

    @staticmethod
    def input_records(relations: Sequence[RelationInstance]) -> List[Tuple[str, Tuple[int, ...]]]:
        """Flatten relation instances into the job's input records."""
        records: List[Tuple[str, Tuple[int, ...]]] = []
        for relation in relations:
            for row in relation.tuples:
                records.append((relation.name, tuple(row)))
        return records


class SkewAwareSharesSchema(SharesSchema):
    """Shares with profiled heavy-hitter values isolated onto sub-grids.

    Vanilla Shares hashes every value of an attribute across that
    attribute's share, so all tuples carrying one heavy join value collide
    on a single coordinate — the grid cannot split them no matter how many
    reducers it spends on that attribute.  Following the SkewJoin idea,
    this variant diverts each profiled heavy value ``v`` of one
    ``skew_attribute`` to its own dedicated reducer sub-grid partitioned on
    the *remaining* attributes (``heavy_shares``), so the heavy value's
    tuples are spread instead of stacked:

    * a tuple whose ``skew_attribute`` value is heavy goes **only** to the
      matching sub-grid (replicated over the sub-shares of attributes it
      lacks);
    * a tuple of a relation without the ``skew_attribute`` goes to the main
      grid as usual **and** to every heavy sub-grid (the broadcast cost of
      skew handling);
    * every other tuple uses the vanilla main grid, whose geometry is
      unchanged (heavy tuples simply never arrive there).

    Reducer ids are tagged — ``("main", *point)`` or
    ``("heavy", v, *subpoint)`` — and each join result is emitted exactly
    once: an output assignment belongs to the sub-grid of its heavy
    ``skew_attribute`` value, or to the main grid when that value is not
    heavy.  All relations sharing the attribute agree on its value in any
    join result, so the contributing tuples always meet at the owner.
    """

    def __init__(
        self,
        query: JoinQuery,
        shares: Mapping[str, int],
        domain_size: int,
        skew_attribute: str,
        heavy_values: Iterable[int],
        heavy_shares: Optional[Mapping[str, int]] = None,
    ) -> None:
        super().__init__(query, shares, domain_size)
        if skew_attribute not in query.attributes:
            raise ConfigurationError(
                f"skew attribute {skew_attribute!r} is not part of query "
                f"{query.name!r}"
            )
        self.skew_attribute = skew_attribute
        self.heavy_values = frozenset(heavy_values)
        if not self.heavy_values:
            raise ConfigurationError(
                "SkewAwareSharesSchema needs at least one heavy value; use "
                "SharesSchema when the profile shows no skew"
            )
        self.sub_attributes: Tuple[str, ...] = tuple(
            attribute for attribute in query.attributes if attribute != skew_attribute
        )
        heavy_shares = heavy_shares or {}
        unknown = set(heavy_shares) - set(self.sub_attributes)
        if unknown:
            raise ConfigurationError(
                f"heavy shares given for attributes that are not sub-grid "
                f"coordinates: {sorted(unknown)}"
            )
        self.heavy_shares: Dict[str, int] = {}
        for attribute in self.sub_attributes:
            share = int(heavy_shares.get(attribute, 1))
            if share < 1:
                raise ConfigurationError(
                    f"heavy share for attribute {attribute!r} must be >= 1, "
                    f"got {share}"
                )
            self.heavy_shares[attribute] = share
        share_text = ",".join(f"{a}={s}" for a, s in self.shares.items())
        sub_text = ",".join(
            f"{a}={s}" for a, s in self.heavy_shares.items() if s > 1
        ) or "-"
        self.name = (
            f"skew-shares[{query.name}]({share_text};"
            f"{skew_attribute}:{len(self.heavy_values)}hh;sub:{sub_text})"
        )

    # ------------------------------------------------------------------
    # Grid geometry
    # ------------------------------------------------------------------
    @property
    def sub_grid_size(self) -> int:
        return math.prod(self.heavy_shares.values())

    @property
    def num_reducers(self) -> int:
        return super().num_reducers + len(self.heavy_values) * self.sub_grid_size

    def sub_bucket_of(self, attribute: str, value: int) -> int:
        """Sub-grid hash bucket; same hashing rule as :meth:`bucket_of`."""
        return attribute_bucket(attribute, value, self.heavy_shares[attribute])

    def _ordered_heavy_values(self) -> List[int]:
        return sorted(self.heavy_values, key=repr)

    def _sub_points(
        self, value: int, assignment: Mapping[str, int]
    ) -> Iterator[GridPoint]:
        choices: List[Any] = []
        for attribute in self.sub_attributes:
            if attribute in assignment:
                choices.append([self.sub_bucket_of(attribute, assignment[attribute])])
            else:
                choices.append(range(self.heavy_shares[attribute]))
        for point in itertools.product(*choices):
            yield ("heavy", value) + tuple(point)

    def reducers_for(
        self, relation_name: str, values: Sequence[int]
    ) -> Iterator[GridPoint]:
        relation = self.query.relation(relation_name)
        if len(values) != relation.arity:
            raise ConfigurationError(
                f"tuple {values!r} does not match the arity of {relation_name!r}"
            )
        assignment = dict(zip(relation.attributes, values))
        skew_value = assignment.get(self.skew_attribute)
        if skew_value is not None and skew_value in self.heavy_values:
            yield from self._sub_points(skew_value, assignment)
            return
        for point in super().reducers_for(relation_name, values):
            yield ("main",) + point
        if self.skew_attribute not in assignment:
            for value in self._ordered_heavy_values():
                yield from self._sub_points(value, assignment)

    def reducer_of_output(self, assignment: Mapping[str, int]) -> GridPoint:
        skew_value = assignment[self.skew_attribute]
        if skew_value in self.heavy_values:
            return ("heavy", skew_value) + tuple(
                self.sub_bucket_of(attribute, assignment[attribute])
                for attribute in self.sub_attributes
            )
        return ("main",) + super().reducer_of_output(assignment)

    def _batch_kernel(self) -> "SharesBatchKernel":
        return SkewAwareSharesBatchKernel(self)

    # ------------------------------------------------------------------
    # Closed forms over the model's full input domain
    # ------------------------------------------------------------------
    def replication_rate_formula(self) -> float:
        n = self.domain_size
        num_heavy = len(self.heavy_values)
        total_inputs = 0
        total_pairs = 0.0
        for relation in self.query.relations:
            relation_inputs = n ** relation.arity
            total_inputs += relation_inputs
            main_replication = self.replication_of(relation.name)
            sub_replication = 1
            for attribute in self.sub_attributes:
                if attribute not in relation.attributes:
                    sub_replication *= self.heavy_shares[attribute]
            if self.skew_attribute in relation.attributes:
                heavy_fraction = min(num_heavy, n) / n
                total_pairs += relation_inputs * (
                    (1.0 - heavy_fraction) * main_replication
                    + heavy_fraction * sub_replication
                )
            else:
                total_pairs += relation_inputs * (
                    main_replication + num_heavy * sub_replication
                )
        return total_pairs / total_inputs

    def max_reducer_size_formula(self) -> float:
        """Expected load of the fuller of a main grid point / sub-grid point."""
        n = self.domain_size
        num_heavy = min(len(self.heavy_values), n)
        main_expected = 0.0
        sub_expected = 0.0
        for relation in self.query.relations:
            covered = 1
            for attribute in relation.attributes:
                covered *= self.shares[attribute]
            relation_inputs = n ** relation.arity
            if self.skew_attribute in relation.attributes:
                main_expected += (
                    relation_inputs * (1.0 - num_heavy / n) / covered
                )
                sub_covered = 1
                for attribute in relation.attributes:
                    if attribute != self.skew_attribute:
                        sub_covered *= self.heavy_shares[attribute]
                sub_expected += n ** (relation.arity - 1) / sub_covered
            else:
                main_expected += relation_inputs / covered
                sub_covered = 1
                for attribute in relation.attributes:
                    sub_covered *= self.heavy_shares[attribute]
                sub_expected += relation_inputs / sub_covered
        return max(main_expected, sub_expected)

    # ------------------------------------------------------------------
    # Profile-based certification hook
    # ------------------------------------------------------------------
    def reducer_load_bounds(self, oracle) -> array:
        # Main grid: relations containing the skew attribute only send their
        # non-heavy tuples there, so heavy values are excluded from that
        # attribute's bucket weights.
        main = self._main_grid_loads(
            oracle, {self.skew_attribute: self.heavy_values}
        )
        # Heavy sub-grids: one grid over the remaining attributes per heavy
        # value — the heavy values are the leading axis, so the bounds come
        # sub-grid by sub-grid.  A relation with the skew attribute
        # contributes at most its count of tuples carrying that exact value.
        heavy = self._ordered_heavy_values()
        coarse = self.sub_grid_size > _CERTIFICATION_GRID_LIMIT

        def weights(relation: str, attribute: str) -> Sequence[float]:
            if attribute == self.skew_attribute:
                return [
                    oracle.value_weight(relation, attribute, value)
                    for value in heavy
                ]
            return _bucket_weights(
                oracle, relation, attribute, self.heavy_shares[attribute], coarse
            )

        return main + _separable_loads(
            self.query, (self.skew_attribute,) + self.sub_attributes, weights
        )


def _bucket_weights(
    oracle,
    relation: str,
    attribute: str,
    share: int,
    coarse: bool,
    exclude: FrozenSet[Any] = frozenset(),
) -> Sequence[float]:
    """One attribute's weight per bucket of its share, for its grid axis.

    A ``coarse`` grid (past ``_CERTIFICATION_GRID_LIMIT``) collapses the
    axis to its heaviest bucket, which bounds every bucket of the share.
    """
    if coarse:
        return (oracle.max_bucket_weight(relation, attribute, share, exclude),)
    return oracle.bucket_weights(relation, attribute, share, exclude)


def _separable_loads(
    query: JoinQuery,
    axes: Sequence[str],
    weights: Callable[[str, str], Sequence[float]],
) -> array:
    """``Σ_rel min_{A ∈ rel} weights(rel, A)[c_A]`` at every grid point ``c``.

    The grid has one axis per attribute of ``axes`` (which must cover the
    query's attributes), as long as that attribute's weight vector.  A
    relation's bound is separable over the relation's own axes, so each
    vector is laid along its axis and broadcasting evaluates the whole grid
    from ``Σ_rel arity`` vectors; the bounds come back in C order, the
    ``itertools.product`` order of the grid points.  Float ``min`` is exact
    and the relation terms are added in ``query.relations`` order from
    ``0.0``, so every bound carries the bits of the scalar sum
    ``((0.0 + t₁) + t₂) + …``.  They are handed back packed — an
    ``array('d')`` copied straight from the numpy buffer, 8 bytes a bound
    and no boxed float per reducer — because the planner's schema cache
    retains one profile per certified candidate.
    """
    np = require_numpy()
    loads = 0.0
    for relation in query.relations:
        bound = None
        for attribute in relation.attributes:
            dims = [1] * len(axes)
            dims[axes.index(attribute)] = -1
            operand = np.asarray(
                weights(relation.name, attribute), dtype=np.float64
            ).reshape(dims)
            bound = operand if bound is None else np.minimum(bound, operand)
        loads = loads + bound
    return array("d", loads.tobytes())


# ----------------------------------------------------------------------
# Vectorized kernels for the Shares jobs
# ----------------------------------------------------------------------
#: Sentinel column name for the reducer-group index when the whole run is
#: joined in one pass (it behaves as an attribute shared by every relation,
#: which restricts every join step to within-group matches).
_GROUP_COLUMN = "\x00group"


def _lexicographic_order(table):
    """Row order sorting a 2-D array lexicographically (column 0 primary).

    ``np.lexsort`` runs one radix-friendly stable pass per int64 column —
    far faster than ``np.unique(axis=0)``'s void-dtype comparison sort.
    """
    np = require_numpy()
    return np.lexsort(tuple(table[:, i] for i in range(table.shape[1] - 1, -1, -1)))


def _pack_rows(table):
    """Pack rows into single int64 codes preserving lexicographic order.

    Columns are offset by their minimum and strided by the product of the
    later columns' spans, so numeric code order equals row lexicographic
    order.  Returns ``(codes, mins, spans)``, or ``None`` when the spans
    overflow exact int64 arithmetic (the caller then takes a lexsort path).
    """
    np = require_numpy()
    mins = table.min(axis=0)
    spans = [int(v) for v in (table.max(axis=0) - mins + 1).tolist()]
    capacity = 1
    for span in spans:
        capacity *= span
        if capacity >= 2**62:
            return None
    codes = np.zeros(len(table), dtype=np.int64)
    for index in range(table.shape[1]):
        codes *= spans[index]
        codes += table[:, index] - mins[index]
    return codes, mins, spans


def _unpack_codes(codes, mins, spans):
    """Inverse of :func:`_pack_rows` for an array of packed codes."""
    np = require_numpy()
    columns = [None] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        columns[index] = codes % spans[index] + mins[index]
        codes = codes // spans[index]
    return np.stack(columns, axis=1)


def _sorted_unique_rows(table):
    """Lexicographically sorted, deduplicated rows (``sorted(set(...))``)."""
    np = require_numpy()
    if len(table) == 0 or table.shape[1] == 0:
        return table[:1]
    packed = _pack_rows(table)
    if packed is not None:
        codes, mins, spans = packed
        # np.sort + consecutive-difference mask beats np.unique's hash-based
        # path by an order of magnitude on mostly-distinct code arrays.
        ordered_codes = np.sort(codes)
        keep = np.empty(len(ordered_codes), dtype=bool)
        keep[0] = True
        np.not_equal(ordered_codes[1:], ordered_codes[:-1], out=keep[1:])
        return _unpack_codes(ordered_codes[keep], mins, spans)
    ordered = table[_lexicographic_order(table)]
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]


def _row_group_codes(table):
    """Dense group ids per row (equal rows share an id), plus the id count.

    Ids are assigned in lexicographic row order, matching what
    ``np.unique(..., axis=0, return_inverse=True)`` would produce, without
    its void-dtype sort.
    """
    np = require_numpy()
    packed = _pack_rows(table)
    if packed is not None:
        distinct, inverse = np.unique(packed[0], return_inverse=True)
        return inverse.astype(np.int64, copy=False), len(distinct)
    order = _lexicographic_order(table)
    ordered = table[order]
    new_group = np.empty(len(ordered), dtype=bool)
    new_group[0] = False
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new_group[1:])
    ranks = np.cumsum(new_group)
    codes = np.empty(len(table), dtype=np.int64)
    codes[order] = ranks
    return codes, int(ranks[-1]) + 1


def _vectorized_oracle_join(attribute_lists, fragments):
    """Vectorized twin of :func:`multiway_join_oracle` over 2-D int arrays.

    ``fragments`` holds one lexicographically sorted, deduplicated table per
    relation (matching the scalar reducer's ``tuple(sorted(set(...)))``
    fragments), with ``attribute_lists`` naming each table's columns.  Row
    order is the oracle's exactly: the accumulator is extended left to
    right, each accumulator row followed by its matches in the joining
    fragment's sorted order — the oracle's per-key lists are built by
    inserting sorted tuples, and the stable argsort below keeps that same
    within-key order.
    """
    np = require_numpy()
    attributes = list(attribute_lists[0])
    rows = fragments[0]
    for rel_attrs, table in zip(attribute_lists[1:], fragments[1:]):
        rel_attrs = list(rel_attrs)
        shared = [a for a in attributes if a in rel_attrs]
        new_attrs = [a for a in rel_attrs if a not in attributes]
        width = len(attributes) + len(new_attrs)
        if len(rows) == 0 or len(table) == 0:
            rows = np.zeros((0, width), dtype=np.int64)
            attributes.extend(new_attrs)
            continue
        rel_new = [rel_attrs.index(a) for a in new_attrs]
        if shared:
            rel_shared = [rel_attrs.index(a) for a in shared]
            acc_shared = [attributes.index(a) for a in shared]
            combined = np.concatenate(
                (table[:, rel_shared], rows[:, acc_shared]), axis=0
            )
            inverse, num_keys = _row_group_codes(combined)
            rel_keys = inverse[: len(table)]
            acc_keys = inverse[len(table) :]
        else:
            rel_keys = np.zeros(len(table), dtype=np.int64)
            acc_keys = np.zeros(len(rows), dtype=np.int64)
            num_keys = 1
        order = np.argsort(rel_keys, kind="stable")
        counts = np.bincount(rel_keys, minlength=num_keys)
        starts = np.cumsum(counts) - counts
        match_counts = counts[acc_keys]
        total = int(match_counts.sum())
        acc_index = np.repeat(np.arange(len(rows), dtype=np.int64), match_counts)
        # Ragged per-accumulator-row arange over each key's match block.
        block_ends = np.cumsum(match_counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            block_ends - match_counts, match_counts
        )
        matched = table[order[np.repeat(starts[acc_keys], match_counts) + within]]
        if rel_new:
            rows = np.concatenate((rows[acc_index], matched[:, rel_new]), axis=1)
        else:
            rows = rows[acc_index]
        attributes.extend(new_attrs)
    return attributes, rows


def _bucket_column(attribute: str, column, share: int):
    """``attribute_bucket`` per row: the rule is memoized per value, so it is
    evaluated per distinct value (``stable_hash`` is not vectorizable)."""
    np = require_numpy()
    if share == 1:
        return np.zeros(len(column), dtype=np.int64)
    distinct, inverse = np.unique(column, return_inverse=True)
    lookup = np.fromiter(
        (attribute_bucket(attribute, value, share) for value in distinct.tolist()),
        dtype=np.int64,
        count=len(distinct),
    )
    return lookup[inverse]


class SharesBatchKernel(BatchKernel):
    """Vectorized twin of :meth:`SharesSchema.job`.

    Records ``(relation name, tuple)`` are encoded as a relation-id column
    plus ``max_arity`` padded int64 value columns.  Grid points are encoded
    as mixed-radix integers over ``query.attributes`` (last attribute least
    significant, matching ``itertools.product`` emission order); each
    relation's replication pattern collapses to one precomputed array of
    free-coordinate code offsets added to a per-tuple base code.  The
    per-group reduce rebuilds the sorted fragments with ``np.unique`` and
    runs :func:`_vectorized_oracle_join`, then keeps the rows this grid
    point owns.
    """

    #: Reduce-key codes must stay well inside exact int64 arithmetic.
    _CODE_LIMIT = 2**62

    def __init__(self, schema: SharesSchema) -> None:
        self.schema = schema
        query = schema.query
        self._max_arity = max(relation.arity for relation in query.relations)
        self._value_columns = tuple(f"v{index}" for index in range(self._max_arity))
        #: relation name -> (relation id, arity, padding tuple)
        self._specs: Dict[str, Tuple[int, int, Tuple[int, ...]]] = {}
        self._by_id: List[Tuple[str, int]] = []
        for relation_id, relation in enumerate(query.relations):
            self._specs[relation.name] = (
                relation_id,
                relation.arity,
                (0,) * (self._max_arity - relation.arity),
            )
            self._by_id.append((relation.name, relation.arity))
        # Mixed radix over query.attributes; the last attribute gets radix 1
        # so ascending codes enumerate grid points in itertools.product order.
        self._radix: Dict[str, int] = {}
        size = 1
        for attribute in reversed(query.attributes):
            self._radix[attribute] = size
            size *= schema.shares[attribute]
        self._grid_size = size
        self._tables_cache: Optional[Tuple[List[Any], Any]] = None

    def _code_space(self) -> int:
        return self._grid_size

    # -- encode / decode -------------------------------------------------
    def encode(self, records: Sequence[Any]) -> ColumnBatch:
        np = require_numpy()
        if self._max_arity == 0 or self._code_space() >= self._CODE_LIMIT:
            raise BatchEncodingError(
                "query shape outside the columnar layout (zero-arity "
                "relations or a reducer grid overflowing int64 codes)"
            )
        relation_ids: List[int] = []
        padded: List[Tuple[int, ...]] = []
        for record in records:
            try:
                name, values = record
                relation_id, arity, padding = self._specs[name]
                if len(values) != arity:
                    raise BatchEncodingError(
                        f"tuple {values!r} does not match the arity of {name!r}"
                    )
                padded.append(tuple(values) + padding)
            except (KeyError, TypeError, ValueError) as error:
                raise BatchEncodingError(
                    f"record {record!r} is not a (relation, tuple) pair of "
                    f"query {self.schema.query.name!r}: {error}"
                )
            relation_ids.append(relation_id)
        if not padded:
            columns = {"rel": np.zeros(0, dtype=np.int64)}
            for name in self._value_columns:
                columns[name] = np.zeros(0, dtype=np.int64)
            return ColumnBatch(columns)
        batch = ColumnBatch.from_int_tuples(padded, self._value_columns)
        columns = dict(batch.columns)
        columns["rel"] = np.asarray(relation_ids, dtype=np.int64)
        return ColumnBatch(columns)

    def decode_records(self, values: ColumnBatch) -> List[Any]:
        relation_ids = values.column("rel").tolist()
        columns = [values.column(name).tolist() for name in self._value_columns]
        records: List[Tuple[str, Tuple[int, ...]]] = []
        for row, relation_id in enumerate(relation_ids):
            name, arity = self._by_id[relation_id]
            records.append(
                (name, tuple(columns[index][row] for index in range(arity)))
            )
        return records

    def _buckets(self, attribute: str, column) -> Any:
        return _bucket_column(attribute, column, self.schema.shares[attribute])

    def _main_base(self, batch: ColumnBatch, relation, rows) -> Any:
        """Code contribution of a tuple's own (fixed) grid coordinates."""
        np = require_numpy()
        base = np.zeros(len(rows), dtype=np.int64)
        for position, attribute in enumerate(relation.attributes):
            column = batch.column(f"v{position}")[rows]
            base += self._buckets(attribute, column) * self._radix[attribute]
        return base

    def _tables(self) -> Tuple[List[Any], Any]:
        """Per-relation free-coordinate code blocks, in product order."""
        if self._tables_cache is None:
            np = require_numpy()
            query = self.schema.query
            free_codes: List[Any] = []
            for relation in query.relations:
                covered = set(relation.attributes)
                block = np.zeros(1, dtype=np.int64)
                for attribute in query.attributes:
                    if attribute in covered:
                        continue
                    step = (
                        np.arange(self.schema.shares[attribute], dtype=np.int64)
                        * self._radix[attribute]
                    )
                    block = (block[:, None] + step[None, :]).ravel()
                free_codes.append(block)
            replication = np.asarray(
                [len(block) for block in free_codes], dtype=np.int64
            )
            self._tables_cache = (free_codes, replication)
        return self._tables_cache

    # -- map -------------------------------------------------------------
    def map_batch(self, batch: ColumnBatch):
        np = require_numpy()
        free_codes, replication = self._tables()
        relation_ids = batch.column("rel")
        emissions = replication[relation_ids]
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(emissions, dtype=np.int64))
        )
        total = int(offsets[-1])
        codes = np.empty(total, dtype=np.int64)
        row_indices = np.empty(total, dtype=np.int64)
        for relation_id, relation in enumerate(self.schema.query.relations):
            rows = np.nonzero(relation_ids == relation_id)[0]
            if len(rows) == 0:
                continue
            base = self._main_base(batch, relation, rows)
            free = free_codes[relation_id]
            positions = (
                offsets[rows][:, None]
                + np.arange(len(free), dtype=np.int64)[None, :]
            ).ravel()
            codes[positions] = (base[:, None] + free[None, :]).ravel()
            row_indices[positions] = np.repeat(rows, len(free))
        return codes, row_indices, batch

    def _decode_main(self, code: int) -> GridPoint:
        point: List[int] = []
        for attribute in reversed(self.schema.query.attributes):
            share = self.schema.shares[attribute]
            point.append(code % share)
            code //= share
        return tuple(reversed(point))

    def key_of_code(self, code: int):
        return self._decode_main(int(code))

    # -- reduce ----------------------------------------------------------
    def _owner_mask(self, key, attributes: List[str], rows) -> Any:
        np = require_numpy()
        keep = np.ones(len(rows), dtype=bool)
        for index, attribute in enumerate(self.schema.query.attributes):
            column = rows[:, attributes.index(attribute)]
            keep &= self._buckets(attribute, column) == key[index]
        return keep

    def reduce_group(self, key, code: int, values: ColumnBatch):
        np = require_numpy()
        query = self.schema.query
        relation_ids = values.column("rel")
        attribute_lists: List[List[str]] = []
        fragments: List[Any] = []
        for relation_id, relation in enumerate(query.relations):
            mask = relation_ids == relation_id
            columns = [
                values.column(f"v{position}")[mask]
                for position in range(relation.arity)
            ]
            table = _sorted_unique_rows(np.stack(columns, axis=1))
            attribute_lists.append(list(relation.attributes))
            fragments.append(table)
        attributes, rows = _vectorized_oracle_join(attribute_lists, fragments)
        if len(rows) == 0:
            return []
        rows = rows[self._owner_mask(key, attributes, rows)]
        if len(rows) == 0:
            return []
        permutation = [attributes.index(a) for a in query.attributes]
        return [tuple(row) for row in rows[:, permutation].tolist()]

    def reduce_groups(self, run):
        """One vectorized pass over every group of the run.

        The group index joins the fragments as an extra shared attribute,
        so a single dedupe + multiway join computes all per-group joins at
        once while keeping each group's rows separate.  The first fragment
        is sorted by (group, tuple), which makes the joined rows group-major
        in run order — exactly the order a per-group loop would emit.
        """
        np = require_numpy()
        query = self.schema.query
        group_of_pair = np.repeat(
            np.arange(run.num_groups, dtype=np.int64), run.sizes
        )
        relation_ids = run.values.column("rel")
        attribute_lists: List[List[Any]] = []
        fragments: List[Any] = []
        for relation_id, relation in enumerate(query.relations):
            mask = relation_ids == relation_id
            columns = [group_of_pair[mask]] + [
                run.values.column(f"v{position}")[mask]
                for position in range(relation.arity)
            ]
            table = _sorted_unique_rows(np.stack(columns, axis=1))
            attribute_lists.append([_GROUP_COLUMN] + list(relation.attributes))
            fragments.append(table)
        attributes, rows = _vectorized_oracle_join(attribute_lists, fragments)
        if len(rows) == 0:
            return []
        rows = rows[self._owner_mask_run(run, attributes, rows)]
        if len(rows) == 0:
            return []
        permutation = [attributes.index(a) for a in query.attributes]
        return [tuple(row) for row in rows[:, permutation].tolist()]

    def _owner_mask_run(self, run, attributes: List[Any], rows) -> Any:
        """Vectorized ``reducer_of_output(assignment) == key`` over all groups."""
        np = require_numpy()
        group_column = rows[:, attributes.index(_GROUP_COLUMN)]
        codes = run.codes
        keep = np.ones(len(rows), dtype=bool)
        for attribute in self.schema.query.attributes:
            coordinate = (codes // self._radix[attribute]) % self.schema.shares[
                attribute
            ]
            column = rows[:, attributes.index(attribute)]
            keep &= self._buckets(attribute, column) == coordinate[group_column]
        return keep


class SkewAwareSharesBatchKernel(SharesBatchKernel):
    """Vectorized twin of the :class:`SkewAwareSharesSchema` job.

    Codes below ``main grid size`` are main-grid points; code
    ``main + h · sub_size + s`` is sub-point ``s`` of the ``h``-th heavy
    value (in ``_ordered_heavy_values`` order), so every tagged reducer id
    still round-trips through one int64.
    """

    def __init__(self, schema: SkewAwareSharesSchema) -> None:
        super().__init__(schema)
        self._ordered_heavy = schema._ordered_heavy_values()
        self._heavy_rank = {
            value: index for index, value in enumerate(self._ordered_heavy)
        }
        self._sub_radix: Dict[str, int] = {}
        size = 1
        for attribute in reversed(schema.sub_attributes):
            self._sub_radix[attribute] = size
            size *= schema.heavy_shares[attribute]
        self._sub_size = size
        self._sub_tables_cache: Optional[List[Any]] = None

    def _code_space(self) -> int:
        return self._grid_size + len(self._ordered_heavy) * self._sub_size

    def _sub_buckets(self, attribute: str, column) -> Any:
        return _bucket_column(attribute, column, self.schema.heavy_shares[attribute])

    def _sub_base(self, batch: ColumnBatch, relation, rows) -> Any:
        np = require_numpy()
        base = np.zeros(len(rows), dtype=np.int64)
        for position, attribute in enumerate(relation.attributes):
            if attribute == self.schema.skew_attribute:
                continue
            column = batch.column(f"v{position}")[rows]
            base += self._sub_buckets(attribute, column) * self._sub_radix[attribute]
        return base

    def _heavy_ranks(self, column) -> Any:
        """Heavy-value rank per row, ``-1`` for values that are not heavy."""
        np = require_numpy()
        distinct, inverse = np.unique(column, return_inverse=True)
        lookup = np.fromiter(
            (self._heavy_rank.get(value, -1) for value in distinct.tolist()),
            dtype=np.int64,
            count=len(distinct),
        )
        return lookup[inverse]

    def _sub_tables(self) -> List[Any]:
        """Per-relation free sub-coordinate code blocks, in product order."""
        if self._sub_tables_cache is None:
            np = require_numpy()
            schema = self.schema
            blocks: List[Any] = []
            for relation in schema.query.relations:
                covered = set(relation.attributes)
                block = np.zeros(1, dtype=np.int64)
                for attribute in schema.sub_attributes:
                    if attribute in covered:
                        continue
                    step = (
                        np.arange(schema.heavy_shares[attribute], dtype=np.int64)
                        * self._sub_radix[attribute]
                    )
                    block = (block[:, None] + step[None, :]).ravel()
                blocks.append(block)
            self._sub_tables_cache = blocks
        return self._sub_tables_cache

    # -- map -------------------------------------------------------------
    def map_batch(self, batch: ColumnBatch):
        np = require_numpy()
        schema = self.schema
        query = schema.query
        main_free, _ = self._tables()
        sub_free = self._sub_tables()
        relation_ids = batch.column("rel")
        num_records = len(relation_ids)
        num_heavy = len(self._ordered_heavy)
        emissions = np.zeros(num_records, dtype=np.int64)
        plans: List[Optional[Tuple[Any, Optional[Any]]]] = []
        for relation_id, relation in enumerate(query.relations):
            rows = np.nonzero(relation_ids == relation_id)[0]
            if len(rows) == 0:
                plans.append(None)
                continue
            if schema.skew_attribute in relation.attributes:
                position = relation.attributes.index(schema.skew_attribute)
                ranks = self._heavy_ranks(batch.column(f"v{position}")[rows])
                emissions[rows] = np.where(
                    ranks >= 0,
                    len(sub_free[relation_id]),
                    len(main_free[relation_id]),
                )
                plans.append((rows, ranks))
            else:
                emissions[rows] = len(main_free[relation_id]) + num_heavy * len(
                    sub_free[relation_id]
                )
                plans.append((rows, None))
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(emissions, dtype=np.int64))
        )
        total = int(offsets[-1])
        codes = np.empty(total, dtype=np.int64)
        row_indices = np.empty(total, dtype=np.int64)
        heavy_offsets = (
            self._grid_size
            + np.arange(num_heavy, dtype=np.int64) * self._sub_size
        )

        def write_block(rows, block) -> None:
            positions = (
                offsets[rows][:, None]
                + np.arange(block.shape[1], dtype=np.int64)[None, :]
            ).ravel()
            codes[positions] = block.ravel()
            row_indices[positions] = np.repeat(rows, block.shape[1])

        for relation_id, relation in enumerate(query.relations):
            plan = plans[relation_id]
            if plan is None:
                continue
            rows, ranks = plan
            free = main_free[relation_id]
            sub = sub_free[relation_id]
            if ranks is None:
                # Main-grid points first, then every heavy sub-grid in
                # ordered-heavy-value order — the scalar broadcast order.
                main_base = self._main_base(batch, relation, rows)
                sub_base = self._sub_base(batch, relation, rows)
                combo = (heavy_offsets[:, None] + sub[None, :]).ravel()
                block = np.concatenate(
                    (
                        main_base[:, None] + free[None, :],
                        sub_base[:, None] + combo[None, :],
                    ),
                    axis=1,
                )
                write_block(rows, block)
                continue
            heavy = ranks >= 0
            light_rows = rows[~heavy]
            if len(light_rows):
                base = self._main_base(batch, relation, light_rows)
                write_block(light_rows, base[:, None] + free[None, :])
            heavy_rows = rows[heavy]
            if len(heavy_rows):
                base = (
                    self._grid_size
                    + ranks[heavy] * self._sub_size
                    + self._sub_base(batch, relation, heavy_rows)
                )
                write_block(heavy_rows, base[:, None] + sub[None, :])
        return codes, row_indices, batch

    def key_of_code(self, code: int):
        code = int(code)
        if code < self._grid_size:
            return ("main",) + self._decode_main(code)
        heavy_rank, sub_code = divmod(code - self._grid_size, self._sub_size)
        point: List[int] = []
        for attribute in reversed(self.schema.sub_attributes):
            share = self.schema.heavy_shares[attribute]
            point.append(sub_code % share)
            sub_code //= share
        return ("heavy", self._ordered_heavy[heavy_rank]) + tuple(reversed(point))

    # -- reduce ----------------------------------------------------------
    def _owner_mask(self, key, attributes: List[str], rows) -> Any:
        np = require_numpy()
        schema = self.schema
        skew_column = rows[:, attributes.index(schema.skew_attribute)]
        if key[0] == "main":
            keep = self._heavy_ranks(skew_column) < 0
            for index, attribute in enumerate(schema.query.attributes):
                column = rows[:, attributes.index(attribute)]
                keep &= self._buckets(attribute, column) == key[1 + index]
            return keep
        keep = skew_column == key[1]
        for index, attribute in enumerate(schema.sub_attributes):
            column = rows[:, attributes.index(attribute)]
            keep &= self._sub_buckets(attribute, column) == key[2 + index]
        return keep

    def _owner_mask_run(self, run, attributes: List[Any], rows) -> Any:
        np = require_numpy()
        schema = self.schema
        group_column = rows[:, attributes.index(_GROUP_COLUMN)]
        codes = run.codes
        main_group = codes < self._grid_size
        row_on_main = main_group[group_column]
        skew_column = rows[:, attributes.index(schema.skew_attribute)]
        # Main-grid groups own a row iff its skew value is light and every
        # main-grid bucket matches the group's decoded coordinate.
        keep_main = row_on_main & (self._heavy_ranks(skew_column) < 0)
        for attribute in schema.query.attributes:
            coordinate = (codes // self._radix[attribute]) % schema.shares[attribute]
            column = rows[:, attributes.index(attribute)]
            keep_main &= self._buckets(attribute, column) == coordinate[group_column]
        # Heavy sub-grid groups own a row iff the skew value is the group's
        # heavy value and the sub-grid buckets match.  The where() guards
        # keep main-grid codes (negative remainders) inside valid ranges;
        # those groups are masked out by ``row_on_main`` anyway.
        remainder = np.where(main_group, 0, codes - self._grid_size)
        heavy_values = np.asarray(self._ordered_heavy, dtype=np.int64)
        group_heavy_value = heavy_values[remainder // self._sub_size]
        keep_heavy = ~row_on_main & (skew_column == group_heavy_value[group_column])
        sub_code = remainder % self._sub_size
        for attribute in schema.sub_attributes:
            coordinate = (sub_code // self._sub_radix[attribute]) % schema.heavy_shares[
                attribute
            ]
            column = rows[:, attributes.index(attribute)]
            keep_heavy &= (
                self._sub_buckets(attribute, column) == coordinate[group_column]
            )
        return keep_main | keep_heavy


# ----------------------------------------------------------------------
# Share-vector constructors and closed forms for the paper's query shapes
# ----------------------------------------------------------------------
def shares_communication(
    query: JoinQuery, shares: Mapping[str, int], row_counts: Mapping[str, float]
) -> float:
    """``Σ_e |R_e| · Π_{A∉A_e} s_A`` — the Shares communication objective.

    The quantity the Shares analysis minimizes for a fixed reducer budget,
    evaluated on an arbitrary share mapping (attributes omitted from
    ``shares`` count as share 1) without constructing a schema — the share
    optimizer scores thousands of raw vectors through this single
    implementation, which :meth:`SharesSchema.expected_communication`
    shares.
    """
    total = 0.0
    for relation in query.relations:
        replication = 1
        for attribute, share in shares.items():
            if attribute not in relation.attributes:
                replication *= share
        total += row_counts[relation.name] * replication
    return total



def _spread_budget(attributes: Sequence[str], budget: int) -> List[Dict[str, int]]:
    """Ways of spending a reducer sub-budget on a set of attributes.

    Either evenly (``budget^(1/len)`` per attribute) or concentrated on one
    attribute at a time — the concentrated shapes are what split a skewed
    or oversized relation along a single well-behaved column.
    """
    if not attributes or budget <= 1:
        return [{attribute: 1 for attribute in attributes}]
    shapes: List[Dict[str, int]] = []
    even = max(1, round(budget ** (1.0 / len(attributes))))
    shapes.append({attribute: even for attribute in attributes})
    for target in attributes:
        shapes.append(
            {attribute: budget if attribute == target else 1 for attribute in attributes}
        )
    return shapes


def binary_join_shares(query: JoinQuery, reducers: int) -> List[Dict[str, int]]:
    """Share shapes for a two-relation join ``L ⋈ R`` within a budget.

    The classic hash join spends the whole budget on the shared attributes
    (replication 1) — optimal on balanced data, helpless against a heavy
    join value, which lands every colliding tuple on one coordinate no
    matter how large the shared share is.  These shapes split the budget
    ``reducers = h · l · r`` geometrically between the shared attributes
    (``h``) and each side's private attributes (``l``, ``r``), because
    shares on *private* attributes are what spread a heavy value's tuples
    (they differ on their private columns).  Multi-attribute groups are
    filled evenly or concentrated one attribute at a time.

    The multi-round pipeline planner leans on these for its binary cascade
    rounds: the chain/star closed forms never fire there (intermediate
    queries are not chain- or star-shaped), and uniform-on-shared alone
    cannot certify a skewed round under a tight budget.
    """
    if query.num_relations != 2:
        raise ConfigurationError(
            f"binary_join_shares needs a two-relation query, got "
            f"{query.num_relations} relations"
        )
    if reducers < 1:
        raise ConfigurationError("the number of reducers must be at least 1")
    left, right = query.relations
    shared = [a for a in left.attributes if a in right.attributes]
    left_only = [a for a in left.attributes if a not in shared]
    right_only = [a for a in right.attributes if a not in shared]
    if not shared:
        raise ConfigurationError(
            f"relations {left.name!r} and {right.name!r} share no attributes"
        )
    vectors: Dict[Tuple[Tuple[str, int], ...], Dict[str, int]] = {}
    shared_budget = reducers
    while True:
        side_budget = max(1, reducers // shared_budget)
        root = max(1, math.isqrt(side_budget))
        for left_budget, right_budget in {
            (side_budget, 1),
            (1, side_budget),
            (root, root),
        }:
            for shared_shape in _spread_budget(shared, shared_budget):
                for left_shape in _spread_budget(left_only, left_budget):
                    for right_shape in _spread_budget(right_only, right_budget):
                        vector = {**shared_shape, **left_shape, **right_shape}
                        vectors.setdefault(tuple(sorted(vector.items())), vector)
        if shared_budget == 1:
            break
        shared_budget = max(1, shared_budget // 4)
    return list(vectors.values())


def binary_join_share_grid(
    query: JoinQuery, reducer_budgets: Sequence[int]
) -> List[Dict[str, int]]:
    """The binary shapes across a budget sweep, or nothing when inapplicable.

    The single gate both the planner's vanilla enumeration and the share
    optimizer's grid floor call (so the two can never drift apart, the
    same single-source rule the grid constants follow): a query that is
    not a two-relation join — or whose two relations share no attributes,
    i.e. a cross product — yields no binary shapes.
    """
    if query.num_relations != 2:
        return []
    left, right = query.relations
    if not set(left.attributes) & set(right.attributes):
        return []
    vectors: List[Dict[str, int]] = []
    for reducers in reducer_budgets:
        vectors.extend(binary_join_shares(query, reducers))
    return vectors


def chain_join_shares(num_relations: int, reducers: int) -> Dict[str, int]:
    """Balanced shares for a chain join with ``num_relations`` relations.

    The interior attributes ``A1 .. A_{N-1}`` each receive share
    ``⌈reducers^{1/(N-1)}⌉`` and the two endpoint attributes share 1.  This
    is the share shape that realizes the ``(n/√q)^{N-1}`` upper bound the
    paper quotes from [1] (up to the low-order factor the paper also drops).
    """
    if num_relations < 2:
        raise ConfigurationError("a chain join needs at least two relations")
    if reducers < 1:
        raise ConfigurationError("the number of reducers must be at least 1")
    interior = num_relations - 1
    share = max(1, round(reducers ** (1.0 / interior)))
    shares = {f"A{index}": share for index in range(1, num_relations)}
    shares[f"A{0}"] = 1
    shares[f"A{num_relations}"] = 1
    return shares


def star_join_shares(num_dimensions: int, reducers: int) -> Dict[str, int]:
    """Shares for a star join: ``p^{1/N}`` per fact-table key, 1 elsewhere.

    Matches Section 5.5.2: the share for attributes not in the fact table is
    1 while each fact-table attribute receives share ``p^{1/N}``.
    """
    if num_dimensions < 1:
        raise ConfigurationError("a star join needs at least one dimension table")
    if reducers < 1:
        raise ConfigurationError("the number of reducers must be at least 1")
    key_share = max(1, round(reducers ** (1.0 / num_dimensions)))
    shares: Dict[str, int] = {}
    for index in range(1, num_dimensions + 1):
        shares[f"K{index}"] = key_share
        shares[f"V{index}"] = 1
    return shares


def chain_join_replication_upper_bound(domain_size: int, q: float, num_relations: int) -> float:
    """Closed form ``r = (n / √q)^{N-1}`` for chain joins (Section 5.5.2)."""
    if q <= 0:
        return float("inf")
    return max(1.0, (domain_size / math.sqrt(q)) ** (num_relations - 1))


def star_join_replication_upper_bound(
    fact_size: float, dimension_size: float, q: float, num_dimensions: int
) -> float:
    """Section 5.5.2's star-join upper bound on the replication rate.

    ``r = (f + N·d0·(N·d0/(e·q))^{N-1}) / (f + N·d0)`` with the paper's
    simplifying assumption ``f/p = (1-e)·q``; we use ``e = 1/2`` which the
    paper treats as "not very small or very large".
    """
    if q <= 0:
        return float("inf")
    e = 0.5
    N = num_dimensions
    d0 = dimension_size
    f = fact_size
    numerator = f + N * d0 * (N * d0 / (e * q)) ** (N - 1)
    return max(1.0, numerator / (f + N * d0))
