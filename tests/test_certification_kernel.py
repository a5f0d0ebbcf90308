"""The grid-separable certification kernel against its scalar oracle.

``reducer_load_bounds`` prices a Shares grid per axis — one weight vector
per (relation, attribute), broadcast ``min`` / ``+`` — instead of walking
the grid point by point.  The per-point loops it replaced are kept here
*verbatim* as the reference (``scalar_*_bounds``), reading the oracle one
bucket at a time, and four contracts are pinned against them:

1. **Bit-identity** — identical ``loads`` values (``==``, never approx; the
   kernel hands them back packed, the reference as a tuple) on
   random queries (chain / star / cyclic / arity-3), random share vectors
   (shares of 1 included) and exact *and* sampled profiles, with and
   without Hoeffding inflation.
2. **Same evidence** — identical ``sampled_cells`` sets, so the union
   bound, every epsilon and the high-probability certificate are equal.
3. **Coarse fallback** — identical values on either side of
   ``_CERTIFICATION_GRID_LIMIT``, for the main grid and the heavy
   sub-grids independently.
4. **Memoized sums** — ``LoadSummary.total_load`` / ``effective_load()``
   equal the un-memoized formulas, and ``attribute_bucket`` agrees with
   ``stable_hash`` and ``SharesSchema.bucket_of`` through its hash memo.
"""

from __future__ import annotations

import itertools
import random
from array import array
from typing import Iterable, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import LoadSummary
from repro.datagen.relations import RelationInstance
from repro.exceptions import ConfigurationError
from repro.mapreduce.partitioner import stable_hash
from repro.planner.certify import (
    ProfileWeightOracle,
    attribute_bucket,
    certify_max_reducer_load,
)
from repro.problems import JoinQuery
from repro.problems.joins import RelationSchema
from repro.schemas import SharesSchema, SkewAwareSharesSchema
from repro.schemas import join_shares
from repro.stats import profile_relations

DOMAIN = 9


# ----------------------------------------------------------------------
# The scalar reference: the pre-kernel loops, one oracle lookup per point
# ----------------------------------------------------------------------
class ScalarOracle:
    """The per-bucket oracle interface the loops below were written to."""

    def __init__(self, oracle: ProfileWeightOracle) -> None:
        self.oracle = oracle
        self.max_bucket_weight = oracle.max_bucket_weight
        self.value_weight = oracle.value_weight

    def bucket_weight(self, relation, attribute, share, bucket, exclude=frozenset()):
        return self.oracle.bucket_weights(relation, attribute, share, exclude)[bucket]


def scalar_shares_bounds(self: SharesSchema, oracle) -> Iterator[float]:
    if self.num_reducers > join_shares._CERTIFICATION_GRID_LIMIT:
        load = 0.0
        for relation in self.query.relations:
            load += min(
                oracle.max_bucket_weight(
                    relation.name, attribute, self.shares[attribute]
                )
                for attribute in relation.attributes
            )
        yield load
        return
    attributes = self.query.attributes
    for point in itertools.product(
        *(range(self.shares[attribute]) for attribute in attributes)
    ):
        coordinates = dict(zip(attributes, point))
        load = 0.0
        for relation in self.query.relations:
            load += min(
                oracle.bucket_weight(
                    relation.name,
                    attribute,
                    self.shares[attribute],
                    coordinates[attribute],
                )
                for attribute in relation.attributes
            )
        yield load


def scalar_skew_bounds(self: SkewAwareSharesSchema, oracle) -> Iterator[float]:
    heavy = self.heavy_values
    attributes = self.query.attributes

    def main_terms(relation, weight):
        terms = []
        for attribute in relation.attributes:
            exclude = heavy if attribute == self.skew_attribute else frozenset()
            terms.append(weight(relation.name, attribute, self.shares[attribute], exclude))
        return terms

    if SharesSchema.num_reducers.fget(self) > join_shares._CERTIFICATION_GRID_LIMIT:
        load = 0.0
        for relation in self.query.relations:
            load += min(
                main_terms(
                    relation,
                    lambda name, a, share, exclude: oracle.max_bucket_weight(
                        name, a, share, exclude=exclude
                    ),
                )
            )
        yield load
    else:
        for point in itertools.product(
            *(range(self.shares[attribute]) for attribute in attributes)
        ):
            coordinates = dict(zip(attributes, point))
            load = 0.0
            for relation in self.query.relations:
                load += min(
                    main_terms(
                        relation,
                        lambda name, a, share, exclude: oracle.bucket_weight(
                            name, a, share, coordinates[a], exclude=exclude
                        ),
                    )
                )
            yield load
    coarse_sub = self.sub_grid_size > join_shares._CERTIFICATION_GRID_LIMIT
    for value in self._ordered_heavy_values():
        sub_points: Iterable[Tuple[int, ...]]
        if coarse_sub:
            sub_points = [()]
        else:
            sub_points = itertools.product(
                *(range(self.heavy_shares[a]) for a in self.sub_attributes)
            )
        for point in sub_points:
            coordinates = dict(zip(self.sub_attributes, point))
            load = 0.0
            for relation in self.query.relations:
                terms = []
                if self.skew_attribute in relation.attributes:
                    terms.append(
                        oracle.value_weight(
                            relation.name, self.skew_attribute, value
                        )
                    )
                for attribute in relation.attributes:
                    if attribute == self.skew_attribute:
                        continue
                    share = self.heavy_shares[attribute]
                    if coarse_sub:
                        terms.append(
                            oracle.max_bucket_weight(
                                relation.name, attribute, share
                            )
                        )
                    else:
                        terms.append(
                            oracle.bucket_weight(
                                relation.name,
                                attribute,
                                share,
                                coordinates[attribute],
                            )
                        )
                load += min(terms)
            yield load


def scalar_bounds(schema, oracle: ProfileWeightOracle) -> Tuple[float, ...]:
    reference = (
        scalar_skew_bounds
        if isinstance(schema, SkewAwareSharesSchema)
        else scalar_shares_bounds
    )
    return tuple(reference(schema, ScalarOracle(oracle)))


# ----------------------------------------------------------------------
# Random queries, instances, share vectors
# ----------------------------------------------------------------------
QUERIES = {
    "chain2": JoinQuery.chain(2),
    "chain3": JoinQuery.chain(3),
    "chain4": JoinQuery.chain(4),
    "star3": JoinQuery(
        [
            RelationSchema("F", ("K1", "K2", "K3")),
            RelationSchema("D1", ("K1", "V1")),
            RelationSchema("D2", ("K2", "V2")),
            RelationSchema("D3", ("K3", "V3")),
        ],
        name="star-3",
    ),
    "triangle": JoinQuery(
        [
            RelationSchema("R", ("A", "B")),
            RelationSchema("S", ("B", "C")),
            RelationSchema("T", ("C", "A")),
        ],
        name="triangle",
    ),
    "arity3-cycle": JoinQuery(
        [
            RelationSchema("R", ("A", "B", "C")),
            RelationSchema("S", ("C", "D")),
            RelationSchema("T", ("D", "A", "B")),
        ],
        name="arity3-cycle",
    ),
}


def skewed_instance(query: JoinQuery, seed: int, size: int) -> List[RelationInstance]:
    """Random tuples whose every column leans on a few small values."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** 1.3 for rank in range(DOMAIN)]
    relations = []
    for relation in query.relations:
        rows = {
            tuple(rng.choices(range(DOMAIN), weights)[0] for _ in relation.attributes)
            for _ in range(size)
        }
        relations.append(
            RelationInstance(relation.name, relation.attributes, tuple(sorted(rows)))
        )
    return relations


@st.composite
def cases(draw):
    """(schema, profile): a vanilla or skew-aware grid over a random instance."""
    query = QUERIES[draw(st.sampled_from(sorted(QUERIES)))]
    relations = skewed_instance(
        query, draw(st.integers(0, 10_000)), draw(st.integers(5, 60))
    )
    mode = draw(st.sampled_from(["exact", "sample"]))
    profile = profile_relations(
        relations,
        mode=mode,
        sample_size=draw(st.integers(4, 40)),
        heavy_hitter_capacity=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 50)),
    )
    share = st.integers(1, 4)
    shares = {a: draw(share) for a in query.attributes if draw(st.booleans())}
    if not draw(st.booleans()):
        return SharesSchema(query, shares, DOMAIN), profile
    skew_attribute = draw(st.sampled_from(query.attributes))
    heavy_values = draw(
        st.sets(st.integers(0, DOMAIN), min_size=1, max_size=3)
    )
    heavy_shares = {
        a: draw(share)
        for a in query.attributes
        if a != skew_attribute and draw(st.booleans())
    }
    schema = SkewAwareSharesSchema(
        query, shares, DOMAIN, skew_attribute, heavy_values, heavy_shares
    )
    return schema, profile


def main_grid_size(schema) -> int:
    return SharesSchema.num_reducers.fget(schema)


def grid_limits(schema) -> List[int]:
    """Limits putting the main grid and the sub-grid on either side."""
    sizes = {main_grid_size(schema), getattr(schema, "sub_grid_size", 1)}
    return sorted({max(size - 1, 0) for size in sizes} | sizes)


# ----------------------------------------------------------------------
# 1–3. Kernel ≡ scalar reference
# ----------------------------------------------------------------------
class TestKernelMatchesScalarReference:
    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_loads_and_sampled_cells_identical(self, case):
        schema, profile = case
        kernel_oracle = ProfileWeightOracle(profile)
        scalar_oracle = ProfileWeightOracle(profile)
        loads = schema.reducer_load_bounds(kernel_oracle)
        # Packed float64 straight from the kernel's buffer, never boxed.
        assert isinstance(loads, array) and loads.typecode == "d"
        assert tuple(loads) == scalar_bounds(schema, scalar_oracle)
        assert len(loads) == schema.num_reducers
        assert kernel_oracle.sampled_cells == scalar_oracle.sampled_cells

    @settings(max_examples=60, deadline=None)
    @given(cases(), st.floats(0.0, 0.4))
    def test_inflated_loads_identical(self, case, epsilon):
        schema, profile = case
        epsilons = {
            (relation.name, attribute): epsilon
            for relation in schema.query.relations
            for attribute in relation.attributes
        }
        assert tuple(
            schema.reducer_load_bounds(ProfileWeightOracle(profile, epsilons=epsilons))
        ) == scalar_bounds(schema, ProfileWeightOracle(profile, epsilons=epsilons))

    @settings(max_examples=60, deadline=None)
    @given(cases(), st.data())
    def test_coarse_fallback_either_side_of_the_limit(self, case, data):
        schema, profile = case
        limit = data.draw(st.sampled_from(grid_limits(schema)))
        saved = join_shares._CERTIFICATION_GRID_LIMIT
        join_shares._CERTIFICATION_GRID_LIMIT = limit
        try:
            kernel_oracle = ProfileWeightOracle(profile)
            scalar_oracle = ProfileWeightOracle(profile)
            loads = schema.reducer_load_bounds(kernel_oracle)
            assert tuple(loads) == scalar_bounds(schema, scalar_oracle)
            assert kernel_oracle.sampled_cells == scalar_oracle.sampled_cells
        finally:
            join_shares._CERTIFICATION_GRID_LIMIT = saved
        main = 1 if main_grid_size(schema) > limit else main_grid_size(schema)
        if isinstance(schema, SkewAwareSharesSchema):
            sub = 1 if schema.sub_grid_size > limit else schema.sub_grid_size
            main += len(schema.heavy_values) * sub
        assert len(loads) == main

    @settings(max_examples=60, deadline=None)
    @given(cases(), st.sampled_from([0.01, 0.05, 0.3]))
    def test_certificate_identical(self, case, delta):
        """Kind, bound, delta, method, detail and the load summary."""
        schema, profile = case
        certified = certify_max_reducer_load(schema, profile, delta=delta)
        schema.reducer_load_bounds = lambda oracle: scalar_bounds(schema, oracle)
        assert certify_max_reducer_load(schema, profile, delta=delta) == certified

    def test_shared_bucket_cache_still_records_sampled_cells(self):
        query = QUERIES["chain3"]
        profile = profile_relations(
            skewed_instance(query, 5, 50), mode="sample", sample_size=10
        )
        schema = SharesSchema(query, {"A1": 3, "A2": 2}, DOMAIN)
        shared: dict = {}
        first = ProfileWeightOracle(profile, bucket_cache=shared)
        schema.reducer_load_bounds(first)
        second = ProfileWeightOracle(profile, bucket_cache=shared)
        schema.reducer_load_bounds(second)  # every cell is a cache hit
        assert second.sampled_cells == first.sampled_cells != set()


# ----------------------------------------------------------------------
# 4. Memoized sums and hashes
# ----------------------------------------------------------------------
class TestLoadSummaryMemo:
    """``packed`` feeds the same loads as the ``array('d')`` the certifier
    produces; both must price and compare exactly like the tuple."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), max_size=40), st.booleans())
    def test_sums_equal_the_unmemoized_formulas(self, loads, packed):
        given_loads = array("d", loads) if packed else tuple(loads)
        summary = LoadSummary(max(loads, default=3.0), loads=given_loads)
        assert isinstance(summary.loads, array) and summary.loads.typecode == "d"
        assert list(summary.loads) == loads
        total = float(sum(loads)) if loads else summary.max_load
        assert summary.total_load == total
        if not loads:
            expected = summary.max_load
        elif total <= 0:
            expected = 0.0
        else:
            expected = float(sum(load * load for load in loads)) / total
        assert summary.effective_load() == expected
        assert summary.effective_load() == expected  # and again, memoized
        twin = LoadSummary(summary.max_load, loads=tuple(loads))
        assert summary == twin and hash(summary) == hash(twin)

    def test_no_profile_prices_the_maximum(self):
        summary = LoadSummary(7.0)
        assert summary.total_load == summary.effective_load() == 7.0

    @pytest.mark.parametrize(
        "loads, offending",
        [
            ((1.0, -2.0, 9.0), -2.0),
            ((1.0, 9.0, -2.0), 9.0),
            ((6.0,), 6.0),
            (array("d", (1.0, 9.0, -2.0)), 9.0),
        ],
    )
    def test_out_of_range_load_is_named(self, loads, offending):
        with pytest.raises(ConfigurationError, match=f"load {offending} outside"):
            LoadSummary(5.0, loads=loads)


class TestAttributeBucketMemo:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["A", "B1", "key"]),
        st.one_of(st.integers(-50, 50), st.booleans(), st.text(max_size=3)),
        st.integers(1, 12),
    )
    def test_matches_stable_hash_and_schema(self, attribute, value, share):
        expected = 0 if share == 1 else stable_hash((attribute, value)) % share
        assert attribute_bucket(attribute, value, share) == expected
        assert attribute_bucket(attribute, value, share) == expected
        query = JoinQuery([RelationSchema("R", (attribute, "other"))])
        schema = SharesSchema(query, {attribute: share}, DOMAIN)
        assert schema.bucket_of(attribute, value) == expected

    def test_equal_values_of_different_types_hash_apart(self):
        for share in (5, 7, 11):
            for value in (1, 1.0, True):
                assert attribute_bucket("A", value, share) == (
                    stable_hash(("A", value)) % share
                )
