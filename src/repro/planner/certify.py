"""Reducer-size certification: from dataset statistics to trusted budgets.

The paper's Section 5.5 budgets a Shares join candidate by its *expected*
hash-balanced reducer load.  That expectation says nothing about the
maximum: one heavy join value can blow a single reducer far past the budget
while the average stays tiny, and even the uniform full domain hashes into
unbalanced buckets when the domain is small.  A cluster that *enforces* its
capacity cannot trust expectation-certified plans.  This module replaces
the expectation with per-bucket tail bounds computed from a
:class:`~repro.stats.profile.DatasetProfile`:

* **exact** — from full per-attribute histograms, the exact weight of every
  hash bucket is known, so ``min`` over a relation's attributes of its
  bucket weights upper-bounds the relation's tuples at a grid point, and
  the sum over relations bounds the reducer's load.  Deterministic.
* **high-probability** — from reservoir samples, bucket weights are
  estimated and inflated by a Hoeffding term; a union bound over every
  consulted cell makes *all* the estimates simultaneously valid with
  probability ``1 - delta``, so the resulting max-load bound holds with at
  least that probability.  Deterministic Misra–Gries upper bounds
  (``counter + N/(k+1)``) are folded in where they are tighter.

Schemas participate through one duck-typed hook,
``reducer_load_bounds(oracle)``, yielding an upper bound per reducer; the
oracle (built here from the profile) answers bucket- and value-weight
queries.  This keeps all statistics math on the planner side — schemas only
know their own grid geometry — mirroring how PostBOUND feeds guaranteed
cardinality bounds into an otherwise statistics-agnostic optimizer.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.cost import LoadSummary
from repro.exceptions import BoundDerivationError, ConfigurationError
from repro.mapreduce.partitioner import attribute_bucket  # also re-exported from here
from repro.stats.profile import AttributeProfile, DatasetProfile

#: Default failure probability for sample-based certificates.
DEFAULT_DELTA = 0.05

#: Above this many distinct bucket subsets, sample-graph certification uses
#: one coarse bound instead of enumerating (mirrors the Shares grid limit).
_SAMPLE_GRAPH_SUBSET_LIMIT = 20_000


class CertificationKind(enum.Enum):
    """How a plan's reducer-size claim is backed."""

    EXACT = "exact"
    HIGH_PROBABILITY = "high-probability"


@dataclass(frozen=True)
class Certification:
    """One certified upper bound on a candidate's maximum reducer load.

    ``bound`` is the certified value; ``delta`` is the failure probability
    for :attr:`CertificationKind.HIGH_PROBABILITY` bounds (``None``
    otherwise); ``detail`` names the evidence (e.g. which statistics fed
    the bound).  ``load`` optionally carries the certified load summary
    behind the bound — the maximum always, plus the full per-reducer load
    profile when the certifier enumerated one (exact histograms over an
    enumerable grid) — so the cost model can price the ``b·q`` term from
    the certified distribution instead of the scalar bound.
    """

    kind: CertificationKind
    bound: float
    delta: Optional[float] = None
    detail: str = ""
    load: Optional[LoadSummary] = None
    #: The bound-derivation method behind the certificate (e.g.
    #: ``per-bucket-histogram``, ``hoeffding-sample``, ``closed-form``,
    #: ``degree-sequence``) — surfaced in plan tables next to the
    #: certification kind so a reader can see *why* a plan was priced the
    #: way it was.  Empty when the certifier predates the label.
    method: str = ""

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ConfigurationError(
                f"certified bound must be non-negative, got {self.bound}"
            )
        if self.kind is CertificationKind.HIGH_PROBABILITY:
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ConfigurationError(
                    "high-probability certificates need a delta in (0, 1), "
                    f"got {self.delta}"
                )
        elif self.delta is not None:
            raise ConfigurationError(
                f"{self.kind.value} certificates carry no delta, got {self.delta}"
            )

    @property
    def label(self) -> str:
        """Compact rendering for plan tables: ``exact`` / ``hp(δ=0.05)``."""
        if self.kind is CertificationKind.HIGH_PROBABILITY:
            return f"hp(δ={self.delta:g})"
        return self.kind.value


def exact_certification(
    bound: float,
    detail: str = "",
    load: Optional[LoadSummary] = None,
    method: str = "",
) -> Certification:
    return Certification(
        CertificationKind.EXACT, float(bound), detail=detail, load=load, method=method
    )


def high_probability_certification(
    bound: float,
    delta: float,
    detail: str = "",
    load: Optional[LoadSummary] = None,
    method: str = "",
) -> Certification:
    return Certification(
        CertificationKind.HIGH_PROBABILITY,
        float(bound),
        delta=delta,
        detail=detail,
        load=load,
        method=method,
    )


class ProfileWeightOracle:
    """Answers the weight queries schemas pose while bounding their loads.

    ``bucket_weights`` upper-bounds, per hash bucket of one attribute's
    share, the number of a relation's rows whose value falls in that
    bucket; ``value_weight`` upper-bounds one value's frequency.
    Exact-histogram attributes answer exactly; sampled attributes answer
    from the reservoir inflated by the per-attribute Hoeffding term in
    ``epsilons`` (0 during the recording pass) and remember every consulted
    cell in :attr:`sampled_cells` so the caller can size the union bound.

    ``bucket_cache`` optionally shares one bucket-weight table across
    *epsilon-free* oracles over the same profile — the share optimizer
    certifies dozens of vectors whose (relation, attribute, share) cells
    recur, and recomputing each from the histograms per oracle is the
    dominant cost.  An oracle carrying epsilons always keeps a private
    cache (its weights are inflation-dependent and must not leak into the
    shared table).
    """

    def __init__(
        self,
        profile: DatasetProfile,
        epsilons: Optional[Dict[Tuple[str, str], float]] = None,
        bucket_cache: Optional[Dict[Tuple, Tuple[float, ...]]] = None,
    ) -> None:
        self.profile = profile
        self.epsilons = epsilons or {}
        self.sampled_cells: set = set()
        if bucket_cache is not None and not self.epsilons:
            self._bucket_cache = bucket_cache
        else:
            self._bucket_cache: Dict[Tuple, Tuple[float, ...]] = {}

    # -- internals ------------------------------------------------------
    def _attribute(self, relation: str, attribute: str) -> AttributeProfile:
        return self.profile.relation(relation).attribute(attribute)

    def _epsilon(self, relation: str, attribute: str) -> float:
        return self.epsilons.get((relation, attribute), 0.0)

    # -- queries schemas pose ------------------------------------------
    def bucket_weights(
        self,
        relation: str,
        attribute: str,
        share: int,
        exclude: FrozenSet[Hashable] = frozenset(),
    ) -> Tuple[float, ...]:
        key = (relation, attribute, share, exclude)
        stats = self._attribute(relation, attribute)
        # Consulting a sampled cell must be recorded *before* the cache
        # lookup: with a shared bucket cache a later oracle can hit entries
        # it never computed, and an unrecorded cell would shrink the
        # Hoeffding union bound below what this call actually relies on.
        if not stats.exact:
            self.sampled_cells.add(key)
        cached = self._bucket_cache.get(key)
        if cached is not None:
            return cached
        total = float(stats.total_count)
        weights = [0.0] * share
        if stats.exact:
            for value, count in stats.histogram.items():
                if value in exclude:
                    continue
                weights[attribute_bucket(attribute, value, share)] += count
        else:
            m = len(stats.sample)
            if m == 0:
                weights = [total] * share
            else:
                counts = [0] * share
                for value in stats.sample:
                    if value in exclude:
                        continue
                    counts[attribute_bucket(attribute, value, share)] += 1
                epsilon = self._epsilon(relation, attribute)
                weights = [
                    min(total, total * (count / m + epsilon)) for count in counts
                ]
            # Deterministic cap per bucket from the Misra–Gries lower
            # bounds: rows of a tracked value provably hash to that value's
            # bucket (or are excluded), so a bucket's weight never exceeds
            # the total minus the tracked mass that lands elsewhere.  The
            # value-level lower bounds are deterministic, so this tightens
            # even the Hoeffding-inflated weights without touching delta.
            if stats.heavy_hitters:
                tracked_in_bucket = [0.0] * share
                tracked_elsewhere = 0.0
                for value, low in stats.heavy_hitters.items():
                    if value in exclude:
                        tracked_elsewhere += low
                        continue
                    tracked_in_bucket[
                        attribute_bucket(attribute, value, share)
                    ] += low
                tracked_total = tracked_elsewhere + sum(tracked_in_bucket)
                weights = [
                    min(
                        weight,
                        max(0.0, total - (tracked_total - tracked_in_bucket[index])),
                    )
                    for index, weight in enumerate(weights)
                ]
        result = tuple(weights)
        self._bucket_cache[key] = result
        return result

    def max_bucket_weight(
        self,
        relation: str,
        attribute: str,
        share: int,
        exclude: FrozenSet[Hashable] = frozenset(),
    ) -> float:
        return max(self.bucket_weights(relation, attribute, share, exclude))

    def value_weight(self, relation: str, attribute: str, value: Hashable) -> float:
        stats = self._attribute(relation, attribute)
        if stats.exact:
            return float(stats.histogram.get(value, 0))
        # Deterministic Misra-Gries upper bound, tightened by the sample
        # estimate when one exists.
        bound = float(stats.frequency_upper_bound(value))
        m = len(stats.sample)
        if m > 0:
            self.sampled_cells.add((relation, attribute, "value", value))
            fraction = sum(1 for item in stats.sample if item == value) / m
            epsilon = self._epsilon(relation, attribute)
            bound = min(bound, stats.total_count * (fraction + epsilon))
        return min(bound, float(stats.total_count))


def certify_max_reducer_load(
    schema,
    profile: DatasetProfile,
    delta: float = DEFAULT_DELTA,
    bucket_cache: Optional[Dict[Tuple, Tuple[float, ...]]] = None,
) -> Certification:
    """Certify a schema's maximum reducer load under a dataset profile.

    ``schema`` must provide ``reducer_load_bounds(oracle)`` yielding one
    upper bound per reducer (the Shares families do).  Returns an
    :attr:`CertificationKind.EXACT` certificate when every consulted
    attribute carries a full histogram, otherwise a
    :attr:`CertificationKind.HIGH_PROBABILITY` certificate at ``delta``.

    ``bucket_cache`` lets a caller certifying many schemas over one
    profile share the epsilon-free bucket-weight table between calls (see
    :class:`ProfileWeightOracle`); the Hoeffding-inflated pass never uses
    it.
    """
    loads_fn = getattr(schema, "reducer_load_bounds", None)
    if loads_fn is None:
        raise BoundDerivationError(
            f"schema {getattr(schema, 'name', schema)!r} does not expose "
            "reducer_load_bounds(); it cannot be profile-certified"
        )
    # Recording pass: exact answers are final, sampled answers are optimistic
    # (epsilon 0) but tell us how many estimates the union bound must cover.
    recorder = ProfileWeightOracle(profile, bucket_cache=bucket_cache)
    # Packed float64; a plain memcpy when the schema's kernel already packs.
    exact_loads = array("d", loads_fn(recorder))
    optimistic = max(exact_loads, default=0.0)
    if not recorder.sampled_cells:
        # The per-reducer profile is only attached when the bounds really
        # enumerate the schema's reducers one by one — a coarse fallback
        # (one bound for the whole grid) certifies the max alone.
        enumerated = len(exact_loads) == getattr(
            schema, "num_reducers", len(exact_loads)
        )
        return exact_certification(
            optimistic,
            detail="per-bucket maxima from full histograms",
            load=LoadSummary(optimistic, loads=exact_loads if enumerated else None),
            method="per-bucket-histogram",
        )
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    # One Hoeffding event per *empirical proportion*: a bucket-weight cell
    # (relation, attribute, share, exclude) contributes one estimate per
    # bucket of that share, a value cell contributes one.  Counting cells
    # instead of estimates would shrink epsilon by up to the largest share
    # factor and void the stated delta.
    estimates = sum(
        1 if cell[2] == "value" else cell[2] for cell in recorder.sampled_cells
    )
    epsilons: Dict[Tuple[str, str], float] = {}
    for cell in recorder.sampled_cells:
        relation, attribute = cell[0], cell[1]
        stats = profile.relation(relation).attribute(attribute)
        m = max(len(stats.sample), 1)
        epsilons[(relation, attribute)] = math.sqrt(
            math.log(estimates / delta) / (2.0 * m)
        )
    inflated = ProfileWeightOracle(profile, epsilons=epsilons)
    bound = max(loads_fn(inflated), default=0.0)
    return high_probability_certification(
        bound,
        delta,
        detail=(
            f"Hoeffding over {estimates} sampled estimates "
            f"(union bound, per-estimate failure {delta / estimates:.2e})"
        ),
        # Sampled bounds certify only the maximum; the per-reducer profile
        # is reserved for exact histograms (ISSUE: certified-load pricing).
        load=LoadSummary(bound),
        method="hoeffding-sample",
    )


def certify_sample_graph_load(schema, profile: DatasetProfile) -> Certification:
    """Exact load certificate for a bucketed sample-graph schema.

    Requires an exact graph profile (see
    :func:`~repro.stats.profile.profile_graph`): the per-endpoint histograms
    are the degree sequence, so the edges inside any set ``M`` of buckets
    are at most ``min(|E|, ⌊Σ_{b∈M} mass(b) / 2⌋, C(nodes(M), 2))`` — every
    such edge spends both endpoints inside ``M``.  The maximum over the
    schema's reducers (bucket multisets) is deterministic.
    """
    import itertools

    relation_name = next(iter(profile.relations))
    relation = profile.relation(relation_name)
    if not relation.exact:
        raise BoundDerivationError(
            "sample-graph certification needs an exact graph profile "
            "(full endpoint histograms)"
        )
    left = relation.attribute("u").histogram
    right = relation.attribute("v").histogram
    total_edges = relation.total_rows
    num_buckets = schema.num_buckets
    mass = [0] * num_buckets
    nodes_per_bucket = [0] * num_buckets
    for node in set(left) | set(right):
        bucket = schema.bucket_of(node)
        mass[bucket] += left.get(node, 0) + right.get(node, 0)
        nodes_per_bucket[bucket] += 1
    slots = schema.sample.num_nodes
    # A reducer's load depends only on the *set* of buckets in its multiset,
    # so enumerate distinct subsets of size <= slots.  Past the enumeration
    # limit, fall back to one coarse bound valid for every reducer: no
    # subset can beat the `slots` heaviest buckets on either component.
    subsets = sum(math.comb(num_buckets, size) for size in range(1, slots + 1))
    if subsets > _SAMPLE_GRAPH_SUBSET_LIMIT:
        top_mass = sum(sorted(mass, reverse=True)[:slots])
        top_nodes = sum(sorted(nodes_per_bucket, reverse=True)[:slots])
        worst = min(total_edges, top_mass // 2, math.comb(top_nodes, 2))
        return exact_certification(
            float(worst),
            detail=f"coarse degree-sequence bound ({slots} heaviest buckets)",
            load=LoadSummary(float(worst)),
            method="degree-sequence",
        )
    worst = 0
    for size in range(1, slots + 1):
        for buckets in itertools.combinations(range(num_buckets), size):
            endpoint_mass = sum(mass[bucket] for bucket in buckets)
            nodes = sum(nodes_per_bucket[bucket] for bucket in buckets)
            bound = min(total_edges, endpoint_mass // 2, math.comb(nodes, 2))
            worst = max(worst, bound)
    return exact_certification(
        float(worst),
        detail="degree-sequence bound per bucket multiset",
        load=LoadSummary(float(worst)),
        method="degree-sequence",
    )
