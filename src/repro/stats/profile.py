"""Dataset profiles: serializable per-attribute statistics bundles.

A :class:`DatasetProfile` holds one :class:`RelationProfile` per named
relation; a relation profile holds one :class:`AttributeProfile` per
column.  Profiles come in two fidelities:

* ``mode="exact"`` — every column keeps its full frequency histogram.  The
  certifiers in :mod:`repro.planner.certify` then produce *exact* per-bucket
  load bounds.
* ``mode="sample"`` — columns keep a seeded reservoir sample plus a
  Misra–Gries heavy-hitter summary and a KMV distinct estimate.  Certifiers
  then produce Hoeffding high-probability bounds.

Profiles are plain data: :meth:`DatasetProfile.to_dict` /
:meth:`DatasetProfile.from_dict` round-trip through JSON-compatible
structures (attribute values must be ints, strings or tuples of those), so
a profile collected once on a large dataset can be stored next to it and
fed back to the planner later.  :meth:`DatasetProfile.fingerprint` gives a
stable content hash used as a cache key by the profile-aware candidate
builders.

Besides relations, the two other input families of the paper can be
profiled through the same shape: :func:`profile_graph` treats an edge list
as a two-column relation (the per-endpoint histograms *are* the degree
sequences), and :func:`profile_bitstrings` profiles a bit-string population
by value and by Hamming weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.mapreduce.partitioner import stable_hash
from repro.stats.collectors import (
    ExactHistogram,
    KMVDistinctEstimator,
    MisraGries,
    ReservoirSample,
)

#: Default reservoir capacity for sampled profiles.
DEFAULT_SAMPLE_SIZE = 256
#: Default number of Misra–Gries counters for sampled profiles.
DEFAULT_HEAVY_HITTER_CAPACITY = 16


@dataclass(frozen=True)
class AttributeProfile:
    """Statistics of one attribute (column) of one relation.

    ``histogram`` is the full value → count map for exact profiles and
    ``None`` for sampled ones; ``sample`` / ``sample_population`` carry the
    reservoir for sampled profiles (empty for exact ones, where the
    histogram subsumes it).  ``heavy_hitters`` maps values to *guaranteed
    lower bounds* on their frequency and ``heavy_hitter_error`` is the
    summary's maximum undercount, so ``lower + error`` upper-bounds any
    tracked value's true frequency deterministically.

    ``max_degree`` is the exact maximum multiplicity of any value in the
    column — a *degree constraint* in the Abo Khamis–Ngo–Suciu sense.  It
    is one scalar, so the collectors keep it exact even in ``sample`` mode
    (only the scalar is retained, never the per-value counts behind it),
    which is what makes the degree-constraint bounds sound on sampled
    profiles.  ``functional_dependencies`` lists the sibling attributes
    this column functionally determines within its relation (a key column
    has ``max_degree == 1`` and determines every sibling).  Both default
    to "unknown" so profiles serialized before these fields existed load
    unchanged and certify exactly as they used to.
    """

    attribute: str
    total_count: int
    distinct_estimate: float
    histogram: Optional[Mapping[Hashable, int]] = None
    sample: Tuple[Any, ...] = ()
    sample_population: int = 0
    heavy_hitters: Mapping[Hashable, int] = field(default_factory=dict)
    heavy_hitter_error: int = 0
    max_degree: Optional[int] = None
    functional_dependencies: Tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.histogram is not None

    @property
    def max_frequency_bound(self) -> int:
        """A deterministic upper bound on the most frequent value's count."""
        if self.histogram is not None:
            return max(self.histogram.values(), default=0)
        bound = self.total_count
        if self.heavy_hitters:
            bound = max(self.heavy_hitters.values()) + self.heavy_hitter_error
        if self.max_degree is not None:
            bound = min(bound, self.max_degree)
        return bound

    @property
    def degree_cap(self) -> int:
        """A sound cap on any single value's multiplicity in this column.

        The exact ``max_degree`` when the collectors recorded one, else the
        deterministic Misra–Gries / histogram bound — never an estimate, so
        degree-constraint size bounds built on it are sound in both modes.
        """
        if self.max_degree is not None:
            return self.max_degree
        return self.max_frequency_bound

    def frequency_upper_bound(self, value: Hashable) -> int:
        """A deterministic upper bound on one value's frequency."""
        if self.histogram is not None:
            return self.histogram.get(value, 0)
        bound = self.heavy_hitters.get(value, 0) + self.heavy_hitter_error
        if self.max_degree is not None:
            bound = min(bound, self.max_degree)
        return bound

    def top_values(self, k: int) -> List[Tuple[Hashable, int]]:
        """Most frequent values with guaranteed *lower-bound* counts."""
        if self.histogram is not None:
            ranked = sorted(
                self.histogram.items(), key=lambda item: (-item[1], repr(item[0]))
            )
        else:
            ranked = sorted(
                self.heavy_hitters.items(),
                key=lambda item: (-item[1], repr(item[0])),
            )
        return ranked[: max(k, 0)]


@dataclass(frozen=True)
class RelationProfile:
    """Statistics of one relation: row count plus per-attribute profiles."""

    name: str
    total_rows: int
    attributes: Mapping[str, AttributeProfile]

    @property
    def exact(self) -> bool:
        return all(profile.exact for profile in self.attributes.values())

    def attribute(self, name: str) -> AttributeProfile:
        try:
            return self.attributes[name]
        except KeyError:
            raise ConfigurationError(
                f"profile of relation {self.name!r} has no attribute {name!r} "
                f"(profiled: {sorted(self.attributes)})"
            ) from None

    def fingerprint(self) -> int:
        """Stable content hash of this relation's statistics, memoized.

        The profile is frozen and one object is handed to every consumer of
        a relation (the planning profile's base relations, an intermediate
        shared through the service's store), so its histograms are
        serialized once however many dataset profiles it joins.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = stable_hash(
                json.dumps([self.name, _relation_to_dict(self)], sort_keys=True)
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass(frozen=True)
class DatasetProfile:
    """A named bundle of relation profiles — the planner's statistics input."""

    relations: Mapping[str, RelationProfile]

    @property
    def exact(self) -> bool:
        return all(profile.exact for profile in self.relations.values())

    def relation(self, name: str) -> RelationProfile:
        try:
            return self.relations[name]
        except KeyError:
            raise ConfigurationError(
                f"dataset profile has no relation {name!r} "
                f"(profiled: {sorted(self.relations)})"
            ) from None

    def covers(self, relation_names: Sequence[str]) -> bool:
        return all(name in self.relations for name in relation_names)

    def row_counts(self) -> Dict[str, int]:
        """Profiled row count per relation — the share optimizer's weights."""
        return {
            name: relation.total_rows for name, relation in self.relations.items()
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "relations": {
                name: _relation_to_dict(profile)
                for name, profile in sorted(self.relations.items())
            }
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DatasetProfile":
        relations = {
            name: _relation_from_dict(name, payload)
            for name, payload in data.get("relations", {}).items()
        }
        return cls(relations=relations)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetProfile":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> int:
        """Stable content hash, usable as part of schema-cache keys.

        Combines the relations' own memoized hashes
        (:meth:`RelationProfile.fingerprint`), so a dataset profile
        assembled from already-fingerprinted relations — the adaptive
        executor builds one per downstream round — serializes nothing.
        Memoized itself too: profile-aware builders fingerprint once per
        ``plan`` call.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = stable_hash(
                tuple(
                    (name, relation.fingerprint())
                    for name, relation in sorted(self.relations.items())
                )
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached


# ----------------------------------------------------------------------
# Value encoding: ints, strings and tuples of those survive JSON.
# ----------------------------------------------------------------------
def _encode_value(value: Hashable) -> Any:
    if isinstance(value, bool) or value is None:
        raise ConfigurationError(
            f"profile values must be ints, strings or tuples of those, got {value!r}"
        )
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [_encode_value(item) for item in value]}
    raise ConfigurationError(
        f"profile values must be ints, strings or tuples of those, got {value!r}"
    )


def _decode_value(value: Any) -> Hashable:
    if isinstance(value, dict):
        return tuple(_decode_value(item) for item in value["t"])
    return value


def _encode_counts(counts: Mapping[Hashable, int]) -> List[List[Any]]:
    pairs = sorted(counts.items(), key=lambda item: (-item[1], repr(item[0])))
    return [[_encode_value(value), count] for value, count in pairs]


def _decode_counts(pairs: Sequence[Sequence[Any]]) -> Dict[Hashable, int]:
    return {_decode_value(value): count for value, count in pairs}


def _attribute_to_dict(profile: AttributeProfile) -> Dict[str, Any]:
    return {
        "total_count": profile.total_count,
        "distinct_estimate": profile.distinct_estimate,
        "histogram": (
            None if profile.histogram is None else _encode_counts(profile.histogram)
        ),
        "sample": [_encode_value(value) for value in profile.sample],
        "sample_population": profile.sample_population,
        "heavy_hitters": _encode_counts(profile.heavy_hitters),
        "heavy_hitter_error": profile.heavy_hitter_error,
        "max_degree": profile.max_degree,
        "functional_dependencies": sorted(profile.functional_dependencies),
    }


def _attribute_from_dict(name: str, data: Mapping[str, Any]) -> AttributeProfile:
    histogram = data.get("histogram")
    return AttributeProfile(
        attribute=name,
        total_count=data["total_count"],
        distinct_estimate=data["distinct_estimate"],
        histogram=None if histogram is None else _decode_counts(histogram),
        sample=tuple(_decode_value(value) for value in data.get("sample", ())),
        sample_population=data.get("sample_population", 0),
        heavy_hitters=_decode_counts(data.get("heavy_hitters", ())),
        heavy_hitter_error=data.get("heavy_hitter_error", 0),
        max_degree=data.get("max_degree"),
        functional_dependencies=tuple(data.get("functional_dependencies", ())),
    )


def _relation_to_dict(profile: RelationProfile) -> Dict[str, Any]:
    return {
        "total_rows": profile.total_rows,
        "attributes": {
            name: _attribute_to_dict(attr)
            for name, attr in sorted(profile.attributes.items())
        },
    }


def _relation_from_dict(name: str, data: Mapping[str, Any]) -> RelationProfile:
    return RelationProfile(
        name=name,
        total_rows=data["total_rows"],
        attributes={
            attr_name: _attribute_from_dict(attr_name, payload)
            for attr_name, payload in data.get("attributes", {}).items()
        },
    )


# ----------------------------------------------------------------------
# Streaming collection
# ----------------------------------------------------------------------
class StreamingRelationProfiler:
    """Collects an exact :class:`RelationProfile` while rows stream past.

    The adaptive pipeline executor profiles each intermediate result *as*
    the rows flow from one round's reducers toward the next round's
    mappers — never materializing a second copy for statistics.  Feed rows
    through :meth:`observe` (or wrap an iterable with :meth:`wrap`), then
    :meth:`finish` the profile once the stream is exhausted.
    """

    def __init__(self, name: str, attributes: Sequence[str]) -> None:
        if not attributes:
            raise ConfigurationError("a relation profile needs at least one attribute")
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self._histograms = {attribute: ExactHistogram() for attribute in self.attributes}
        self._rows = 0
        # Functional-dependency witnesses: for each ordered attribute pair
        # still believed functional, the value → value mapping seen so far.
        # A pair is dropped at the first violating row, so the per-row cost
        # stays O(arity²) and shrinks as dependencies are refuted.
        self._fd_witnesses: Dict[Tuple[int, int], Dict[Hashable, Hashable]] = {
            (i, j): {}
            for i in range(len(self.attributes))
            for j in range(len(self.attributes))
            if i != j
        }

    @property
    def rows_seen(self) -> int:
        return self._rows

    def observe(self, row: Sequence[Hashable]) -> None:
        if len(row) != len(self.attributes):
            raise ConfigurationError(
                f"row {row!r} does not match the {len(self.attributes)} "
                f"attributes of {self.name!r}"
            )
        self._rows += 1
        for attribute, value in zip(self.attributes, row):
            self._histograms[attribute].add(value)
        violated = []
        for (i, j), mapping in self._fd_witnesses.items():
            seen = mapping.setdefault(row[i], row[j])
            if seen != row[j]:
                violated.append((i, j))
        for pair in violated:
            del self._fd_witnesses[pair]

    def wrap(self, rows):
        """Yield ``rows`` unchanged while observing each one in passing."""
        for row in rows:
            self.observe(row)
            yield row

    def finish(self) -> RelationProfile:
        """The exact profile of everything observed so far."""
        determined: Dict[str, List[str]] = {
            attribute: [] for attribute in self.attributes
        }
        for i, j in self._fd_witnesses:
            determined[self.attributes[i]].append(self.attributes[j])
        attributes: Dict[str, AttributeProfile] = {}
        for attribute in self.attributes:
            histogram = self._histograms[attribute]
            attributes[attribute] = AttributeProfile(
                attribute=attribute,
                total_count=histogram.total,
                distinct_estimate=float(histogram.distinct_count),
                histogram=dict(histogram.counts),
                max_degree=max(histogram.counts.values(), default=0),
                functional_dependencies=tuple(sorted(determined[attribute])),
            )
        return RelationProfile(
            name=self.name, total_rows=self._rows, attributes=attributes
        )


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def _profile_column(
    attribute: str,
    values: Sequence[Hashable],
    mode: str,
    sample_size: int,
    heavy_hitter_capacity: int,
    seed: int,
    functional_dependencies: Tuple[str, ...] = (),
) -> AttributeProfile:
    if mode == "exact":
        histogram = ExactHistogram()
        histogram.add_many(values)
        top = histogram.top(heavy_hitter_capacity)
        return AttributeProfile(
            attribute=attribute,
            total_count=histogram.total,
            distinct_estimate=float(histogram.distinct_count),
            histogram=histogram.counts,
            heavy_hitters=dict(top),
            heavy_hitter_error=0,
            max_degree=max(histogram.counts.values(), default=0),
            functional_dependencies=functional_dependencies,
        )
    if mode == "sample":
        reservoir = ReservoirSample(sample_size, seed=seed)
        summary = MisraGries(heavy_hitter_capacity)
        distinct = KMVDistinctEstimator()
        # One exact scalar rides along with the sketches: the maximum
        # multiplicity seen for any value.  Only the running counts live
        # here at collection time; the profile keeps just the max, which
        # is what makes degree-constraint bounds sound on sampled
        # profiles.
        degree_counts: Dict[Hashable, int] = {}
        max_degree = 0
        for value in values:
            reservoir.add(value)
            summary.add(value)
            distinct.add(value)
            degree = degree_counts.get(value, 0) + 1
            degree_counts[value] = degree
            if degree > max_degree:
                max_degree = degree
        return AttributeProfile(
            attribute=attribute,
            total_count=len(values),
            distinct_estimate=distinct.estimate,
            histogram=None,
            sample=reservoir.sample,
            sample_population=reservoir.population_size,
            heavy_hitters=summary.counters,
            heavy_hitter_error=summary.error_bound,
            max_degree=max_degree,
            functional_dependencies=functional_dependencies,
        )
    raise ConfigurationError(f"unknown profiling mode {mode!r}; use 'exact' or 'sample'")


def _functional_dependencies(
    attributes: Sequence[str], rows: Sequence[Sequence[Hashable]]
) -> Dict[str, Tuple[str, ...]]:
    """Per attribute, the sibling attributes it functionally determines.

    Checks every ordered attribute pair against the rows, so a key column
    (``max_degree == 1``) determines every sibling and a foreign-key chain
    records exactly the dependencies the degree-constraint bound exploits.
    """
    arity = len(attributes)
    determined: Dict[str, List[str]] = {attribute: [] for attribute in attributes}
    for i in range(arity):
        for j in range(arity):
            if i == j:
                continue
            mapping: Dict[Hashable, Hashable] = {}
            functional = True
            for row in rows:
                seen = mapping.setdefault(row[i], row[j])
                if seen != row[j]:
                    functional = False
                    break
            if functional:
                determined[attributes[i]].append(attributes[j])
    return {
        attribute: tuple(sorted(names)) for attribute, names in determined.items()
    }


def profile_relation(
    relation: "RelationInstance",
    mode: str = "exact",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    heavy_hitter_capacity: int = DEFAULT_HEAVY_HITTER_CAPACITY,
    seed: int = 0,
) -> RelationProfile:
    """Profile every attribute of one relation instance."""
    attributes: Dict[str, AttributeProfile] = {}
    dependencies = _functional_dependencies(relation.attributes, relation.tuples)
    for index, attribute in enumerate(relation.attributes):
        column = [row[index] for row in relation.tuples]
        attributes[attribute] = _profile_column(
            attribute,
            column,
            mode,
            sample_size,
            heavy_hitter_capacity,
            seed=seed + index,
            functional_dependencies=dependencies[attribute],
        )
    return RelationProfile(
        name=relation.name,
        total_rows=relation.size,
        attributes=attributes,
    )


def profile_relations(
    relations: Sequence["RelationInstance"],
    mode: str = "exact",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    heavy_hitter_capacity: int = DEFAULT_HEAVY_HITTER_CAPACITY,
    seed: int = 0,
) -> DatasetProfile:
    """Profile a set of relation instances into one dataset profile."""
    profiles: Dict[str, RelationProfile] = {}
    for offset, relation in enumerate(relations):
        profiles[relation.name] = profile_relation(
            relation,
            mode=mode,
            sample_size=sample_size,
            heavy_hitter_capacity=heavy_hitter_capacity,
            seed=seed + 1000 * offset,
        )
    return DatasetProfile(relations=profiles)


def profile_graph(
    edges: Sequence[Tuple[int, int]],
    name: str = "E",
    mode: str = "exact",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    heavy_hitter_capacity: int = DEFAULT_HEAVY_HITTER_CAPACITY,
    seed: int = 0,
) -> DatasetProfile:
    """Profile an undirected edge list as a two-column relation ``(u, v)``.

    With edges normalized as ``u < v``, a node's degree is its count in the
    ``u`` column plus its count in the ``v`` column — so an exact graph
    profile carries the full degree sequence, which is what the
    degree-balanced sample-graph bucketings certify against.
    """
    from repro.datagen.relations import RelationInstance

    instance = RelationInstance(
        name=name, attributes=("u", "v"), tuples=tuple(tuple(edge) for edge in edges)
    )
    return profile_relations(
        [instance],
        mode=mode,
        sample_size=sample_size,
        heavy_hitter_capacity=heavy_hitter_capacity,
        seed=seed,
    )


def profile_bitstrings(
    strings: Sequence[int],
    b: int,
    name: str = "bitstrings",
    mode: str = "exact",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    heavy_hitter_capacity: int = DEFAULT_HEAVY_HITTER_CAPACITY,
    seed: int = 0,
) -> DatasetProfile:
    """Profile a bit-string population by value and by Hamming weight."""
    if b <= 0:
        raise ConfigurationError(f"bit width must be positive, got {b}")
    from repro.datagen.relations import RelationInstance

    rows = tuple((word, bin(word).count("1")) for word in strings)
    instance = RelationInstance(name=name, attributes=("value", "weight"), tuples=rows)
    return profile_relations(
        [instance],
        mode=mode,
        sample_size=sample_size,
        heavy_hitter_capacity=heavy_hitter_capacity,
        seed=seed,
    )
