"""Job specifications for the simulated map-reduce engine.

A :class:`MapReduceJob` bundles a map function, a reduce function and an
optional combiner, mirroring what a user would submit to Hadoop.  Jobs are
plain data: the engine in :mod:`repro.mapreduce.engine` executes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidJobError
from repro.mapreduce.types import (
    CombineFunction,
    Key,
    MapFunction,
    ReduceFunction,
    Value,
)


@dataclass
class MapReduceJob:
    """Specification of a single map-reduce round.

    Parameters
    ----------
    mapper:
        Function from one input record to an iterable of ``(key, value)``
        pairs.  Must treat each input independently (Section 2.3 of the
        paper).
    reducer:
        Function from ``(key, values)`` to an iterable of output records.
    combiner:
        Optional map-side pre-aggregation with reducer semantics.  Only
        useful for associative-commutative reductions (e.g. the partial sums
        of the two-phase matrix-multiplication algorithm).
    name:
        Human-readable job name used in metrics reports.
    reducer_capacity:
        Optional reducer-size limit ``q``.  When set, the engine raises
        :class:`repro.exceptions.ReducerCapacityExceededError` if any reduce
        key receives more than ``q`` values; when ``None`` the engine only
        records the observed maximum.
    batch_kernel:
        Optional vectorized kernel (a
        :class:`repro.mapreduce.columnar.BatchKernel`) equivalent to the
        mapper/reducer pair.  Unless the cluster's ``data_plane`` is
        ``"records"``, jobs carrying a kernel run on typed column batches
        instead of one record at a time (columnar unless declined); jobs
        without one (or whose kernel declines the inputs) take the record
        path unchanged.  The kernel must be behaviourally identical to the
        scalar functions — the engine treats the record path as the
        bit-identity oracle.
    """

    mapper: MapFunction
    reducer: ReduceFunction
    combiner: Optional[CombineFunction] = None
    name: str = "map-reduce-job"
    reducer_capacity: Optional[int] = None
    batch_kernel: Optional[object] = None

    def __post_init__(self) -> None:
        if not callable(self.mapper):
            raise InvalidJobError(f"job {self.name!r}: mapper must be callable")
        if not callable(self.reducer):
            raise InvalidJobError(f"job {self.name!r}: reducer must be callable")
        if self.combiner is not None and not callable(self.combiner):
            raise InvalidJobError(f"job {self.name!r}: combiner must be callable")
        if self.reducer_capacity is not None and self.reducer_capacity <= 0:
            raise InvalidJobError(
                f"job {self.name!r}: reducer_capacity must be positive, "
                f"got {self.reducer_capacity}"
            )
        if self.batch_kernel is not None and not callable(
            getattr(self.batch_kernel, "map_batch", None)
        ):
            # Duck-typed: the columnar layer imports this module.
            raise InvalidJobError(
                f"job {self.name!r}: batch_kernel must provide a callable "
                f"map_batch (see repro.mapreduce.columnar.BatchKernel), "
                f"got {self.batch_kernel!r}"
            )

    def with_capacity(self, q: Optional[int]) -> "MapReduceJob":
        """Return a copy of this job with a different reducer-size limit."""
        return MapReduceJob(
            mapper=self.mapper,
            reducer=self.reducer,
            combiner=self.combiner,
            name=self.name,
            reducer_capacity=q,
            batch_kernel=self.batch_kernel,
        )


def identity_reducer(key: Key, values: List[Value]) -> Iterable[Any]:
    """Reducer that re-emits every value it receives, tagged with its key."""
    for value in values:
        yield (key, value)


def collecting_reducer(key: Key, values: List[Value]) -> Iterable[Any]:
    """Reducer that emits the full ``(key, values)`` group as one record."""
    yield (key, list(values))


def make_filtering_mapper(
    route: Callable[[Any], Iterable[Key]],
) -> MapFunction:
    """Build a mapper that sends each input, unchanged, to a set of keys.

    This is the shape of every mapping-schema-derived mapper in this library:
    the *value* is always the input record itself and the routing function
    decides which reducers (keys) receive it.
    """

    def mapper(record: Any) -> Iterable[Tuple[Key, Value]]:
        for key in route(record):
            yield (key, record)

    return mapper


@dataclass
class JobChain:
    """An ordered sequence of jobs forming a multi-round computation.

    The output records of round *i* become the input records of round
    *i + 1*.  Rounds may declare that their mappers are co-located with the
    previous round's reducers (``colocated_rounds``), in which case the
    engine does not charge map-input communication for that round — this is
    exactly the accounting used by the paper's two-phase matrix
    multiplication (Section 6.3), where the second-phase mappers "reside at
    the same compute node" as the first-phase reducers.
    """

    jobs: Sequence[MapReduceJob]
    name: str = "job-chain"
    colocated_rounds: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise InvalidJobError("a JobChain needs at least one job")
        for index in self.colocated_rounds:
            if index <= 0 or index >= len(self.jobs):
                raise InvalidJobError(
                    f"colocated round index {index} out of range for a chain "
                    f"of {len(self.jobs)} jobs (round 0 cannot be colocated)"
                )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)
