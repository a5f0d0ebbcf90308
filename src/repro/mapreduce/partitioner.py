"""Partitioners: assignment of reduce keys to reduce workers.

The paper distinguishes a *reducer* (a reduce key with its list of values)
from a *reduce worker* (a compute node that may process many reducers).  The
replication-rate analysis only depends on reducers, but a faithful substrate
also models workers so that the load-balancing footnote of Section 3.4 ("in
the best implementation, we would combine the cells with relatively small
population at a single compute node") can be exercised and measured.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Sequence

from repro.exceptions import ConfigurationError


def stable_hash(key: Hashable) -> int:
    """Deterministic, process-independent hash of a reduce key.

    Python's built-in ``hash`` is randomized per process for strings, which
    would make simulated runs non-reproducible across interpreter
    invocations.  This helper hashes the ``repr`` of the key with blake2b
    instead, which is stable and good enough for partitioning purposes.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@functools.lru_cache(maxsize=1 << 14, typed=True)
def _value_hash(attribute: str, value: Hashable) -> int:
    # ``typed``: 1 and 1.0 are equal as cache keys but hash differently.
    return stable_hash((attribute, value))


def attribute_bucket(attribute: str, value: Hashable, share: int) -> int:
    """The hash bucket of a value within an attribute's share.

    The one bucket rule of the Shares schemas: ``bucket_of`` /
    ``sub_bucket_of`` route with it and :mod:`repro.planner.certify` prices
    with it — certification is only sound if the certifier and the
    executing schema hash values to buckets identically.  The hash does not
    depend on the share, so it is memoized per value and only the modulus
    is taken per share.
    """
    if share <= 1:
        return 0
    return _value_hash(attribute, value) % share


class Partitioner(ABC):
    """Maps reduce keys to worker indices in ``range(num_workers)``."""

    @abstractmethod
    def assign(self, key: Hashable, num_workers: int) -> int:
        """Return the worker index responsible for ``key``."""

    def partition(
        self, keys: Iterable[Hashable], num_workers: int
    ) -> Dict[int, List[Hashable]]:
        """Group ``keys`` by worker, returning ``{worker_index: [keys]}``."""
        if num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        assignment: Dict[int, List[Hashable]] = {}
        for key in keys:
            worker = self.assign(key, num_workers)
            if worker < 0 or worker >= num_workers:
                raise ConfigurationError(
                    f"partitioner returned worker {worker} outside "
                    f"range(0, {num_workers}) for key {key!r}"
                )
            assignment.setdefault(worker, []).append(key)
        return assignment


class HashPartitioner(Partitioner):
    """Default partitioner: stable hash of the key modulo worker count."""

    def assign(self, key: Hashable, num_workers: int) -> int:
        return stable_hash(key) % num_workers


class RoundRobinPartitioner(Partitioner):
    """Assign keys to workers in arrival order, cycling through workers.

    Unlike hashing this is sensitive to key order, but it produces perfectly
    balanced *reducer counts* per worker, which is useful when benchmarking
    worker-level skew in isolation from key distribution.
    """

    def __init__(self) -> None:
        self._counter = 0

    def assign(self, key: Hashable, num_workers: int) -> int:
        worker = self._counter % num_workers
        self._counter += 1
        return worker


class GreedyLoadBalancingPartitioner(Partitioner):
    """Assign each key to the currently least-loaded worker.

    Load is measured in announced key *weights* (e.g. the number of values a
    reducer will receive, which schema-derived jobs know in advance).  This
    implements the "combine small cells at a single compute node" remark of
    Section 3.4: reducers with small input can share a worker so that worker
    loads equalize even when reducer sizes are skewed.
    """

    def __init__(self, weights: Dict[Hashable, float] | None = None) -> None:
        self._weights = dict(weights) if weights else {}
        self._loads: List[float] = []

    def assign(self, key: Hashable, num_workers: int) -> int:
        if len(self._loads) != num_workers:
            self._loads = [0.0] * num_workers
        weight = float(self._weights.get(key, 1.0))
        worker = min(range(num_workers), key=lambda index: self._loads[index])
        self._loads[worker] += weight
        return worker

    @property
    def loads(self) -> Sequence[float]:
        """Current per-worker load totals (read-only view for diagnostics)."""
        return tuple(self._loads)
