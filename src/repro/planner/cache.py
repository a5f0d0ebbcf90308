"""Keyed cache for built plan candidates (schemas plus their closed forms).

Candidate enumeration is the planner's hot path: a single ``plan`` call may
construct dozens of schema-family objects and evaluate their certified
reducer sizes and replication rates, and a budget *sweep* repeats that for
every budget.  Most of that work is identical across budgets — a
``SplittingSchema(b=24, c=3)`` is the same object whatever ``q`` the caller
is shopping for; only the *feasibility filter* depends on the budget.

:class:`SchemaCache` memoizes those builds behind a caller-chosen key —
conventionally ``(family, *parameters)`` with every parameter a hashable
value that fully determines the build.  The built-in builders in
:mod:`repro.planner.builtins` route every family construction through
:data:`default_schema_cache`, so

* a sweep over many budgets builds each (family, params) candidate once;
* repeated ``plan`` calls (benchmark loops, tests) reuse earlier builds;
* hit/miss counters make the "built at most once" property testable.

Cached values are treated as immutable — :class:`~repro.planner.registry.
PlanCandidate` is a frozen dataclass and the schema families never mutate
after construction — so sharing one instance across planning calls is safe.

This mirrors PostBOUND's memoization of enumerated plans across cost
budgets: the enumeration loop stays budget-aware while the expensive
per-candidate knowledge is computed once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")

#: Cache keys are flat tuples of hashables: ``(family_tag, *parameters)``.
CacheKey = Tuple[Hashable, ...]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`SchemaCache`."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def builds(self) -> int:
        """Number of times a build function actually ran (== misses)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class SchemaCache:
    """Keyed memoization of candidate builds with LRU bounding.

    Thread-safe: lookups, inserts and the eviction accounting all happen
    under one re-entrant lock, so concurrent planners (the query service
    plans submissions from many client threads) cannot corrupt the LRU
    order or lose counter updates.  The lock is held *across* ``build`` as
    well, which keeps the "built at most once per key" property under
    concurrency; builds are CPU-bound planner work, so serializing them
    costs nothing the GIL was not already costing.  The lock is re-entrant
    because builds legitimately nest — a pipeline round's build routes its
    own schema constructions back through this cache.

    Parameters
    ----------
    maxsize:
        Maximum number of cached entries; ``None`` (the default) means
        unbounded.  Measured: one profiled 3-chain round enters 45
        entries, one two-relation cascade round ~190.  When bounded,
        the least recently used entry is evicted first.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ConfigurationError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: CacheKey, build: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building it on first use.

        ``build`` must be a zero-argument callable whose result is fully
        determined by ``key``; it runs at most once per key while the entry
        remains cached — including when many threads race on the same key.
        """
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            value = build()
            self._entries[key] = value
            if self.maxsize is not None and len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def stats(self) -> CacheStats:
        """A point-in-time snapshot, internally consistent under concurrency."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0


#: The cache the built-in candidate builders share.  Bounded (LRU) so
#: long-lived sessions sweeping many distinct problem parameters cannot
#: grow it without limit.  A cold 3-chain pipeline plan enters 45 entries
#: when the bound-first search prunes both cascades and 789 when
#: ``complete()`` plans them: the bound holds five fully planned such
#: queries at once.
#: Tests that assert build counts should ``clear()`` it first to start
#: from known counters.
default_schema_cache = SchemaCache(maxsize=4096)
