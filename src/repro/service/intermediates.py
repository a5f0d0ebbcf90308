"""Fingerprint-keyed store of shared intermediates across queued pipelines.

When two pipelines join the same base relations through the same sub-tree
with the same physical plan, their intermediate results are bit-identical
— the engine is deterministic given input order and plan.  The cascade
coroutine stamps every round with exactly that identity
(:func:`repro.pipeline.execute.pipeline_rounds` with ``reuse_keys=True``:
sub-tree structure + base-record content fingerprints + chosen plan name
and shares vector), the same fingerprint-keyed discipline
:class:`repro.planner.cache.SchemaCache` applies to plan builds.  The
content fingerprint is a type-exact digest of the records' pickle,
written without the memo (``1``, ``1.0`` and ``True`` differ), so equal
keys mean equal records of equal types, whatever objects hold them.

A stored outcome carries the producer's rows and, unless the round was
the producer's final one, its in-stream profile; a consumer that needs a
profile the producer did not take builds it from the shared rows.

:class:`IntermediateStore` keeps one entry per key with a small lifecycle:

``claim`` (first caller)   → ``build``: the caller becomes the *producer*
``claim`` (while pending)  → ``wait``: the caller parks until fulfilment
``claim`` (after fulfill)  → ``hit``: the stored outcome, immediately

The store never blocks and holds no locks of its own beyond a counter
lock — the query service calls it under its scheduler lock, parking
waiters without occupying a worker thread or an admission reservation
(so a queued producer can never be deadlocked by its own consumers).
A producer that fails hands its waiters back to the scheduler, which
promotes one of them to producer and re-dispatches the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

ReuseKey = Tuple[Hashable, ...]


@dataclass
class StoreEntry:
    """One shared intermediate: its producer claim, waiters, and value."""

    key: ReuseKey
    #: Opaque waiter tokens (the service parks its round tasks here).
    waiters: List[Any] = field(default_factory=list)
    fulfilled: bool = False
    #: The producer's :class:`~repro.pipeline.execute.RoundOutcome` once
    #: fulfilled — rows, profile and the engine job, shared verbatim.
    outcome: Optional[Any] = None


@dataclass(frozen=True)
class IntermediateStoreStats:
    """Counters of one :class:`IntermediateStore`."""

    #: Intermediates actually materialized (one engine execution each).
    materialized: int
    #: Rounds served from an already-materialized intermediate.
    reused: int
    #: Rounds that parked waiting on a pending producer (later reuses).
    waited: int
    #: Producer failures that re-queued their waiters.
    failures: int
    entries: int

    @property
    def rounds_saved(self) -> int:
        """Engine executions avoided: every reuse skipped one round."""
        return self.reused


class IntermediateStore:
    """Claim/fulfill registry for shareable intermediates.

    NOT internally locked for the claim/fulfill lifecycle — the query
    service serializes those under its scheduler lock, which it must hold
    anyway to park and wake round tasks atomically with the claim
    decision.  (Counters are plain ints mutated under that same lock, so
    :meth:`stats` snapshots are consistent.)
    """

    def __init__(self) -> None:
        self._entries: Dict[ReuseKey, StoreEntry] = {}
        self._materialized = 0
        self._reused = 0
        self._waited = 0
        self._failures = 0

    def claim(self, key: ReuseKey, waiter: Any) -> Tuple[str, StoreEntry]:
        """Resolve ``key`` for one round; returns ``(state, entry)``.

        ``state`` is ``"build"`` (caller is now the producer), ``"wait"``
        (``waiter`` was parked on the pending entry) or ``"hit"``
        (``entry.outcome`` is ready to adopt).
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = StoreEntry(key=key)
            self._entries[key] = entry
            return "build", entry
        if entry.fulfilled:
            self._reused += 1
            return "hit", entry
        entry.waiters.append(waiter)
        self._waited += 1
        return "wait", entry

    def fulfill(self, key: ReuseKey, outcome: Any) -> List[Any]:
        """Record the producer's outcome; returns the waiters to wake.

        Each returned waiter counts as a reuse — it adopts ``outcome``
        without an engine execution of its own.
        """
        entry = self._entries[key]
        entry.fulfilled = True
        entry.outcome = outcome
        self._materialized += 1
        waiters, entry.waiters = entry.waiters, []
        self._reused += len(waiters)
        return waiters

    def fail(self, key: ReuseKey) -> List[Any]:
        """Producer died before fulfilling; returns waiters to re-dispatch.

        The entry is removed so the first re-dispatched waiter claims the
        key afresh and becomes the new producer.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return []
        self._failures += 1
        return entry.waiters

    def stats(self) -> IntermediateStoreStats:
        return IntermediateStoreStats(
            materialized=self._materialized,
            reused=self._reused,
            waited=self._waited,
            failures=self._failures,
            entries=len(self._entries),
        )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._materialized = 0
        self._reused = 0
        self._waited = 0
        self._failures = 0
