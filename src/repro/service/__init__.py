"""Concurrent query serving: round scheduling under certified-load admission.

The paper prices a map-reduce job by its replication and certified
max-reducer-load so that a capacity-``q`` cluster is never oversubscribed.
This subpackage carries that guarantee from one-shot execution into a
long-lived serving layer:

* :mod:`repro.service.admission` — the reserve/release ledger keeping the
  sum of in-flight certified loads at or below capacity ``q``;
* :mod:`repro.service.intermediates` — fingerprint-keyed sharing of
  bit-identical intermediates across queued pipelines;
* :mod:`repro.service.tuning` — cross-query adaptation of the mid-flight
  ``replan_factor`` from observed re-plan wins and losses;
* :mod:`repro.service.service` — :class:`QueryService` itself, scheduling
  pipeline *rounds* (not whole queries) onto a pool of round threads.

Entry point::

    with QueryService(capacity=96) as service:
        handles = [service.submit(plan, records) for plan, records in work]
        results = [handle.result() for handle in handles]
"""

from repro.service.admission import AdmissionLedger, AdmissionStats
from repro.service.intermediates import (
    IntermediateStore,
    IntermediateStoreStats,
    StoreEntry,
)
from repro.service.service import QueryHandle, QueryService
from repro.service.tuning import ReplanTuner, TunerStats

__all__ = [
    "AdmissionLedger",
    "AdmissionStats",
    "IntermediateStore",
    "IntermediateStoreStats",
    "QueryHandle",
    "QueryService",
    "ReplanTuner",
    "StoreEntry",
    "TunerStats",
]
