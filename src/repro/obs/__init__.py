"""Unified observability: span tracing, metrics, and exporters.

The layer has three parts — :mod:`~repro.obs.trace` (span trees on the
monotonic clock), :mod:`~repro.obs.metrics` (labeled counters / gauges /
histograms with an atomic snapshot) and :mod:`~repro.obs.export`
(Chrome-trace JSON for Perfetto, Prometheus text exposition, per-query
latency breakdowns).  Everything defaults to the shared null objects, so
instrumented code paths cost one attribute load and a no-op call unless a
caller opts in::

    from repro.obs import Observability
    from repro.obs.export import latency_breakdown, write_chrome_trace

    obs = Observability.collecting()
    service = QueryService(capacity=96, observer=obs)
    ...
    service.close()
    write_chrome_trace(obs.tracer, "service_trace.json")
    print(latency_breakdown(obs.tracer))

Engine-level runs without a service are traced through the cluster::

    config = ClusterConfig(tracer=obs.tracer, metrics=obs.metrics)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.export import (
    PHASES,
    SPAN_PHASE,
    chrome_trace,
    latency_breakdown,
    prometheus_text,
    query_phase_rows,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    POWER_OF_TWO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, walk

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBSERVABILITY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "PHASES",
    "POWER_OF_TWO_BUCKETS",
    "SPAN_PHASE",
    "Span",
    "Tracer",
    "chrome_trace",
    "latency_breakdown",
    "prometheus_text",
    "query_phase_rows",
    "walk",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class Observability:
    """One tracer plus one registry, handed around as a unit.

    The default instance is the null pair (collect nothing); build a
    collecting pair with :meth:`collecting`.  Frozen so a bundle can be
    shared across threads and stored on services without defensive
    copying.
    """

    tracer: Any = field(default=NULL_TRACER)
    metrics: Any = field(default=NULL_METRICS)

    @classmethod
    def collecting(cls) -> "Observability":
        """A bundle that actually records: fresh tracer, fresh registry."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry())

    @property
    def enabled(self) -> bool:
        return bool(self.tracer.enabled or self.metrics.enabled)


#: Shared default bundle: no tracing, no metrics.
NULL_OBSERVABILITY = Observability()
