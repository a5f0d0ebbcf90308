"""Deterministic streaming execution engine for simulated map-reduce jobs.

The engine is the substrate that replaces Hadoop in this reproduction.  It
executes :class:`~repro.mapreduce.job.MapReduceJob` specifications over an
iterable of input records and produces both the outputs and a complete
:class:`~repro.mapreduce.metrics.JobMetrics` cost report.  The shuffle is
modelled exactly: every key-value pair crossing the map → reduce boundary is
counted as one unit of communication, pairs are grouped by key, and each
group is handed to the reduce function.

The engine owns *what* an execution means — the shuffle lifecycle, metrics
assembly and observation — and hands the two phases to the execution core
in :mod:`repro.mapreduce.executor`: one inline phase template on a *plane*
(Python records, or encoded numpy batches), the two planes bit-identical:

* **Streaming map phase.**  Inputs are consumed one record at a time and
  mapper emissions flow straight into a pluggable
  :class:`~repro.mapreduce.shuffle.ShuffleBackend`; on the record plane the
  input list is never materialized, so generators of arbitrary length work.
* **Faithful combiners.**  A combiner runs per simulated map task (a
  contiguous batch of ``ClusterConfig.map_batch_size`` input records), i.e.
  *before* pairs cross the shuffle boundary — exactly where Hadoop runs it.
  Communication cost therefore reflects what a combiner actually saves; it
  is never computed from globally grouped data.
* **Incremental metrics.**  Reducer sizes, worker loads and compute cost are
  collected while groups stream out of the shuffle backend, never from a
  fully materialized intermediate dictionary.
* **Two planes.**  Every job runs inline in the calling thread.
  ``ClusterConfig.data_plane`` picks the plane: columnar unless declined
  (the default) — one check
  (:func:`~repro.mapreduce.columnar.choose_plane`) decides per run, and a
  decline is counted in ``plane_declined_total{reason}`` and runs on
  records — or ``"records"``, the oracle plane.

Determinism matters for reproducibility of the benchmarks: reduce keys are
processed in sorted order of their stable hash (falling back to ``repr``
order on ties), and no randomness is used anywhere in the engine.  Note
that *stateful* partitioners (round-robin, greedy load-balancing) therefore
see keys in stable-hash order, not mapper-emission order as the
pre-streaming engine did; their worker assignments remain deterministic but
differ from runs recorded before the streaming rewrite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executor import execute
from repro.mapreduce.job import JobChain, MapReduceJob
from repro.mapreduce.metrics import JobMetrics, PipelineMetrics, ShuffleStats
from repro.mapreduce.shuffle import InMemoryShuffle, ShuffleBackend
from repro.obs.metrics import POWER_OF_TWO_BUCKETS

#: A callable producing a fresh shuffle backend for one job execution.
ShuffleFactory = Callable[[], ShuffleBackend]

logger = logging.getLogger(__name__)


@dataclass
class JobResult:
    """Outputs plus metrics of a single executed job."""

    outputs: List[Any]
    metrics: JobMetrics

    @property
    def replication_rate(self) -> float:
        return self.metrics.replication_rate

    @property
    def communication_cost(self) -> int:
        return self.metrics.communication_cost


@dataclass
class PipelineResult:
    """Outputs plus metrics of an executed multi-round job chain.

    Besides the final outputs and the per-round :class:`JobResult` list, the
    result aggregates the accounting callers previously had to assemble by
    hand: total communication, per-round output row counts, the observed
    maximum reducer load across rounds, and — when the rounds were planned
    (the multi-round pipeline planner attaches them) — the per-round
    *certified* load bounds.  :meth:`frontier` flattens all of it into one
    row per round, mirroring the planner's ``frontier()`` tables.
    """

    outputs: List[Any]
    metrics: PipelineMetrics
    round_results: List[JobResult] = field(default_factory=list)
    #: Certified upper bound on each round's max reducer load, when the
    #: rounds came from a planner that certified them (``None`` otherwise).
    round_certified_loads: Optional[Tuple[float, ...]] = None

    @property
    def total_communication(self) -> int:
        return self.metrics.total_communication

    @property
    def per_round_rows(self) -> List[int]:
        """Output records produced by each round, in execution order."""
        return [len(result.outputs) for result in self.round_results]

    @property
    def max_reducer_load(self) -> int:
        """The largest *observed* reducer input size across all rounds."""
        return max(
            (
                result.metrics.shuffle.max_reducer_size
                for result in self.round_results
            ),
            default=0,
        )

    @property
    def max_certified_load(self) -> Optional[float]:
        """The largest per-round certified load bound, when rounds carry one."""
        if not self.round_certified_loads:
            return None
        return max(self.round_certified_loads)

    def frontier(self) -> List[Dict[str, object]]:
        """One flat row per executed round, planner-``frontier()`` style."""
        rows: List[Dict[str, object]] = []
        for index, result in enumerate(self.round_results):
            certified: Optional[float] = None
            if self.round_certified_loads is not None and index < len(
                self.round_certified_loads
            ):
                certified = self.round_certified_loads[index]
            rows.append(
                {
                    "round": index,
                    "job": result.metrics.job_name,
                    "communication": result.communication_cost,
                    "replication_rate": result.replication_rate,
                    "observed_max_load": result.metrics.shuffle.max_reducer_size,
                    "certified_load": certified,
                    "rows_out": len(result.outputs),
                }
            )
        return rows


class MapReduceEngine:
    """Executes jobs and job chains on a simulated cluster.

    Parameters
    ----------
    config:
        Cluster configuration.  A default configuration (4 workers, no
        reducer-size limit) is used when omitted.
    shuffle_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.mapreduce.shuffle.ShuffleBackend` per executed job.
        Defaults to :class:`~repro.mapreduce.shuffle.InMemoryShuffle`; pass
        ``PartitionedShuffle`` (or a configured lambda) to bound peak memory
        on large workloads.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        shuffle_factory: Optional[ShuffleFactory] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.shuffle_factory: ShuffleFactory = shuffle_factory or InMemoryShuffle

    # ------------------------------------------------------------------
    # Single-round execution
    # ------------------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        inputs: Iterable[Any],
        reducer_cost: Optional[Callable[[int], float]] = None,
        shuffle: Optional[ShuffleBackend] = None,
    ) -> JobResult:
        """Execute ``job`` over ``inputs`` and return outputs plus metrics.

        Parameters
        ----------
        job:
            The job specification.
        inputs:
            Input records; consumed once, streamed (never materialized).
        reducer_cost:
            Optional function from a reducer's input size ``q_i`` to its
            computation cost.  The summed cost over all reducers is reported
            as ``reducer_compute_cost`` in the metrics (e.g. pass
            ``lambda q: q * q`` for the all-pairs reducers of Example 1.1).
        shuffle:
            Optional pre-built shuffle backend for this run only, overriding
            the engine's ``shuffle_factory``.
        """
        backend = shuffle if shuffle is not None else self.shuffle_factory()
        tracer = self.config.tracer
        try:
            with tracer.span("job", job=job.name) as span:
                outcome = execute(job, inputs, backend, self.config, reducer_cost)
                # Read the pair count before the backend closes: closed
                # backends refuse num_pairs rather than reporting stale
                # counts.  Spill volume is read the same way — only
                # spilling backends expose it.
                shuffle_stats = ShuffleStats(
                    num_inputs=outcome.num_inputs,
                    num_key_value_pairs=backend.num_pairs,
                    reducer_sizes=outcome.reducer_sizes,
                    bytes_shuffled=getattr(backend, "spilled_bytes", None),
                )
                metrics = JobMetrics(
                    job_name=job.name,
                    shuffle=shuffle_stats,
                    workers=outcome.workers,
                    num_outputs=len(outcome.outputs),
                    reducer_compute_cost=outcome.reducer_compute_cost,
                    timings=outcome.timings,
                )
                if tracer.enabled or self.config.metrics.enabled:
                    self._observe_job(span, backend, metrics)
            return JobResult(outputs=outcome.outputs, metrics=metrics)
        finally:
            backend.close()

    def _observe_job(self, span: Any, backend: ShuffleBackend, metrics: JobMetrics) -> None:
        """Report one finished job to the cluster's tracer and registry.

        Called only when at least one of the two is collecting, so the
        default (null) path never pays for attribute assembly.
        """
        tracer = self.config.tracer
        stats = metrics.shuffle
        if tracer.enabled:
            span.set(
                inputs=stats.num_inputs,
                pairs=stats.num_key_value_pairs,
                outputs=metrics.num_outputs,
                replication_rate=round(stats.replication_rate, 6),
                max_reducer_size=stats.max_reducer_size,
            )
            if metrics.timings is not None:
                # Derived phase spans: the execution core measures per-phase
                # totals while shuffle reads and reduce work interleave, so
                # the three children are laid out sequentially from the job
                # start — durations are faithful, offsets are a layout.
                timings = metrics.timings
                start = span.start
                for name, seconds in (
                    ("map", timings.map_seconds),
                    ("shuffle", timings.shuffle_seconds),
                    ("reduce", timings.reduce_seconds),
                ):
                    tracer.record_span(name, start, seconds, parent=span)
                    start += seconds
        registry = self.config.metrics
        if registry.enabled:
            registry.counter("engine_jobs_total", "Executed map-reduce jobs").inc()
            registry.counter(
                "engine_input_records_total", "Input records consumed by map phases"
            ).inc(stats.num_inputs)
            registry.counter(
                "engine_shuffled_pairs_total",
                "Key-value pairs crossing the map-reduce boundary "
                "(communication cost)",
            ).inc(stats.num_key_value_pairs)
            registry.counter(
                "engine_output_records_total", "Records emitted by reduce phases"
            ).inc(metrics.num_outputs)
            registry.histogram(
                "engine_replication_rate",
                "Per-job replication rate (pairs per input record)",
                buckets=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
                         24.0, 32.0, 48.0, 64.0, 96.0, 128.0),
            ).observe(stats.replication_rate)
            registry.histogram(
                "engine_max_reducer_load",
                "Per-job maximum reducer input size (the paper's max q_i)",
                buckets=POWER_OF_TWO_BUCKETS,
            ).observe(float(stats.max_reducer_size))
            if stats.bytes_shuffled is not None:
                registry.counter(
                    "shuffle_spill_bytes_total",
                    "Bytes spilled to disk by shuffle backends",
                ).inc(stats.bytes_shuffled)
                registry.counter(
                    "shuffle_spill_chunks_total",
                    "Spill flushes performed by shuffle backends",
                ).inc(getattr(backend, "spill_count", 0))
            if metrics.timings is not None:
                phase_seconds = registry.counter(
                    "engine_phase_seconds_total",
                    "Wall-clock seconds per execution phase",
                )
                phase_seconds.inc(metrics.timings.map_seconds, phase="map")
                phase_seconds.inc(metrics.timings.shuffle_seconds, phase="shuffle")
                phase_seconds.inc(metrics.timings.reduce_seconds, phase="reduce")

    # ------------------------------------------------------------------
    # Multi-round execution
    # ------------------------------------------------------------------
    def run_chain(
        self,
        chain: JobChain,
        inputs: Iterable[Any],
        reducer_costs: Optional[Sequence[Optional[Callable[[int], float]]]] = None,
    ) -> PipelineResult:
        """Execute a multi-round :class:`JobChain`.

        The outputs of each round feed the next round's mappers.  Rounds
        listed in ``chain.colocated_rounds`` are assumed to read their input
        locally (no extra transfer is modelled between rounds; the only
        communication counted is each round's own shuffle, which matches the
        paper's two-phase accounting).
        """
        if not chain.jobs:
            raise ConfigurationError(
                f"cannot execute job chain {chain.name!r}: it contains no jobs"
            )
        if reducer_costs is not None and len(reducer_costs) != len(chain.jobs):
            # A mis-sized cost list is a caller configuration mistake, the
            # same class of error as an empty chain — nothing executed yet.
            raise ConfigurationError(
                f"reducer_costs must have one entry per job in the chain: "
                f"got {len(reducer_costs)} for {len(chain.jobs)} jobs"
            )
        current_inputs: Iterable[Any] = inputs
        round_results: List[JobResult] = []
        for index, job in enumerate(chain.jobs):
            cost_fn = reducer_costs[index] if reducer_costs is not None else None
            result = self.run(job, current_inputs, reducer_cost=cost_fn)
            round_results.append(result)
            current_inputs = result.outputs
        metrics = PipelineMetrics(
            chain_name=chain.name,
            rounds=[result.metrics for result in round_results],
            colocated_rounds=chain.colocated_rounds,
        )
        logger.debug(
            "chain %s: %d rounds, %d pairs shuffled, %d outputs",
            chain.name,
            metrics.num_rounds,
            metrics.total_communication,
            metrics.final_outputs,
        )
        return PipelineResult(
            outputs=round_results[-1].outputs,
            metrics=metrics,
            round_results=round_results,
        )
