"""Simulated cluster configuration.

The cluster abstraction is deliberately small: the paper's analysis only
needs (i) a reducer-size limit ``q``, (ii) a number of reduce workers over
which reducers (reduce keys) are spread, and (iii) rate constants used by
the Section 1.2 cost model.  Everything else about a physical cluster
(network topology, disk, stragglers) is irrelevant to the quantities the
paper studies and is intentionally not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.obs import NULL_METRICS, NULL_TRACER


@dataclass
class ClusterConfig:
    """Configuration of the simulated execution environment.

    Parameters
    ----------
    num_workers:
        Number of simulated reduce workers.  Reduce keys are spread across
        the workers by ``partitioner``.  This does not affect replication
        rate, only the worker-load statistics.
    reducer_capacity:
        Optional global reducer-size limit ``q``.  Jobs may override it with
        their own ``reducer_capacity``.
    enforce_capacity:
        If True, exceeding the effective capacity raises
        :class:`repro.exceptions.ReducerCapacityExceededError`; if False the
        violation is only recorded in the job metrics.
    partitioner:
        Strategy for mapping reduce keys to workers.
    communication_cost_per_record:
        Cost charged per shuffled key-value pair by the Section 1.2 cost
        model (the constant of proportionality of the ``a·r`` term).
    worker_cost_per_unit:
        Cost charged per unit of reducer computation (the ``b·q`` term).
    planning_cost_per_second:
        Cost charged per wall-clock second the planner/optimizer spends
        choosing a configuration.  Defaults to 0 (planning is free, the
        paper's accounting); set it to amortize optimizer time over runs.
    map_batch_size:
        Number of consecutive input records processed by one simulated map
        task.  A job's combiner runs once per map task, before the task's
        emissions cross the shuffle boundary — the batch size therefore
        controls how much pre-aggregation a combiner can achieve, exactly
        like Hadoop's input-split size does.
    data_plane:
        The *plane* — how records are represented through map → shuffle →
        reduce.  ``"columnar"`` (the default) runs on vectorized numpy
        batches unless declined: one check
        (:func:`~repro.mapreduce.columnar.choose_plane`) decides per run and
        may decline — no numpy, no batch kernel, a combiner, a shuffle
        backend without encoded batches, or inputs the kernel cannot
        encode — in which case the job runs on records and the run is
        counted in ``plane_declined_total{reason}``.  ``"records"`` streams
        one Python record at a time: it is the oracle plane the batch
        plane is held to, and it never materializes its inputs.  Both
        planes produce bit-identical outputs and metrics.
    tracer:
        Span tracer the engine (and everything running on this cluster)
        reports to — see :mod:`repro.obs`.  ``None`` resolves to the
        shared zero-overhead :data:`~repro.obs.NULL_TRACER`; runs under
        the null tracer are bit-identical to untraced runs.
    metrics:
        Metrics registry for the same layers (job counters, replication
        rate, max reducer load ``q_i``, spill volume).  ``None`` resolves
        to the shared no-op :data:`~repro.obs.NULL_METRICS`.
    """

    num_workers: int = 4
    reducer_capacity: Optional[int] = None
    enforce_capacity: bool = False
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    communication_cost_per_record: float = 1.0
    worker_cost_per_unit: float = 1.0
    planning_cost_per_second: float = 0.0
    map_batch_size: int = 1024
    data_plane: str = "columnar"
    tracer: Optional[object] = None
    metrics: Optional[object] = None

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.reducer_capacity is not None and self.reducer_capacity <= 0:
            raise ConfigurationError(
                f"reducer_capacity must be positive, got {self.reducer_capacity}"
            )
        if self.communication_cost_per_record < 0:
            raise ConfigurationError("communication_cost_per_record must be >= 0")
        if self.worker_cost_per_unit < 0:
            raise ConfigurationError("worker_cost_per_unit must be >= 0")
        if self.planning_cost_per_second < 0:
            raise ConfigurationError("planning_cost_per_second must be >= 0")
        if self.map_batch_size <= 0:
            raise ConfigurationError(
                f"map_batch_size must be positive, got {self.map_batch_size}"
            )
        if self.data_plane not in ("records", "columnar"):
            raise ConfigurationError(
                f"data_plane must be 'records' or 'columnar', "
                f"got {self.data_plane!r}"
            )
        # Duck-typed: anything with the Tracer / MetricsRegistry call
        # surface works, and ``None`` means the shared zero-overhead null
        # objects.
        if self.tracer is None:
            self.tracer = NULL_TRACER
        elif not callable(getattr(self.tracer, "span", None)):
            raise ConfigurationError(
                f"tracer must provide a span() method, got {self.tracer!r}"
            )
        if self.metrics is None:
            self.metrics = NULL_METRICS
        elif not callable(getattr(self.metrics, "counter", None)):
            raise ConfigurationError(
                f"metrics must provide a counter() method, got {self.metrics!r}"
            )

    def effective_capacity(self, job_capacity: Optional[int]) -> Optional[int]:
        """Resolve the reducer-size limit for a job.

        A job-level limit overrides the cluster-level one; if neither is set
        the capacity is unbounded (``None``).
        """
        if job_capacity is not None:
            return job_capacity
        return self.reducer_capacity

    def with_capacity(self, q: Optional[int]) -> "ClusterConfig":
        """Return a copy of this configuration with a different ``q``."""
        return ClusterConfig(
            num_workers=self.num_workers,
            reducer_capacity=q,
            enforce_capacity=self.enforce_capacity,
            partitioner=self.partitioner,
            communication_cost_per_record=self.communication_cost_per_record,
            worker_cost_per_unit=self.worker_cost_per_unit,
            planning_cost_per_second=self.planning_cost_per_second,
            map_batch_size=self.map_batch_size,
            data_plane=self.data_plane,
            tracer=self.tracer,
            metrics=self.metrics,
        )
