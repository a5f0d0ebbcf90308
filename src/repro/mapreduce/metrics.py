"""Measurement of the cost quantities studied by the paper.

The two central quantities are:

* **communication cost** — the number of key-value pairs shipped from the
  map phase to the reduce phase (optionally weighted by a per-record size);
* **replication rate** — communication cost divided by the number of input
  records, i.e. the average number of reducers each input reaches.

The metrics layer also records the full distribution of reducer input sizes
(the paper's ``q_i``), which the skew analyses and the reducer-capacity
checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple


@dataclass
class ShuffleStats:
    """Statistics of one map → reduce shuffle."""

    num_inputs: int
    num_key_value_pairs: int
    reducer_sizes: Dict[Hashable, int]
    #: Bytes the shuffle backend spilled to disk for this job (``None``
    #: when the backend never spills, e.g. :class:`InMemoryShuffle`).
    #: Excluded from equality like :attr:`JobMetrics.timings`: spill
    #: volume is a property of the backend and its chunking, not of the
    #: computation — serial and parallel runs of the same job legitimately
    #: spill different byte counts while remaining metrically identical.
    bytes_shuffled: Optional[int] = field(default=None, compare=False)

    @property
    def num_reducers(self) -> int:
        """Number of distinct reduce keys that received at least one value."""
        return len(self.reducer_sizes)

    @property
    def replication_rate(self) -> float:
        """Average number of key-value pairs produced per input record."""
        if self.num_inputs == 0:
            return 0.0
        return self.num_key_value_pairs / self.num_inputs

    @property
    def max_reducer_size(self) -> int:
        """The largest observed reducer input size (``max q_i``)."""
        if not self.reducer_sizes:
            return 0
        return max(self.reducer_sizes.values())

    @property
    def mean_reducer_size(self) -> float:
        """Average reducer input size across non-empty reducers."""
        if not self.reducer_sizes:
            return 0.0
        return self.num_key_value_pairs / len(self.reducer_sizes)

    def size_histogram(self) -> Dict[int, int]:
        """Histogram ``{reducer size: number of reducers with that size}``."""
        histogram: Dict[int, int] = {}
        for size in self.reducer_sizes.values():
            histogram[size] = histogram.get(size, 0) + 1
        return dict(sorted(histogram.items()))

    def skew(self) -> float:
        """Ratio of the maximum reducer size to the mean reducer size.

        A value of 1.0 means perfectly balanced reducers; large values signal
        the "curse of the last reducer" the related work discusses.
        """
        mean = self.mean_reducer_size
        if mean == 0:
            return 0.0
        return self.max_reducer_size / mean


@dataclass
class WorkerStats:
    """Load seen by each simulated reduce worker."""

    keys_per_worker: Dict[int, int] = field(default_factory=dict)
    values_per_worker: Dict[int, int] = field(default_factory=dict)

    @property
    def num_workers(self) -> int:
        return len(self.values_per_worker)

    @property
    def max_worker_load(self) -> int:
        if not self.values_per_worker:
            return 0
        return max(self.values_per_worker.values())

    def load_imbalance(self) -> float:
        """Max worker load divided by mean worker load (1.0 = balanced)."""
        if not self.values_per_worker:
            return 0.0
        loads = list(self.values_per_worker.values())
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 0.0
        return max(loads) / mean


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each phase of one executed job.

    The map phase covers input consumption and mapper (or batch-kernel
    encode/map) work; the shuffle phase covers writing pairs into the
    shuffle backend plus reading grouped data back out of it; the reduce
    phase is the remaining group-processing time.  Timings are measurement,
    not semantics: two runs of the same job are considered metrically equal
    even though their timings differ, which is why :class:`JobMetrics`
    excludes this field from equality comparisons.
    """

    map_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    reduce_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.map_seconds + self.shuffle_seconds + self.reduce_seconds

    def summary(self) -> Dict[str, float]:
        return {
            "map_s": self.map_seconds,
            "shuffle_s": self.shuffle_seconds,
            "reduce_s": self.reduce_seconds,
            "total_s": self.total_seconds,
        }


@dataclass
class JobMetrics:
    """Full cost report for one executed map-reduce job."""

    job_name: str
    shuffle: ShuffleStats
    workers: WorkerStats
    num_outputs: int
    reducer_compute_cost: float = 0.0
    #: Per-phase wall-clock timings.  Excluded from equality: the columnar
    #: data plane's bit-identity contract covers outputs and *cost* metrics,
    #: while wall-clock time legitimately differs between runs.
    timings: Optional[PhaseTimings] = field(default=None, compare=False)

    @property
    def replication_rate(self) -> float:
        return self.shuffle.replication_rate

    @property
    def communication_cost(self) -> int:
        return self.shuffle.num_key_value_pairs

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline *cost* numbers, convenient for reports.

        Deliberately excludes :attr:`timings`: summaries are compared for
        equality across shuffle backends and data planes, and wall-clock
        time legitimately differs between equivalent runs.
        Read ``metrics.timings.summary()`` for the per-phase seconds.
        """
        return {
            "inputs": float(self.shuffle.num_inputs),
            "outputs": float(self.num_outputs),
            "key_value_pairs": float(self.shuffle.num_key_value_pairs),
            "replication_rate": self.replication_rate,
            "reducers": float(self.shuffle.num_reducers),
            "max_reducer_size": float(self.shuffle.max_reducer_size),
            "mean_reducer_size": self.shuffle.mean_reducer_size,
            "skew": self.shuffle.skew(),
            "reducer_compute_cost": self.reducer_compute_cost,
        }


@dataclass
class PipelineMetrics:
    """Aggregated cost report for a multi-round computation."""

    chain_name: str
    rounds: List[JobMetrics]
    colocated_rounds: Tuple[int, ...] = ()

    @property
    def total_communication(self) -> int:
        """Total key-value pairs shipped across all non-colocated rounds.

        Rounds whose mappers are co-located with the previous round's
        reducers read their input locally; the communication they incur is
        their own map → reduce shuffle, which *is* counted.  What is *not*
        added is any transfer of the previous round's output to the next
        round's mappers, mirroring Section 6.3's accounting.
        """
        return sum(round_metrics.communication_cost for round_metrics in self.rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def final_outputs(self) -> int:
        if not self.rounds:
            return 0
        return self.rounds[-1].num_outputs

    def per_round_communication(self) -> List[int]:
        return [round_metrics.communication_cost for round_metrics in self.rounds]

    def phase_seconds(self) -> Optional[PhaseTimings]:
        """Per-phase wall-clock seconds summed over all timed rounds.

        Returns ``None`` when no round carries timings (results recorded
        before the timing instrumentation, or synthesized metrics).
        """
        timed = [round_metrics.timings for round_metrics in self.rounds
                 if round_metrics.timings is not None]
        if not timed:
            return None
        return PhaseTimings(
            map_seconds=sum(timing.map_seconds for timing in timed),
            shuffle_seconds=sum(timing.shuffle_seconds for timing in timed),
            reduce_seconds=sum(timing.reduce_seconds for timing in timed),
        )

    def summary(self) -> Dict[str, float]:
        return {
            "rounds": float(self.num_rounds),
            "total_communication": float(self.total_communication),
            "final_outputs": float(self.final_outputs),
        }
