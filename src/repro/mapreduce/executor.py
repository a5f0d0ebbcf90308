"""The execution core: the task bodies and one inline :func:`execute`.

The engine in :mod:`repro.mapreduce.engine` owns *what* a job execution
means — the shuffle lifecycle and metrics assembly.  This module owns how
the two phases run: inline in the calling thread, on one of two *planes* —
Python records, streamed one pair / one group at a time (the oracle), or
the encoded numpy batches of :mod:`repro.mapreduce.columnar`.  The plane is
decided once per run by :func:`~repro.mapreduce.columnar.choose_plane`.

:func:`execute` is the only map → reduce → timings skeleton: it picks the
plane, times the map phase, streams the shuffle's groups through the reduce
phase under the shared :class:`_ReduceBookkeeper` and attaches
:class:`~repro.mapreduce.metrics.PhaseTimings`.  The record plane runs one
definition each of the map-task body (:func:`_map_task`) and the
reduce-one-group body (:func:`_reduce_group`); the batch plane reduces
with one kernel call per encoded run.

Task-body contract (pinned in ``tests/test_task_bodies.py`` against the
previous bodies, kept there verbatim as the oracle).  Per record, pair and
group the bodies run the user's mapper / combiner / reducer and the sink,
nothing of their own: a result is iterated in place, each pair reaching the
sink before the next is pulled, a plain 2-tuple passed on as is.

* Wrapped into :class:`~repro.exceptions.ExecutionError` (naming the job and
  the record / key, the original as ``__cause__``): an ``Exception`` from
  calling the mapper, combiner or reducer or from iterating its result;
  reducer outputs produced before it stay appended.
* Surfacing unchanged: an input-iterator error, a malformed emission (bare
  ``TypeError``), a sink / closed-backend error, a non-iterable result
  (``TypeError`` from ``iter()``; ``None`` is "nothing" from a mapper or
  reducer, a non-iterable from a combiner).
* Failure text, ``repr`` of the record or key included, is formatted only
  when a failure is raised.

Determinism contract (both planes):

* the shuffle backend receives exactly the same multiset of post-combiner
  pairs, with the same per-key value order, so ``num_pairs`` and every
  reducer size match the record run;
* outputs appear in stable-hash group order;
* partitioner worker assignments are computed while groups stream by in
  stable-hash order, so even *stateful* partitioners (round-robin, greedy)
  see the same key sequence on both planes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.exceptions import ExecutionError, ReducerCapacityExceededError
from repro.mapreduce import columnar
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import PhaseTimings, WorkerStats
from repro.mapreduce.shuffle import ShuffleBackend
from repro.mapreduce.types import ensure_key_value


# ----------------------------------------------------------------------
# Task bodies
# ----------------------------------------------------------------------
#: Where a pair leaving a map-task stage goes: ``sink(key, value)``.
Sink = Callable[[Hashable, Any], None]


def _pour(
    job: MapReduceJob, role: str, call: Callable[..., Any], arguments: Iterable[Tuple], sink: Sink
) -> int:
    """One stage of a map task: ``call(*args)`` for each ``args``, its pairs
    into ``sink`` one at a time; returns the number of calls made.

    ``in_user_code`` tells the one handler whether ``call`` raised (wrapped)
    or ``iter()``, the emission check or the sink did (left as raised).
    """
    calls = 0
    for args in arguments:
        calls += 1
        in_user_code = True
        try:
            produced = call(*args)
            if produced is None and role == "mapper":
                continue  # a combiner's None is a non-iterable, as before
            in_user_code = False
            iterator = iter(produced)
            in_user_code = True
            for item in iterator:
                in_user_code = False
                if type(item) is tuple and len(item) == 2:
                    sink(*item)
                else:
                    pair = ensure_key_value(item)
                    sink(pair.key, pair.value)
                in_user_code = True
        except Exception as error:
            if not in_user_code:
                raise
            subject = "record" if role == "mapper" else "key"
            raise ExecutionError(
                f"{role} of job {job.name!r} failed on {subject} {args[0]!r}: {error}"
            ) from error
    return calls


def _map_task(job: MapReduceJob, records: Iterable[Any], sink: Sink) -> int:
    """The body of one map task: the mapper, then the per-task combiner.

    ``sink(key, value)`` is called once per pair *leaving* the task, so with
    a combiner the mapper's emissions are buffered per key (first-emission
    order) and only the combined pairs reach it — the pairs that would
    really cross the network.  Returns the number of records consumed.
    """
    # zip() hands each record over as the 1-tuple ``call(*args)`` takes,
    # without a Python frame per record.
    if job.combiner is None:
        return _pour(job, "mapper", job.mapper, zip(records), sink)
    buffer: Dict[Hashable, List[Any]] = {}

    def buffered(key: Hashable, value: Any) -> None:
        buffer.setdefault(key, []).append(value)

    consumed = _pour(job, "mapper", job.mapper, zip(records), buffered)
    _pour(job, "combiner", job.combiner, buffer.items(), sink)
    return consumed


def _reduce_group(
    job: MapReduceJob, key: Hashable, values: List[Any], outputs: List[Any]
) -> None:
    """The body of one reducer call: append the group's outputs to ``outputs``."""
    in_user_code = True
    try:
        produced = job.reducer(key, values)
        if produced is None:
            return
        in_user_code = False
        iterator = iter(produced)
        in_user_code = True
        outputs.extend(iterator)
    except Exception as error:
        if not in_user_code:
            raise
        raise ExecutionError(f"reducer of job {job.name!r} failed on key {key!r}: {error}") from error


class _ReduceBookkeeper:
    """Per-group metric accounting shared by both planes.

    Both planes observe groups in the same stable-hash order; keeping the
    bookkeeping (reducer sizes, capacity enforcement, partitioner
    assignment, compute cost) in one place is what guarantees their metrics
    cannot drift apart.
    """

    def __init__(
        self,
        job: MapReduceJob,
        config: ClusterConfig,
        reducer_cost: Optional[Callable[[int], float]],
    ) -> None:
        self._capacity = config.effective_capacity(job.reducer_capacity)
        self._enforce = self._capacity is not None and config.enforce_capacity
        self._config = config
        self._reducer_cost = reducer_cost
        self.reducer_sizes: Dict[Hashable, int] = {}
        self.workers = WorkerStats()
        self.compute_cost = 0.0

    def observe(self, key: Hashable, values: List[Any]) -> None:
        """Account for one group; raises if it exceeds the enforced capacity."""
        self.observe_size(key, len(values))

    def observe_size(self, key: Hashable, size: int) -> None:
        """Account for one group given only its size.

        The batch plane holds group values as array slices, never as Python
        lists; routing its accounting through the same code path as the
        record plane is what keeps the two planes' metrics bit-identical by
        construction.
        """
        self.reducer_sizes[key] = size
        if self._enforce and size > self._capacity:
            raise ReducerCapacityExceededError(key, size, self._capacity)
        worker = self._config.partitioner.assign(key, self._config.num_workers)
        self.workers.keys_per_worker[worker] = (
            self.workers.keys_per_worker.get(worker, 0) + 1
        )
        self.workers.values_per_worker[worker] = (
            self.workers.values_per_worker.get(worker, 0) + size
        )
        if self._reducer_cost is not None:
            self.compute_cost += float(self._reducer_cost(size))


@dataclass
class ExecutionOutcome:
    """Raw results of one executed job, before metrics assembly.

    The engine turns this into :class:`~repro.mapreduce.metrics.JobMetrics`
    (adding the shuffle backend's pair count); the execution core stays
    free of the metrics classes' construction details.
    """

    num_inputs: int
    outputs: List[Any]
    reducer_sizes: Dict[Hashable, int] = field(default_factory=dict)
    workers: WorkerStats = field(default_factory=WorkerStats)
    reducer_compute_cost: float = 0.0
    timings: Optional[PhaseTimings] = None


class _TimedGroups:
    """Iterator wrapper accumulating the time spent pulling groups.

    The reduce phase interleaves shuffle read-back (grouping, spill reads,
    sorting) with reducer calls inside one loop; wrapping the backend's
    group iterator is what lets the phase report separate shuffle and
    reduce seconds without restructuring the streaming loop.
    """

    def __init__(self, iterable: Iterable[Any]) -> None:
        self._iterator = iter(iterable)
        self.seconds = 0.0

    def __iter__(self) -> "_TimedGroups":
        return self

    def __next__(self) -> Any:
        start = time.perf_counter()
        try:
            return next(self._iterator)
        finally:
            self.seconds += time.perf_counter() - start


# ----------------------------------------------------------------------
# The phase template
# ----------------------------------------------------------------------
def execute(
    job: MapReduceJob,
    inputs: Iterable[Any],
    backend: ShuffleBackend,
    config: ClusterConfig,
    reducer_cost: Optional[Callable[[int], float]] = None,
) -> ExecutionOutcome:
    """Run ``job`` over ``inputs`` through ``backend`` and return results.

    Capacity is enforced as groups stream by, so with ``enforce_capacity``
    the reducers of groups ordered before an oversized key (in stable-hash
    order) have already run when the :class:`ReducerCapacityExceededError`
    aborts the job — a deliberate consequence of never materializing the
    full shuffle.
    """
    bookkeeper = _ReduceBookkeeper(job, config, reducer_cost)
    map_start = time.perf_counter()
    batch = None
    if config.data_plane == "columnar":
        inputs, batch = columnar.choose_plane(job, inputs, backend, config)
    if batch is not None:
        num_inputs = len(inputs)
        columnar.map_batch(job, batch, backend)
        groups = _TimedGroups(backend.encoded_runs())
        reduce_start = time.perf_counter()
        outputs = columnar.reduce_runs(job, groups, bookkeeper)
    else:
        # A map task is ``map_batch_size`` consecutive records.  Without a
        # combiner task boundaries are unobservable, so one task takes the
        # whole stream.
        task_size = config.map_batch_size if job.combiner is not None else None
        iterator = iter(inputs)
        num_inputs = 0
        while True:
            consumed = _map_task(job, itertools.islice(iterator, task_size), backend.add)
            num_inputs += consumed
            if task_size is None or consumed < task_size:
                break
        groups = _TimedGroups(backend.groups())
        reduce_start = time.perf_counter()
        outputs = []
        for key, values in groups:
            bookkeeper.observe(key, values)
            _reduce_group(job, key, values, outputs)
    reduce_seconds = time.perf_counter() - reduce_start - groups.seconds
    return ExecutionOutcome(
        num_inputs=num_inputs,
        outputs=outputs,
        reducer_sizes=bookkeeper.reducer_sizes,
        workers=bookkeeper.workers,
        reducer_compute_cost=bookkeeper.compute_cost,
        timings=PhaseTimings(
            map_seconds=reduce_start - map_start,
            shuffle_seconds=groups.seconds,
            reduce_seconds=max(0.0, reduce_seconds),
        ),
    )
