"""The execution core: one phase template driven by one of two runners.

The engine in :mod:`repro.mapreduce.engine` owns *what* a job execution
means — the shuffle lifecycle and metrics assembly.  This module owns how
the two phases run, along two independent axes:

* the **runner** — *who* runs the task bodies.  :class:`SerialExecutor`
  runs them inline in the calling thread, streaming one pair / one group at
  a time (the seed behaviour, and the oracle every other cell is compared
  against).  :class:`ParallelExecutor` ships map chunks and reduce blocks
  to a warm process pool and merges results in submission order.
* the **plane** — *how* records are represented: Python objects, or the
  encoded numpy batches of :mod:`repro.mapreduce.columnar`.  The plane is
  decided once per run by :func:`~repro.mapreduce.columnar.choose_plane`.

:meth:`Executor.execute` is the only map → reduce → timings skeleton: it
picks the plane, times the map phase, streams the shuffle's groups through
the reduce phase under the shared :class:`_ReduceBookkeeper` and attaches
:class:`~repro.mapreduce.metrics.PhaseTimings`.  The runners share one
definition each of the map-task body (:func:`_map_task`) and the
reduce-one-group body (:func:`_reduce_group`); they differ only in where
those bodies run and how results are batched.

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

Determinism contract (every runner × plane cell, any worker count):

* the shuffle backend receives exactly the same multiset of post-combiner
  pairs, with the same per-key value order, so ``num_pairs`` and every
  reducer size match the serial record run;
* outputs appear in stable-hash group order (pool blocks are collected
  FIFO);
* partitioner worker assignments are computed in the parent while groups
  stream by in stable-hash order, so even *stateful* partitioners
  (round-robin, greedy) see the exact key sequence the serial run shows
  them.

Jobs are built from closures (every schema family's ``job()`` is), which
plain ``pickle`` cannot ship to a ``spawn``-started process, so the pool
runner requires the ``fork`` start method and raises a clear
:class:`~repro.exceptions.ConfigurationError` at construction time on
platforms without it.  Each task carries the job packed by
:mod:`repro.mapreduce.serialization`, so the pool stays **warm across
runs**: the first ``execute`` forks it lazily, later ``execute`` /
``run_chain`` rounds reuse the live workers (each caches recently unpacked
jobs by version, so concurrent jobs interleaving on one pool stay cheap).
Call :meth:`ParallelExecutor.close` (or use the executor / engine as a
context manager) to release the workers.  A job the serializer cannot pack
runs on the inline runner instead — still correct, counted in
``fallback_runs`` and announced with a :class:`WarmPoolFallbackWarning`.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import threading
import time
import warnings
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import (
    ConfigurationError,
    ExecutionError,
    ReducerCapacityExceededError,
)
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import PhaseTimings, WorkerStats
from repro.mapreduce.serialization import JobSerializationError, pack_job, unpack_job
from repro.mapreduce.shuffle import ShuffleBackend
from repro.mapreduce.types import ensure_key_value

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Task bodies (shared by both runners)
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
    """Per-group metric accounting shared by every runner and plane.

    Every cell observes groups in the same stable-hash order; keeping the
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
    (adding the shuffle backend's pair count); executors stay free of the
    metrics classes' construction details.
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
class Executor(ABC):
    """The phase template; a subclass chooses the runner that drives it.

    A runner is any object with ``map_records(job, inputs, backend, config)
    -> num_inputs``, ``reduce_groups(job, groups, bookkeeper) -> outputs``
    and a ``carries_batches`` flag saying whether the batch plane can run
    on it.
    """

    #: Short name used by ``ClusterConfig.executor`` string resolution.
    name: str = "abstract"

    @abstractmethod
    def _runner(self, job: MapReduceJob, config: ClusterConfig) -> Any:
        """Context manager yielding the runner for one ``execute`` call."""

    def execute(
        self,
        job: MapReduceJob,
        inputs: Iterable[Any],
        backend: ShuffleBackend,
        config: ClusterConfig,
        reducer_cost: Optional[Callable[[int], float]] = None,
    ) -> ExecutionOutcome:
        """Run ``job`` over ``inputs`` through ``backend`` and return results.

        Capacity is enforced as groups stream by, so with
        ``enforce_capacity`` the reducers of groups ordered before an
        oversized key (in stable-hash order) have already run when the
        :class:`ReducerCapacityExceededError` aborts the job — a deliberate
        consequence of never materializing the full shuffle.
        """
        with self._runner(job, config) as runner:
            bookkeeper = _ReduceBookkeeper(job, config, reducer_cost)
            map_start = time.perf_counter()
            batch = None
            if config.data_plane == "columnar":
                # Imported lazily: the columnar module imports this one.
                from repro.mapreduce import columnar

                inputs, batch, _ = columnar.choose_plane(
                    job, inputs, backend, config, runner.carries_batches
                )
            if batch is not None:
                num_inputs = len(inputs)
                columnar.map_batch(job, batch, backend)
                groups = _TimedGroups(backend.encoded_runs())
                reduce = columnar.reduce_runs
            else:
                num_inputs = runner.map_records(job, inputs, backend, config)
                groups = _TimedGroups(backend.groups())
                reduce = runner.reduce_groups
            reduce_start = time.perf_counter()
            outputs = reduce(job, groups, bookkeeper)
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


# ----------------------------------------------------------------------
# The inline runner (the seed behaviour)
# ----------------------------------------------------------------------
class _InlineRunner:
    """Runs the task bodies in the calling thread, streaming.

    Mapper emissions flow into ``backend.add`` one pair at a time and the
    reducer is called once per group as it leaves the shuffle: nothing is
    chunked or grouped on the way, which is what keeps jobs with tens of
    thousands of tiny groups cheap.
    """

    carries_batches = True

    @staticmethod
    def map_records(
        job: MapReduceJob,
        inputs: Iterable[Any],
        backend: ShuffleBackend,
        config: ClusterConfig,
    ) -> int:
        # A map task is ``map_batch_size`` consecutive records.  Without a
        # combiner task boundaries are unobservable, so one task takes the
        # whole stream.
        task_size = config.map_batch_size if job.combiner is not None else None
        iterator = iter(inputs)
        num_inputs = 0
        while True:
            consumed = _map_task(
                job, itertools.islice(iterator, task_size), backend.add
            )
            num_inputs += consumed
            if task_size is None or consumed < task_size:
                return num_inputs

    @staticmethod
    def reduce_groups(
        job: MapReduceJob,
        groups: Iterable[Tuple[Hashable, List[Any]]],
        bookkeeper: _ReduceBookkeeper,
    ) -> List[Any]:
        outputs: List[Any] = []
        for key, values in groups:
            bookkeeper.observe(key, values)
            _reduce_group(job, key, values, outputs)
        return outputs


_INLINE = _InlineRunner()


class SerialExecutor(Executor):
    """Runs everything in the calling process, streaming record by record."""

    name = "serial"

    @contextmanager
    def _runner(self, job: MapReduceJob, config: ClusterConfig) -> Iterator[Any]:
        yield _INLINE


# ----------------------------------------------------------------------
# The warm-pool runner
# ----------------------------------------------------------------------
#: Worker-side cache of recently unpacked jobs, keyed by version token.
#: Several entries are kept because concurrent executes (the query service
#: runs rounds of many jobs on one shared pool) interleave tasks of
#: different versions on the same worker; a single-entry cache would thrash
#: — unpack on every task flip — while staying correct.  The bound caps
#: worker memory; eviction drops the oldest version (tokens are monotonic).
_JOB_CACHE: Dict[int, MapReduceJob] = {}
_JOB_CACHE_LIMIT = 16

#: Parent-side version tokens for shipped jobs, unique per process.
_JOB_VERSIONS = itertools.count(1)

#: At most this many tasks per worker are in flight at once; beyond that the
#: parent drains the oldest task first.  Bounds parent-side memory (chunks
#: and blocks are materialized while in flight) without stalling the pool.
_MAX_PENDING_PER_WORKER = 4


def _cached_job(version: int, packed: bytes) -> MapReduceJob:
    """The job a worker task should run: unpacked on first sight of a
    version, served from cache afterwards."""
    job = _JOB_CACHE.get(version)
    if job is None:
        try:
            job = unpack_job(packed)
        except Exception as error:
            raise ExecutionError(
                f"worker failed to deserialize job (version {version}): {error}"
            ) from error
        while len(_JOB_CACHE) >= _JOB_CACHE_LIMIT:
            del _JOB_CACHE[min(_JOB_CACHE)]
        _JOB_CACHE[version] = job
    return job


def _worker_map_chunk(
    version: int, packed: bytes, records: Sequence[Any]
) -> Tuple[int, List[Tuple[Hashable, List[Any]]]]:
    """Run one map task in a worker, returning its pairs grouped per key.

    One chunk *is* one simulated map task — the parent cuts chunks of
    exactly ``map_batch_size`` records — so combiner scope matches the
    inline runner's.  Grouping per key (first-emission order) preserves
    per-key value order while letting the parent merge whole value lists
    instead of pair-at-a-time.
    """
    grouped: Dict[Hashable, List[Any]] = {}
    consumed = _map_task(
        _cached_job(version, packed),
        records,
        lambda key, value: grouped.setdefault(key, []).append(value),
    )
    return consumed, list(grouped.items())


def _worker_reduce_block(
    version: int, packed: bytes, block: Sequence[Tuple[Hashable, List[Any]]]
) -> List[Any]:
    """Run the reducer over one block of shuffle groups, returning outputs."""
    job = _cached_job(version, packed)
    outputs: List[Any] = []
    for key, values in block:
        _reduce_group(job, key, values, outputs)
    return outputs


class _PoolRunner:
    """Ships the task bodies of one run to the pool, merging results FIFO."""

    #: Pool × batches is not built (ROADMAP item 2): an explicit, counted
    #: decline in :func:`~repro.mapreduce.columnar.choose_plane`.
    carries_batches = False

    def __init__(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        block_size: int,
        packed: bytes,
        registry: Any,
    ) -> None:
        version = next(_JOB_VERSIONS)
        self._pool = pool
        self._registry = registry
        self._max_pending = _MAX_PENDING_PER_WORKER * workers
        self._block_size = block_size
        self._map_task = partial(_worker_map_chunk, version, packed)
        self._reduce_task = partial(_worker_reduce_block, version, packed)

    def map_records(
        self,
        job: MapReduceJob,
        inputs: Iterable[Any],
        backend: ShuffleBackend,
        config: ClusterConfig,
    ) -> int:
        """Fan map chunks out to the pool, merge results in submission order.

        Chunks are cut at ``map_batch_size`` records — the same map-task
        boundary the inline runner gives the combiner — and their grouped
        emissions enter the shuffle backend in chunk order, so the backend
        sees the same per-key value order as a serial run.
        """
        batch_size = config.map_batch_size
        registry = self._registry
        # Per-task wait histogram: how long the coordinating thread blocked
        # on each map task's result.  Resolved once per phase, not per task.
        waits = (
            registry.histogram(
                "executor_map_task_wait_seconds",
                "Seconds the coordinator blocked awaiting one map task",
            )
            if registry.enabled
            else None
        )
        pending: deque = deque()
        tasks = 0
        num_inputs = 0

        def drain() -> int:
            wait_start = time.perf_counter()
            consumed, grouped = pending.popleft().result()
            if waits is not None:
                waits.observe(time.perf_counter() - wait_start)
            for key, values in grouped:
                backend.add_group(key, values)
            return consumed

        iterator = iter(inputs)
        chunk: List[Any] = []
        input_error: Optional[BaseException] = None
        while True:
            try:
                chunk.append(next(iterator))
            except StopIteration:
                break
            except Exception as error:
                # The input iterable itself failed.  Every record pulled
                # before this point was mapped by the inline runner before
                # it could hit the same failure, so map them here too (the
                # trailing partial chunk included) and let any mapper error
                # among them win — exactly the serial error order.
                input_error = error
                break
            if len(chunk) >= batch_size:
                if len(pending) >= self._max_pending:
                    num_inputs += drain()
                pending.append(self._pool.submit(self._map_task, chunk))
                tasks += 1
                chunk = []
        if chunk:
            pending.append(self._pool.submit(self._map_task, chunk))
            tasks += 1
        while pending:
            num_inputs += drain()
        if registry.enabled:
            registry.counter(
                "executor_map_tasks_total",
                "Map tasks shipped to the worker pool",
            ).inc(tasks)
        if input_error is not None:
            raise input_error
        return num_inputs

    def reduce_groups(
        self,
        job: MapReduceJob,
        groups: Iterable[Tuple[Hashable, List[Any]]],
        bookkeeper: _ReduceBookkeeper,
    ) -> List[Any]:
        """Dispatch blocks of groups to the pool, collecting outputs FIFO.

        All bookkeeping happens in the parent while groups stream by in
        stable-hash order — exactly the sequence the inline runner
        processes — so stateful partitioners and capacity errors behave
        identically.  Only the reducer calls travel to the workers.
        """
        outputs: List[Any] = []
        pending: deque = deque()
        blocks = 0
        block: List[Tuple[Hashable, List[Any]]] = []
        for key, values in groups:
            try:
                bookkeeper.observe(key, values)
            except Exception:
                # By the time the inline runner detects a capacity
                # violation at this key, every earlier key's reducer has
                # already run — and a reducer error among them would have
                # surfaced *instead*.  Finish the earlier work (in-flight
                # blocks plus the partial one) so its errors take
                # precedence here too.
                if block:
                    pending.append(self._pool.submit(self._reduce_task, block))
                while pending:
                    pending.popleft().result()
                raise
            block.append((key, values))
            if len(block) >= self._block_size:
                if len(pending) >= self._max_pending:
                    outputs.extend(pending.popleft().result())
                pending.append(self._pool.submit(self._reduce_task, block))
                blocks += 1
                block = []
        if block:
            pending.append(self._pool.submit(self._reduce_task, block))
            blocks += 1
        while pending:
            outputs.extend(pending.popleft().result())
        if self._registry.enabled:
            self._registry.counter(
                "executor_reduce_blocks_total",
                "Reduce blocks shipped to the worker pool",
            ).inc(blocks)
        return outputs


@dataclass(frozen=True)
class WarmPoolStats:
    """Atomic snapshot of one executor's warm-vs-fallback accounting.

    Taken under the executor's lock, so ``warm_runs + fallback_runs`` always
    equals the number of executes whose runner decision has been recorded —
    concurrent submitters can never observe a half-updated pair, which the
    individual attribute reads cannot promise.
    """

    warm_runs: int
    fallback_runs: int
    used_warm_pool: Optional[bool]
    active_runs: int

    @property
    def total_runs(self) -> int:
        return self.warm_runs + self.fallback_runs


class WarmPoolFallbackWarning(UserWarning):
    """A job could not be shipped to the warm worker pool.

    Raised as a :mod:`warnings` category (not an error): the run still
    succeeds, inline in the calling process, but gets no parallelism and
    the persistent workers sit idle.  Filterable with the standard warnings
    machinery — which also means Python's default ``"default"`` action may
    display repeated identical warnings only once per process;
    :attr:`ParallelExecutor.used_warm_pool` and the ``warm_runs`` /
    ``fallback_runs`` counters are the authoritative per-run channel,
    updated on every execute regardless of filters.
    """


class ParallelExecutor(Executor):
    """Process-pool execution of the map and reduce phases.

    One lazily-created pool is reused across ``execute`` calls (and
    therefore across ``MapReduceEngine.run`` / ``run_chain`` calls on an
    engine holding this executor); release it with :meth:`close` or a
    ``with`` block.  A job :func:`~repro.mapreduce.serialization.pack_job`
    cannot ship runs on the inline runner for that one execute, emitting a
    :class:`WarmPoolFallbackWarning` and recording the outcome in
    :attr:`used_warm_pool` / the run counters.

    Parameters
    ----------
    num_workers:
        Worker processes in the pool.  Defaults (``None``) to the cluster's
        ``num_workers`` at execute time, so one knob sizes both the
        simulated reduce workers and the real process pool.
    reduce_block_size:
        Shuffle groups dispatched to a worker per reduce task.  Larger
        blocks amortize pickling; smaller blocks balance better when
        reducer sizes are skewed.
    """

    name = "parallel"

    def __init__(
        self, num_workers: Optional[int] = None, reduce_block_size: int = 64
    ) -> None:
        if num_workers is not None and num_workers <= 0:
            raise ConfigurationError(
                f"num_workers must be positive, got {num_workers}"
            )
        if reduce_block_size <= 0:
            raise ConfigurationError(
                f"reduce_block_size must be positive, got {reduce_block_size}"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "ParallelExecutor requires the 'fork' start method (jobs are "
                "closures, which cannot be pickled to spawn-started workers); "
                "this platform does not support fork — use SerialExecutor"
            )
        self.num_workers = num_workers
        self.reduce_block_size = reduce_block_size
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers: Optional[int] = None
        self._lock = threading.Lock()
        #: Pool executes currently in flight.  The pool is only resized
        #: (torn down and re-forked) when this is zero: a resize mid-run
        #: would shut the pool down under the other run's feet.
        self._active_runs = 0
        #: Whether the most recent ``execute`` *decision* chose the warm
        #: pool (``None`` until the first run).  ``False`` means the job
        #: could not be shipped and ran inline (which also warns).  Under
        #: concurrent executes this single slot is last-writer-wins;
        #: :meth:`warm_stats` gives the consistent counter snapshot.
        self.used_warm_pool: Optional[bool] = None
        #: Lifetime counters of pool and inline-fallback executions.
        self.warm_runs: int = 0
        self.fallback_runs: int = 0

    def warm_stats(self) -> WarmPoolStats:
        """Consistent snapshot of the warm/fallback counters.

        The decision and its counter update happen in one critical section
        (see :meth:`_runner`), and this read takes the same lock — so the
        snapshot's ``total_runs`` exactly counts decided executes even while
        other threads are mid-submission.
        """
        with self._lock:
            return WarmPoolStats(
                warm_runs=self.warm_runs,
                fallback_runs=self.fallback_runs,
                used_warm_pool=self.used_warm_pool,
                active_runs=self._active_runs,
            )

    def effective_workers(self, config: ClusterConfig) -> int:
        return self.num_workers if self.num_workers is not None else config.num_workers

    # -- warm-pool lifecycle --------------------------------------------
    @property
    def pool_is_warm(self) -> bool:
        """Whether a live worker pool is currently held."""
        return self._pool is not None

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool, (re)created lazily and resized on demand.

        Caller must hold ``self._lock``.  A resize request while other
        executes are in flight is deferred — the current pool keeps serving
        (its worker count is a throughput knob, not a correctness one) and
        the next idle moment re-forks at the requested size.
        """
        if (
            self._pool is not None
            and self._pool_workers != workers
            and self._active_runs == 0
        ):
            self._release_pool(wait=True)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            self._pool_workers = workers
        return self._pool

    def _release_pool(self, wait: bool) -> None:
        pool, self._pool, self._pool_workers = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def close(self) -> None:
        """Shut the persistent pool down; the next execute re-forks one.

        Intended to be called when no executes are in flight; closing
        under a concurrent run makes that run's remaining submissions fail
        (the pool refuses work after shutdown).
        """
        with self._lock:
            self._release_pool(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    # -- runner selection -----------------------------------------------
    @contextmanager
    def _runner(self, job: MapReduceJob, config: ClusterConfig) -> Iterator[Any]:
        """The pool runner for a shippable job, else the inline runner.

        The executor lock is held only while deciding and acquiring the
        pool, not for the duration of the run: concurrent executes from
        different threads (the query service schedules many jobs' rounds
        onto one shared executor) overlap on the same process pool.  Each
        run drains its own futures FIFO and every task carries its own
        versioned job, so interleaved jobs stay bit-identical to their
        serial runs.
        """
        workers = self.effective_workers(config)
        unshippable: Optional[JobSerializationError] = None
        packed: Optional[bytes] = None
        try:
            packed = pack_job(job)
        except JobSerializationError as error:
            unshippable = error
        # The decision and its counter update form one critical section:
        # a decision recorded separately from its counter would let another
        # job interleave between them, making the pair inconsistent to any
        # observer (warm_stats() reads under the same lock).
        with self._lock:
            self.used_warm_pool = packed is not None
            if packed is None:
                self.fallback_runs += 1
            else:
                self.warm_runs += 1
                pool = self._ensure_pool(workers)
                self._active_runs += 1
        registry = config.metrics
        if packed is None:
            if registry.enabled:
                registry.counter(
                    "executor_fallback_runs_total",
                    "Executions run inline because the job could not be "
                    "shipped to the warm worker pool",
                ).inc()
            message = (
                f"job {job.name!r} cannot be shipped to the warm worker pool "
                f"({unshippable}); running it inline in the calling process"
            )
            logger.warning(message)
            # Correct but serial — make it observable instead of silent.
            # Emitted outside the lock: warning filters can run arbitrary
            # user hooks.  stacklevel 4 = the caller of ``execute``.
            warnings.warn(message, WarmPoolFallbackWarning, stacklevel=4)
            yield _INLINE
            return
        try:
            if registry.enabled:
                registry.counter(
                    "executor_warm_runs_total",
                    "Executions shipped to the persistent warm worker pool",
                ).inc()
            yield _PoolRunner(
                pool, workers, self.reduce_block_size, packed, registry
            )
        except BrokenProcessPool as error:
            # A dead worker poisons the whole pool; drop it so the next
            # execute forks a healthy one (unless a concurrent run already
            # replaced it — only drop the pool this run was using).
            with self._lock:
                if self._pool is pool:
                    self._release_pool(wait=False)
            raise ExecutionError(
                f"worker pool died while executing job {job.name!r} "
                f"(a worker process was killed or crashed): {error}"
            ) from error
        finally:
            with self._lock:
                self._active_runs -= 1


# ----------------------------------------------------------------------
# Resolution from configuration
# ----------------------------------------------------------------------
#: What ``ClusterConfig.executor`` / ``MapReduceEngine(executor=...)`` accept.
ExecutorSpec = Union[str, Executor, None]

_EXECUTOR_NAMES: Dict[str, Callable[[], Executor]] = {
    "serial": SerialExecutor,
    "parallel": ParallelExecutor,
}


def known_executor_names() -> Tuple[str, ...]:
    """The executor names ``ClusterConfig.executor`` accepts, sorted.

    Single source of truth for name validation — ``ClusterConfig`` checks
    against this, so registering a new named executor here makes it valid
    configuration everywhere.
    """
    return tuple(sorted(_EXECUTOR_NAMES))


def resolve_executor(spec: ExecutorSpec) -> Executor:
    """Turn an executor spec (name, instance or None) into an Executor.

    ``None`` resolves to :class:`SerialExecutor`, matching the seed
    behaviour; strings resolve through the registered names (``"serial"``,
    ``"parallel"``); instances pass through unchanged.  Matching
    ``ClusterConfig``'s validation, any object with a callable ``execute``
    counts as an executor — subclassing :class:`Executor` is recommended
    but not required.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        factory = _EXECUTOR_NAMES.get(spec)
        if factory is None:
            raise ConfigurationError(
                f"unknown executor {spec!r}; expected one of "
                f"{sorted(_EXECUTOR_NAMES)} or an Executor instance"
            )
        return factory()
    if isinstance(spec, Executor) or callable(getattr(spec, "execute", None)):
        return spec
    raise ConfigurationError(
        f"executor must be a name, an Executor instance or None, got {spec!r}"
    )


def default_parallel_workers(cap: int = 8) -> int:
    """A sensible process count for benchmarks: *usable* cores, capped.

    CPU affinity and cgroup pinning can leave fewer cores than
    ``os.cpu_count()`` reports, so the affinity mask is preferred where the
    platform exposes it.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(cap, usable))
