"""A long-lived query service scheduling pipeline *rounds* on one cluster.

Everything below this module is one-shot: plan a pipeline, execute it,
return.  :class:`QueryService` turns those pieces into a serving layer —
the ROADMAP's north-star step — by exploiting three properties the
library already guarantees:

* **Rounds are the schedulable unit.**  :func:`repro.pipeline.execute.
  pipeline_rounds` exposes each pipeline as a coroutine that yields one
  :class:`~repro.pipeline.execute.RoundWork` at a time, so the service can
  interleave rounds of many queries instead of running queries whole.
  Between rounds a query holds no cluster resources at all.
* **Certificates price admission.**  Every round carries a certified
  max-reducer-load; the :class:`~repro.service.admission.AdmissionLedger`
  guarantees the in-flight certified loads never sum past the configured
  capacity ``q`` — the paper's feasibility constraint, enforced at serving
  time instead of planning time.
* **Determinism makes intermediates shareable.**  Two queries joining the
  same base records through the same sub-tree and physical plan produce
  bit-identical intermediates, so the
  :class:`~repro.service.intermediates.IntermediateStore` materializes
  each fingerprint once and feeds every consumer.

Scheduling is event-driven: there is no scheduler thread.  Submissions,
round completions and intermediate fulfilments all funnel through one
lock, where the dispatch loop admits ready rounds in priority order
(higher ``priority`` first, cheaper certified load first within a
priority — cheap rounds backfill capacity that big rounds left idle).
Round bodies run on a small thread pool; each round's map/reduce work runs
inline on its round thread through the execution core.

Example
-------
::

    service = QueryService(capacity=96)
    handles = [service.submit(plan, records) for plan, records in queries]
    results = [h.result() for h in handles]
    print(service.describe())
    service.close()
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import AdmissionError, ConfigurationError
from repro.mapreduce.engine import MapReduceEngine
from repro.obs import NULL_METRICS, NULL_OBSERVABILITY, NULL_TRACER, Observability
from repro.pipeline.execute import (
    PipelineRunResult,
    RoundOutcome,
    RoundWork,
    pipeline_rounds,
)
from repro.pipeline.planner import PipelinePlan
from repro.planner.cache import default_schema_cache
from repro.service.admission import AdmissionLedger
from repro.service.intermediates import IntermediateStore
from repro.service.tuning import ReplanTuner

logger = logging.getLogger(__name__)


class QueryHandle:
    """Caller-side future for one submitted query."""

    def __init__(self, query_id: int, label: str) -> None:
        self.query_id = query_id
        self.label = label
        #: The ``replan_factor`` this query was admitted with (the tuner's
        #: value at submit time) — lets a caller replay the query one-shot
        #: with identical adaptive behaviour, e.g. for bit-identity checks.
        self.replan_factor: Optional[float] = None
        self._event = threading.Event()
        self._result: Optional[PipelineRunResult] = None
        self._exception: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> PipelineRunResult:
        """Block until the query finishes; re-raises its failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} ({self.label}) not done after {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    # -- service side ---------------------------------------------------
    def _finish(self, result: PipelineRunResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, exception: BaseException) -> None:
        self._exception = exception
        self._event.set()


@dataclass
class _QueryState:
    """Service-side bookkeeping for one in-flight query."""

    query_id: int
    plan: PipelinePlan
    handle: QueryHandle
    gen: Any  # RoundGenerator
    priority: float
    replan_factor: float
    #: Monotonic submission sequence — FIFO tie-break in dispatch order.
    seq: int
    pending_work: Optional[RoundWork] = None
    #: Reuse key this query is currently the producer for, if any.
    producing_key: Optional[tuple] = None
    #: Certified load currently reserved on the ledger, if any.
    reserved_load: Optional[float] = None
    rounds_executed: int = 0
    rounds_reused: int = 0
    #: Root span of this query's trace tree (a null span when untraced).
    span: Any = None
    #: ``time.perf_counter()`` at submission, for end-to-end latency.
    submitted_at: float = 0.0
    #: When the current round entered the admission queue, if queued.
    queued_at: Optional[float] = None
    #: When the current round parked on another query's intermediate.
    parked_at: Optional[float] = None


def _queue_key(state: _QueryState, classes: int = 0) -> tuple:
    """Admission order: higher effective priority first (the submitted
    priority plus ``classes`` whole aging classes), then cheaper certified
    load, then submission order."""
    return (
        -(state.priority + classes),
        state.pending_work.admission_load,
        state.seq,
    )


class QueryService:
    """Concurrent pipeline serving under certified-load admission control.

    Parameters
    ----------
    capacity:
        Cluster capacity ``q``: the maximum *sum* of certified
        max-reducer-loads allowed in flight at once.  A submission
        containing a round whose certified load (or, uncertified, its
        plan's ``q_budget``) exceeds this is rejected with
        :class:`~repro.exceptions.AdmissionError` — it could never run.
    executor:
        ``None`` or ``"serial"``, the one execution core: every round runs
        inline on its round-body thread.  Any other value, ``"parallel"``
        included, raises :class:`~repro.exceptions.ConfigurationError` —
        the process pool was removed.
    max_workers:
        Round-body threads: the number of rounds that can be *executing*
        simultaneously (admission may admit more; excess waits for a
        thread).  Defaults to 8.
    replan:
        Whether queries adapt mid-flight (re-certify + re-plan); the
        tuner only learns when this is on.
    tuner:
        The adaptive ``replan_factor`` tuner; a default
        :class:`~repro.service.tuning.ReplanTuner` is created when
        omitted.  Each submission snapshots ``tuner.factor`` at submit
        time and every re-plan event feeds back into the tuner.
    spill_threshold:
        Passed through to every pipeline execution (see
        :func:`repro.pipeline.execute.execute_pipeline`).
    observer:
        An :class:`~repro.obs.Observability` bundle (tracer + metrics
        registry).  When given, every query grows a span tree — admission
        wait, planning, round execution (with the engine's per-job and
        per-phase spans nested inside), parked time — and the registry
        collects queue/admission gauges, deferral and reuse counters,
        queued-round starvation maxima by priority, and per-query latency
        histograms.  Submitted plans whose cluster carries no tracer or
        registry of its own inherit the observer's, so engine- and
        pipeline-level telemetry lands in the same trace.  Defaults to
        the shared no-op bundle; the regression suite pins that the
        default is bit-identical to an unobserved service.
    aging_seconds:
        Starvation bound for queued rounds.  Every ``aging_seconds`` a
        round waits for admission raises its *effective* priority by one
        whole class (whole classes only, so sub-threshold waits keep the
        cheapest-first dispatch order unchanged), and once a round has
        aged at least one class, failing to admit it stops backfill
        behind it that dispatch pass — in-flight load then drains until
        the starved round fits.  ``None`` disables aging (the pre-PR-10
        behaviour: strict priority, unbounded starvation).
    """

    def __init__(
        self,
        capacity: float,
        executor: Optional[str] = None,
        max_workers: int = 8,
        replan: bool = True,
        tuner: Optional[ReplanTuner] = None,
        spill_threshold: Optional[int] = None,
        observer: Optional[Observability] = None,
        aging_seconds: Optional[float] = 30.0,
    ) -> None:
        if executor not in (None, "serial"):
            raise ConfigurationError(
                f"executor must be None or 'serial', got {executor!r}: the "
                "process pool was removed and every round runs inline"
            )
        if max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        if aging_seconds is not None and aging_seconds <= 0:
            raise ConfigurationError(
                f"aging_seconds must be positive or None, got {aging_seconds}"
            )
        self.aging_seconds = aging_seconds
        self.observer = observer or NULL_OBSERVABILITY
        self._tracer = self.observer.tracer
        self._metrics = self.observer.metrics
        self._register_instruments()
        self.admission = AdmissionLedger(capacity)
        self.store = IntermediateStore()
        self.tuner = tuner or ReplanTuner()
        self.replan = replan
        self.spill_threshold = spill_threshold
        self._threads = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="query-service"
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        #: Rounds waiting for admission, kept in ``_queue_key`` order on
        #: insert (dispatch re-sorts it only once a round may have aged).
        self._ready: List[_QueryState] = []
        #: Lower bound on every queued round's ``queued_at``, refreshed by
        #: each full sort — what tells dispatch that no round has aged.
        self._oldest_queued = math.inf
        self._running_rounds = 0
        self._parked_rounds = 0
        #: Dispatch passes that found a non-empty queue to walk.
        self._dispatch_passes = 0
        self._overcapacity_rounds = 0
        self._active_queries: Dict[int, _QueryState] = {}
        self._submitted = 0
        self._finished = 0
        self._failed = 0
        self._closed = False
        #: Set (under the lock) just before the round pool shuts down, so
        #: no worker ever submits into a closed pool — it fails the query
        #: instead, keeping every handle completable after
        #: ``close(wait=False)``.
        self._pool_closed = False
        #: Longest admission-queue wait observed so far, per priority
        #: class — the starvation witness surfaced by ``describe()``
        #: (merged there with the live ages of still-queued rounds).
        self._max_queued_wait: Dict[float, float] = {}

    def _register_instruments(self) -> None:
        """Create the service's metric instruments once, up front.

        With a null registry every instrument is the same cached no-op
        object, so the per-event call sites stay allocation-free either
        way.
        """
        metrics = self._metrics
        self._m_queries = metrics.counter(
            "service_queries_total", "Queries completed, by final status"
        )
        self._m_rounds = metrics.counter(
            "service_rounds_total", "Rounds completed, by mode"
        )
        self._m_deferrals = metrics.counter(
            "service_deferrals_total",
            "Dispatch attempts deferred for lack of certified-load capacity",
        )
        self._m_reuse = metrics.counter(
            "service_intermediate_reuse_total",
            "Rounds satisfied from the shared-intermediate store",
        )
        self._m_admission_wait = metrics.histogram(
            "service_admission_wait_seconds",
            "Queued seconds between a round becoming ready and its admission",
        )
        self._m_park_wait = metrics.histogram(
            "service_park_wait_seconds",
            "Seconds a round waited parked on another query's intermediate",
        )
        self._m_query_latency = metrics.histogram(
            "service_query_seconds",
            "End-to-end query latency, by final status",
        )
        self._m_queue_depth = metrics.gauge(
            "service_queue_depth", "Rounds queued for admission"
        )
        self._m_in_flight = metrics.gauge(
            "service_in_flight_load", "Sum of admitted certified loads"
        )
        self._m_parked = metrics.gauge(
            "service_parked_rounds", "Rounds parked on a shared intermediate"
        )
        self._m_max_wait = metrics.gauge(
            "service_max_queued_wait_seconds",
            "Longest admission-queue wait observed so far, by priority",
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        plan: PipelinePlan,
        records: Sequence[Any],
        priority: float = 1.0,
    ) -> QueryHandle:
        """Accept one planned pipeline for execution; returns immediately.

        ``priority`` orders admission among queued rounds: higher runs
        first; within a priority, rounds with smaller certified loads are
        admitted first (they backfill capacity larger rounds cannot use).
        """
        for round_ in plan.rounds:
            load = round_.certified_load
            price = load if load is not None else plan.q_budget
            if price > self.admission.capacity:
                self._note_rejected(plan, priority)
                raise AdmissionError(
                    f"round {round_.index} of {plan.name!r} is priced at "
                    f"certified load {price:g}, above the service capacity "
                    f"q={self.admission.capacity:g}; it can never be admitted"
                )
        with self._lock:
            if self._closed:
                raise AdmissionError("service is closed")
            query_id = next(self._ids)
            state = _QueryState(
                query_id=query_id,
                plan=plan,
                handle=QueryHandle(query_id, plan.name),
                gen=None,
                priority=priority,
                replan_factor=self.tuner.factor,
                seq=next(self._seq),
            )
            self._active_queries[query_id] = state
            self._submitted += 1
        state.handle.replan_factor = state.replan_factor
        state.submitted_at = time.perf_counter()
        state.span = self._tracer.start_span(
            "query", query=query_id, label=plan.name, priority=priority
        )
        logger.debug(
            "query %d (%s) submitted: %d rounds, priority %g",
            query_id, plan.name, len(plan.rounds), priority,
        )
        engine = MapReduceEngine(self._observed_cluster(plan.cluster))
        state.gen = pipeline_rounds(
            plan,
            records,
            engine=engine,
            replan=self.replan,
            replan_factor=state.replan_factor,
            spill_threshold=self.spill_threshold,
            reuse_keys=True,
            replan_observer=self.tuner.observe,
        )
        # Advancing to the first round fingerprints the base records —
        # off the caller's thread so submission stays cheap.
        try:
            self._threads.submit(self._start_query, state)
        except RuntimeError:  # close(wait=False) raced past the check above
            exc = AdmissionError("service is closed")
            self._fail_query(state, exc)
            raise exc
        return state.handle

    def _note_rejected(self, plan: PipelinePlan, priority: float) -> None:
        """Leave an observable footprint for a submit-time rejection.

        Rejected queries never get a :class:`_QueryState`, so without
        this they would be invisible to ``query_phase_rows`` — a
        zero-duration root span with ``status="rejected"`` keeps the
        breakdown's census complete.
        """
        self._m_queries.inc(status="rejected")
        if self.observer is not NULL_OBSERVABILITY:
            self._tracer.record_span(
                "query",
                time.perf_counter(),
                0.0,
                label=plan.name,
                priority=priority,
                status="rejected",
            )

    def _observed_cluster(self, cluster: Any) -> Any:
        """The submitted plan's cluster, inheriting the service's observer.

        A cluster that already carries its own tracer or registry keeps
        it; only the null defaults are replaced, so engine-level telemetry
        of every query lands in the service's trace unless the caller
        explicitly routed it elsewhere.
        """
        if self.observer is NULL_OBSERVABILITY:
            return cluster
        overrides: Dict[str, Any] = {}
        if cluster.tracer is NULL_TRACER and self._tracer is not NULL_TRACER:
            overrides["tracer"] = self._tracer
        if cluster.metrics is NULL_METRICS and self._metrics is not NULL_METRICS:
            overrides["metrics"] = self._metrics
        if not overrides:
            return cluster
        return dataclasses.replace(cluster, **overrides)

    # ------------------------------------------------------------------
    # Round lifecycle (worker threads)
    # ------------------------------------------------------------------
    def _start_query(self, state: _QueryState) -> None:
        try:
            # The first advance fingerprints the base records and builds
            # the first round — planning-side work, traced as such.
            with self._tracer.span(
                "planning", parent=state.span, query=state.query_id
            ):
                work = next(state.gen)
        except StopIteration as stop:  # zero-round plan (defensive)
            self._finish_query(state, stop.value)
            return
        except BaseException as exc:
            self._fail_query(state, exc)
            return
        with self._lock:
            self._offer_locked(state, work)

    def _offer_locked(self, state: _QueryState, work: RoundWork) -> None:
        """Route one ready round: reuse hit, park on producer, or queue.

        Caller holds ``self._lock``.  Every branch ends with a dispatch
        pass: the caller may have just freed capacity (a finished round's
        reservation in ``_advance``, a failed query's queue slot), and a
        reuse hit or park must still hand that capacity to queued rounds.
        """
        state.pending_work = work
        if work.reuse_key is not None:
            verdict, entry = self.store.claim(work.reuse_key, state)
            if verdict == "hit":
                self._running_rounds += 1
                self._spawn_locked(self._adopt_round, state, entry.outcome)
                self._dispatch_locked()
                return
            if verdict == "wait":
                self._parked_rounds += 1
                state.parked_at = time.perf_counter()
                self._dispatch_locked()
                return
            state.producing_key = work.reuse_key
        state.queued_at = time.perf_counter()
        self._enqueue_locked(state)
        self._dispatch_locked()

    def _enqueue_locked(self, state: _QueryState) -> None:
        """Insert a round into the admission queue in ``_queue_key`` order
        (caller holds ``self._lock``)."""
        bisect.insort(self._ready, state, key=_queue_key)
        self._oldest_queued = min(self._oldest_queued, state.queued_at)

    def _dispatch_locked(self) -> None:
        """Admit every queued round that fits, best-priced first.

        Queued waits age a round's *effective* priority by one whole
        class per ``aging_seconds`` (see the constructor), and a round
        that has aged at least one class acts as a barrier when it cannot
        fit: no round sorted behind it is admitted this pass, so the
        in-flight load drains until the starved round runs.  Together the
        two bound every round's wait by roughly the priority spread times
        ``aging_seconds`` plus one drain.

        Headroom only shrinks inside a pass, so a round at least as
        expensive as one the ledger already refused this pass cannot fit
        either and is passed over without asking (an aged one still raises
        the barrier).  The queue is walked cheapest-first within a
        priority class, so in effect the first refusal ends its class and
        the walk resumes at the cheaper rounds of the next.  Same admitted
        set as trying every round; the ledger's ``deferrals`` counts the
        reservations actually attempted and refused.

        Insertion keeps the queue in ``_queue_key`` order, which is the
        effective-priority order as long as no queued round has aged a
        class, so the pass re-sorts only once the oldest queued round may
        have (``_oldest_queued``, refreshed by each re-sort): the same
        order, so the same admissions, as sorting on every pass.
        """
        if not self._ready:
            return
        self._dispatch_passes += 1
        aging = self.aging_seconds
        now = time.perf_counter() if aging is not None else 0.0
        if aging is not None and (now - self._oldest_queued) / aging >= 1.0:
            # Whole classes only: sub-threshold waits must not perturb the
            # cheapest-certified-load-first order within a class.
            self._ready.sort(
                key=lambda s: _queue_key(s, int((now - s.queued_at) / aging))
            )
            self._oldest_queued = min(s.queued_at for s in self._ready)
        admitted: List[_QueryState] = []
        refused = math.inf  # smallest load the ledger refused this pass
        for state in self._ready:
            load = state.pending_work.admission_load
            clamped = False
            if load <= 0:
                # Degenerate certificate (empty inputs certify to zero):
                # admit at a nominal price so the ledger stays strict.
                load = 1e-9
            if load > self.admission.capacity:
                # A mid-run re-certification exceeded capacity (possible
                # only with non-exact profiles).  Clamp so the round runs
                # alone rather than deadlocking; the counter records that
                # the invariant was capacity-limited, not load-limited.
                load = self.admission.capacity
                clamped = True
            if load < refused:
                if self.admission.try_reserve(load):
                    state.reserved_load = load
                    if clamped:
                        # Count once, when the clamped round is actually
                        # admitted — not on every dispatch pass it waits out.
                        self._overcapacity_rounds += 1
                    admitted.append(state)
                    continue
                self._m_deferrals.inc()
                refused = load
            if (
                aging is not None
                and state.queued_at is not None
                and now - state.queued_at >= aging
            ):
                # Starvation barrier: stop backfilling behind an aged
                # round so released capacity reaches it next pass.
                break
        # Unqueue every admitted round before spawning any: a spawn
        # failure fails the query, whose cleanup re-enters dispatch and
        # must not re-admit rounds this pass already holds reservations
        # for.
        for state in admitted:
            self._ready.remove(state)
            self._note_admitted_locked(state)
        for state in admitted:
            self._running_rounds += 1
            self._spawn_locked(self._run_round, state)
        if self._metrics.enabled:
            self._m_queue_depth.set(float(len(self._ready)))
            self._m_in_flight.set(self.admission.stats().in_flight)
            self._m_parked.set(float(self._parked_rounds))

    def _note_admitted_locked(self, state: _QueryState) -> None:
        """Record how long the admitted round waited in the queue."""
        if state.queued_at is None:
            return
        waited = time.perf_counter() - state.queued_at
        priority = state.priority
        if waited > self._max_queued_wait.get(priority, 0.0):
            self._max_queued_wait[priority] = waited
            self._m_max_wait.set(waited, priority=f"{priority:g}")
        if self.observer is not NULL_OBSERVABILITY:
            self._tracer.record_span(
                "admission-wait",
                state.queued_at,
                waited,
                parent=state.span,
                query=state.query_id,
                priority=priority,
            )
            self._m_admission_wait.observe(waited)
        state.queued_at = None

    def _unpark_locked(self, state: _QueryState) -> None:
        """Record how long the round sat parked on a shared intermediate."""
        if state.parked_at is None:
            return
        waited = time.perf_counter() - state.parked_at
        if self.observer is not NULL_OBSERVABILITY:
            self._tracer.record_span(
                "parked",
                state.parked_at,
                waited,
                parent=state.span,
                query=state.query_id,
            )
            self._m_park_wait.observe(waited)
        state.parked_at = None

    def _spawn_locked(self, fn, state: _QueryState, *args: Any) -> None:
        """Hand one round task to the pool, or fail its query (lock held).

        The caller has already accounted the round as running (and
        possibly reserved admission load).  When the pool is gone —
        ``close(wait=False)`` — the accounting is rolled back and the
        query fails with :class:`AdmissionError`, so its handle always
        completes instead of hanging on a silently dropped submission.
        """
        if not self._pool_closed:
            try:
                self._threads.submit(fn, state, *args)
                return
            except RuntimeError:
                pass  # shutdown raced the flag; fall through to fail
        self._release_locked(state)
        self._fail_query_locked(
            state,
            AdmissionError(
                f"service closed before query {state.query_id} "
                f"({state.handle.label}) finished"
            ),
        )

    def _run_round(self, state: _QueryState) -> None:
        """Execute one admitted round end to end (worker thread)."""
        work = state.pending_work
        try:
            # The engine's per-job (and per-phase) spans nest under this
            # one via the worker thread's span stack.
            with self._tracer.span(
                "round-execute",
                parent=state.span,
                query=state.query_id,
                round=work.index,
                plan=work.plan_name,
            ):
                outcome = work.execute()
        except BaseException as exc:
            with self._lock:
                self._release_locked(state)
                self._fail_query_locked(state, exc)
            return
        state.rounds_executed += 1
        self._m_rounds.inc(mode="executed")
        self._advance(state, outcome)

    def _adopt_round(self, state: _QueryState, producer_outcome: RoundOutcome) -> None:
        """Feed a shared intermediate to a consumer round (worker thread)."""
        outcome = RoundOutcome(
            job=producer_outcome.job,
            rows=producer_outcome.rows,
            profile=producer_outcome.profile,
            reused=True,
        )
        state.rounds_reused += 1
        self._m_rounds.inc(mode="reused")
        self._m_reuse.inc()
        self._advance(state, outcome)

    def _advance(self, state: _QueryState, outcome: RoundOutcome) -> None:
        """Send the outcome into the coroutine and schedule what follows.

        The ``send`` fills ``outcome.rows`` and, unless the round was the
        query's last, ``outcome.profile`` (profiled in-stream) — which is
        exactly what the store shares with parked consumers, so fulfilment
        happens *after* the send and before the next round is offered.
        """
        next_work: Optional[RoundWork] = None
        result: Optional[PipelineRunResult] = None
        try:
            # The send profiles the round's rows in-stream, re-certifies
            # the next round and possibly re-plans it — planning-side
            # work between rounds, traced as such.
            with self._tracer.span(
                "planning", parent=state.span, query=state.query_id
            ):
                next_work = state.gen.send(outcome)
        except StopIteration as stop:
            result = stop.value
        except BaseException as exc:
            with self._lock:
                self._release_locked(state)
                self._fail_query_locked(state, exc)
            return
        with self._lock:
            self._release_locked(state)
            if state.producing_key is not None:
                waiters = self.store.fulfill(state.producing_key, outcome)
                state.producing_key = None
                for waiter in waiters:
                    self._parked_rounds -= 1
                    self._running_rounds += 1
                    self._unpark_locked(waiter)
                    self._spawn_locked(self._adopt_round, waiter, outcome)
            if next_work is not None:
                # _offer_locked always ends with a dispatch pass, so the
                # reservation released above is redistributed even when
                # this query's next round parks or adopts a reuse hit.
                self._offer_locked(state, next_work)
            else:
                self._dispatch_locked()
        if result is not None:
            self._finish_query(state, result)

    def _release_locked(self, state: _QueryState) -> None:
        """Return the round's reservation and running slot (lock held)."""
        self._running_rounds -= 1
        if state.reserved_load is not None:
            self.admission.release(state.reserved_load)
            state.reserved_load = None

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def _finish_query(self, state: _QueryState, result: PipelineRunResult) -> None:
        with self._lock:
            self._active_queries.pop(state.query_id, None)
            self._finished += 1
            self._idle.notify_all()
        self._settle_observation(state, "ok")
        logger.debug(
            "query %d (%s) finished: %d rounds executed, %d reused",
            state.query_id,
            state.handle.label,
            state.rounds_executed,
            state.rounds_reused,
        )
        state.handle._finish(result)

    def _settle_observation(self, state: _QueryState, status: str) -> None:
        """Close the query's root span and record its latency (idempotent
        through the callers' own once-only guarantees)."""
        if state.span is not None:
            state.span.set(
                status=status,
                rounds_executed=state.rounds_executed,
                rounds_reused=state.rounds_reused,
            )
            state.span.finish()
        self._m_queries.inc(status=status)
        if state.submitted_at:
            self._m_query_latency.observe(
                time.perf_counter() - state.submitted_at, status=status
            )

    def _fail_query(self, state: _QueryState, exc: BaseException) -> None:
        with self._lock:
            self._fail_query_locked(state, exc)

    def _fail_query_locked(self, state: _QueryState, exc: BaseException) -> None:
        """Fail one query and reroute whatever depended on it (lock held).

        Idempotent: a query already finished or failed (e.g. once via a
        closed-pool spawn and again via ``close``'s queue sweep) is left
        alone, so counters never double-count and handles settle once.
        """
        if self._active_queries.pop(state.query_id, None) is None:
            return
        # Run the coroutine's ``finally`` now, so no spilled intermediate
        # outlives the query (the stored exception's traceback would keep
        # the generator alive for as long as the caller holds the handle).
        # The generator is never executing here.  ``_start_query`` and
        # ``_advance`` fail a query after its ``next``/``send`` raised, so
        # the generator has finished.  Every other caller fails a query
        # with no step in flight: ``_run_round`` (the round ran outside
        # the generator), a closed-pool spawn and ``close``'s queue sweep
        # (suspended at a yield), and submit's race with ``close`` (never
        # started).
        state.gen.close()
        if state.producing_key is not None:
            # Waiters were counting on this materialization; requeue
            # them — the first re-offered claims the key afresh and
            # becomes the new producer.
            waiters = self.store.fail(state.producing_key)
            state.producing_key = None
            for waiter in waiters:
                self._parked_rounds -= 1
                self._unpark_locked(waiter)
                self._offer_locked(waiter, waiter.pending_work)
        self._ready = [s for s in self._ready if s is not state]
        self._failed += 1
        self._settle_observation(state, "failed")
        logger.warning(
            "query %d (%s) failed: %s",
            state.query_id,
            state.handle.label,
            exc,
        )
        self._dispatch_locked()
        self._idle.notify_all()
        state.handle._fail(exc)

    # ------------------------------------------------------------------
    # Observability & lifecycle
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Point-in-time snapshot of the whole service, for dashboards/tests.

        One nested dict: query counts, round states, the admission
        ledger's capacity accounting (including the run-long peak that
        witnesses the invariant), shared-intermediate counters, the
        re-plan tuner and the planner's schema cache.
        """
        # The whole snapshot is taken under the scheduler lock so the
        # sections are mutually consistent — in particular the store's
        # counters are only ever mutated under this lock, so reading them
        # outside it could disagree with the queries/rounds numbers.
        # (The ledger/tuner/cache locks below are leaf locks:
        # none of them ever acquires the scheduler lock.)
        with self._lock:
            snapshot = {
                "queries": {
                    "submitted": self._submitted,
                    "active": len(self._active_queries),
                    "finished": self._finished,
                    "failed": self._failed,
                },
                "rounds": {
                    "queued": len(self._ready),
                    "parked": self._parked_rounds,
                    "running": self._running_rounds,
                    "overcapacity_clamped": self._overcapacity_rounds,
                    # Starvation witness: the longest any round of each
                    # priority class has waited for admission — finished
                    # waits and the live ages of still-queued rounds
                    # merged, so a currently starving round is visible
                    # before it ever runs.
                    "max_queued_wait_by_priority": self._queued_waits_locked(),
                },
                "intermediates": self.store.stats().__dict__.copy(),
                "tuner": self.tuner.stats().__dict__.copy(),
                "schema_cache": default_schema_cache.stats().__dict__.copy(),
            }
            admission = self.admission.stats()
            snapshot["admission"] = {
                "capacity": admission.capacity,
                "in_flight_load": admission.in_flight,
                "peak_in_flight_load": admission.peak_in_flight,
                "headroom": admission.headroom,
                "admitted": admission.admitted,
                # Reservations the ledger refused.  A dispatch pass asks
                # only about rounds cheaper than every one it was already
                # refused, so these grow with the passes (at most one per
                # priority class each), not with passes x queue depth.
                "deferrals": admission.deferrals,
                "attempts": admission.admitted + admission.deferrals,
                "dispatch_passes": self._dispatch_passes,
            }
        return snapshot

    def _queued_waits_locked(self) -> Dict[str, float]:
        """Max admission wait per priority class, live queue included."""
        waits = dict(self._max_queued_wait)
        now = time.perf_counter()
        for state in self._ready:
            if state.queued_at is not None:
                age = now - state.queued_at
                if age > waits.get(state.priority, 0.0):
                    waits[state.priority] = age
        return {
            f"{priority:g}": wait for priority, wait in sorted(waits.items())
        }

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted query has finished or failed."""
        with self._idle:
            if not self._idle.wait_for(
                lambda: not self._active_queries, timeout
            ):
                raise TimeoutError(
                    f"{len(self._active_queries)} queries still active "
                    f"after {timeout}s"
                )

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain, and release the round threads.

        With ``wait=False`` the service does not drain: rounds already
        handed to the pool still run to completion, but nothing new is
        scheduled — every query that still needed a future round fails
        with :class:`~repro.exceptions.AdmissionError` (queued rounds
        immediately below; parked and mid-run rounds when their next
        spawn hits the closed pool), so handles always complete.
        """
        with self._lock:
            self._closed = True
        logger.info(
            "service closing (wait=%s): %d submitted, %d finished, %d failed",
            wait, self._submitted, self._finished, self._failed,
        )
        if wait:
            self.drain()
        with self._lock:
            self._pool_closed = True
            for state in list(self._ready):
                self._fail_query_locked(
                    state,
                    AdmissionError(
                        f"service closed before query {state.query_id} "
                        f"({state.handle.label}) was scheduled"
                    ),
                )
        self._threads.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()
