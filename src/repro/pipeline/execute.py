"""Adaptive execution of pipeline plans: run, observe, re-plan, continue.

Executing a cascade exposes information planning never had: the *actual*
intermediate result.  This module runs a :class:`~repro.pipeline.planner.
PipelinePlan` round by round on the engine, profiles every intermediate
but the final round's **in-stream** (rows are observed as they are
collected for the next round, via :class:`~repro.stats.profile.
StreamingRelationProfiler` — no second pass over the data; the final
round's rows feed no later round, so nothing reads a profile of them), and
before each downstream round re-certifies its chosen schema under the
observed profile.  The certificate lookup is
keyed by the observed profile's content fingerprint through the shared
schema cache, so repeated executions of the same data re-use it.

Re-planning triggers when the observed certificate

* **beats** the planning-time estimate by more than ``replan_factor``
  (the synthetic profile was conservative — a cheaper or better-balanced
  schema may now fit), or
* **violates** it (only possible when planning ran without exact
  histograms, e.g. sampled base profiles — the estimate was an
  expectation, not a bound).

The remaining round is then re-planned from scratch against the observed
profile — once per plan object and observed profile: the verdict is kept
in the plan's re-plan memo, so further executions of the same plan on the
same data (the service runs many copies of one template) look it up
instead of planning again.  Every execution's re-plan is still recorded
as its own :class:`ReplanEvent`, so reports and the acceptance benchmark
can show what mid-flight adaptation bought.

Execution is expressed as a *round coroutine* (:func:`pipeline_rounds`):
the generator yields each round as a :class:`RoundWork` item before it
runs and receives its :class:`RoundOutcome` back via ``send``.
:func:`execute_pipeline` drives it serially (:func:`drive_rounds`) and
behaves exactly as before; the query service drives many such coroutines
at once, interleaving their rounds on one shared worker pool, pricing
each admission by ``RoundWork.admission_load`` (the round's certified
max-reducer-load) and — via ``reuse_key`` fingerprints — feeding one
materialized intermediate to every pipeline that needs it.
"""

from __future__ import annotations

import hashlib
import io
import logging
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ConfigurationError, PlanningError
from repro.mapreduce.columnar import SpilledRows
from repro.mapreduce.engine import JobResult, MapReduceEngine, PipelineResult
from repro.mapreduce.metrics import PipelineMetrics
from repro.mapreduce.partitioner import stable_hash
from repro.pipeline.logical import BinaryJoinOp, RelationLeaf
from repro.pipeline.planner import PipelinePlan, PipelineRound, replan_round
from repro.planner.cache import default_schema_cache
from repro.planner.certify import Certification, certify_max_reducer_load
from repro.stats.profile import (
    DatasetProfile,
    RelationProfile,
    StreamingRelationProfiler,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReplanEvent:
    """One mid-flight re-planning decision, for reports and assertions.

    ``observed_bound`` is the *old* plan's certificate under the observed
    intermediate profile; ``new_bound`` the replacement plan's certificate.
    Comparing the two says whether re-planning paid off (:attr:`won`) —
    the feedback signal the service's adaptive ``replan_factor`` tuner
    aggregates across queries.  A re-plan that found no feasible
    replacement is recorded with ``new_plan == old_plan`` and
    ``new_bound == observed_bound`` — certified no better, a loss.
    """

    round_index: int
    node: str
    reason: str  # "certificate-improved" | "certificate-violated"
    estimated_bound: float
    observed_bound: float
    old_plan: str
    new_plan: str
    #: Certificate of the re-planned round; ``None`` only when the planner
    #: handed back a round whose plan carries no certification.
    new_bound: Optional[float] = None

    @property
    def won(self) -> bool:
        """Whether the re-plan found a strictly better certificate."""
        return self.new_bound is not None and self.new_bound < self.observed_bound

    def describe(self) -> dict:
        return {
            "round": self.round_index,
            "node": self.node,
            "reason": self.reason,
            "estimated_bound": self.estimated_bound,
            "observed_bound": self.observed_bound,
            "old_plan": self.old_plan,
            "new_plan": self.new_plan,
            "new_bound": self.new_bound,
            "won": self.won,
        }


@dataclass(frozen=True)
class ExecutedRound:
    """What one round planned vs what it did."""

    index: int
    op_label: str
    plan_name: str
    certification: Optional[Certification]
    estimated_inputs: float
    observed_inputs: int
    estimated_output: float
    observed_output: int
    observed_max_load: int
    replanned: bool
    #: True when the round's result came from another pipeline's identical
    #: round via the service's shared-intermediate store (nothing executed
    #: for this query; the observed metrics are the producer's).
    reused: bool = False
    #: Which size-bound estimator priced the round at planning time.
    estimate_method: str = ""
    #: What admission control charged to run the round (the service's
    #: ledger price; equals the certificate bound when one exists).
    admission_price: Optional[float] = None
    #: Wall-clock of the round's engine execution (0.0 for reused rounds
    #: and for the trailing jobs of a multi-job chain, whose first job
    #: carries the chain's full time).
    seconds: float = 0.0

    @property
    def certified_load(self) -> Optional[float]:
        return self.certification.bound if self.certification is not None else None


@dataclass
class PipelineRunResult:
    """The outcome of one adaptive pipeline execution.

    ``result`` is the engine-level :class:`PipelineResult` (outputs in the
    original query's attribute order, per-round metrics, certified loads);
    ``executed`` pairs each round's estimates with its observations;
    ``replan_events`` records every mid-flight adaptation.
    """

    plan: PipelinePlan
    result: PipelineResult
    executed: List[ExecutedRound] = field(default_factory=list)
    replan_events: List[ReplanEvent] = field(default_factory=list)

    @property
    def outputs(self) -> List[Any]:
        return self.result.outputs

    @property
    def replan_count(self) -> int:
        return len(self.replan_events)

    @property
    def total_communication(self) -> int:
        return self.result.total_communication

    @property
    def max_observed_load(self) -> int:
        return self.result.max_reducer_load

    @property
    def max_certified_load(self) -> Optional[float]:
        return self.result.max_certified_load

    def certificates_hold(self) -> bool:
        """Whether every round's certificate covers its observed load."""
        return all(
            round_.certification is None
            or round_.observed_max_load <= round_.certification.bound
            for round_ in self.executed
        )

    def frontier(self) -> List[dict]:
        """Per-round table: predicted vs observed, certificates, re-plans.

        ``method`` is the size-bound estimator that priced the round (the
        certificate's method when the round carries no estimate), ``kind``
        the certificate's kind, ``admission_price`` what admission control
        charged and ``seconds`` the round's engine wall-clock.  The
        ``est_*`` columns are the planner's calibrated estimates, not
        bounds; ``certified_load`` is the bound.
        """
        rows: List[dict] = []
        for executed, result in zip(self.executed, self.result.round_results):
            certification = executed.certification
            rows.append(
                {
                    "round": executed.index,
                    "op": executed.op_label,
                    "plan": executed.plan_name,
                    "method": executed.estimate_method
                    or (certification.method if certification is not None else ""),
                    "kind": certification.kind.value if certification is not None else "",
                    "certified_load": executed.certified_load,
                    "observed_max_load": executed.observed_max_load,
                    "admission_price": executed.admission_price,
                    "est_rows_in": executed.estimated_inputs,
                    "rows_in": executed.observed_inputs,
                    "est_rows_out": executed.estimated_output,
                    "rows_out": executed.observed_output,
                    "communication": result.communication_cost,
                    "replanned": executed.replanned,
                    "reused": executed.reused,
                    "seconds": executed.seconds,
                }
            )
        return rows


# ----------------------------------------------------------------------
# The round protocol: yield work, receive outcomes
# ----------------------------------------------------------------------
@dataclass
class RoundOutcome:
    """What one scheduled round produced.

    ``job`` is the engine result (a :class:`JobResult`, or the chain's
    :class:`PipelineResult` for a two-phase matmul round).  For cascade
    rounds the coroutine fills ``rows`` (the materialized intermediate) and
    ``profile`` (its in-stream observation; ``None`` for the cascade's
    final round, whose rows feed no later round) after receiving the
    outcome, so a driver sharing intermediates across pipelines can hand
    both to other consumers without re-materializing or re-profiling.  A
    driver feeding a cached intermediate back sets ``reused=True`` with
    ``job`` and ``rows`` populated; the coroutine then skips
    execution-side work entirely, except that a round that feeds a later
    one profiles shared rows that arrive without a profile.
    """

    job: Any
    rows: Optional[List[Any]] = None
    profile: Optional[RelationProfile] = None
    reused: bool = False
    #: Wall-clock seconds the round's runner took (0.0 when reused).
    seconds: float = 0.0


@dataclass
class RoundWork:
    """One schedulable round of a pipeline execution.

    Yielded by :func:`pipeline_rounds` before the round runs.  The driver
    either calls :meth:`execute` (running the round on the coroutine's
    engine in the calling thread) and sends the outcome back, or — when
    ``reuse_key`` matches an intermediate another pipeline already
    materialized — sends that shared :class:`RoundOutcome` back instead.

    ``admission_load`` is what admission control charges for running this
    round: the freshest certified max-reducer-load when the round carries a
    certificate (re-certified against observed intermediates where
    available), else the plan's reducer budget ``q`` — the bound the
    planner's feasibility filter enforced.
    """

    index: int
    label: str
    plan_name: str
    certification: Optional[Certification]
    admission_load: float
    reuse_key: Optional[Tuple[Hashable, ...]]
    _runner: Callable[[], Any]

    @property
    def certified_load(self) -> Optional[float]:
        return self.certification.bound if self.certification is not None else None

    def execute(self) -> RoundOutcome:
        """Run the round now, in the calling thread, and wrap its result."""
        started = time.perf_counter()
        job = self._runner()
        return RoundOutcome(job=job, seconds=time.perf_counter() - started)


#: The coroutine type: yields RoundWork, receives RoundOutcome via
#: ``send``, returns the finished PipelineRunResult in StopIteration.
RoundGenerator = Generator[RoundWork, RoundOutcome, PipelineRunResult]


def drive_rounds(rounds: RoundGenerator) -> PipelineRunResult:
    """Serial driver: execute every yielded round in the calling thread."""
    try:
        work = next(rounds)
        while True:
            work = rounds.send(work.execute())
    except StopIteration as stop:
        return stop.value
    finally:
        rounds.close()  # a failed round must still release the coroutine's spills


def pipeline_rounds(
    plan: PipelinePlan,
    records: Sequence[Any],
    engine: Optional[MapReduceEngine] = None,
    replan: bool = True,
    replan_factor: float = 0.5,
    spill_threshold: Optional[int] = None,
    reuse_keys: bool = False,
    replan_observer: Optional[Callable[[ReplanEvent], None]] = None,
) -> RoundGenerator:
    """The round-level coroutine behind :func:`execute_pipeline`.

    Yields one :class:`RoundWork` per engine round *before* it runs and
    receives its :class:`RoundOutcome` via ``send``, so a driver other than
    the serial one can interleave rounds of many pipelines on a shared
    worker pool — the query service's scheduler does exactly that.  All
    adaptive behaviour (in-stream profiling, re-certification, mid-flight
    re-planning) lives here, identically for every driver.

    ``reuse_keys=True`` additionally stamps each cascade round with a
    content fingerprint of its join sub-tree (structure, base-relation
    records, chosen physical plan), letting a driver recognise that two
    pipelines are about to materialize the same intermediate.  The serial
    driver never uses the keys, so the fingerprinting cost is opt-in.
    """
    engine = engine or MapReduceEngine(plan.cluster)
    if not isinstance(plan.op, BinaryJoinOp):
        return _single_rounds(plan, records, engine)
    return _cascade_rounds(
        plan,
        records,
        engine,
        replan,
        replan_factor,
        spill_threshold,
        reuse_keys,
        replan_observer,
    )


def execute_pipeline(
    plan: PipelinePlan,
    records: Sequence[Any],
    engine: Optional[MapReduceEngine] = None,
    replan: bool = True,
    replan_factor: float = 0.5,
    spill_threshold: Optional[int] = None,
    replan_observer: Optional[Callable[[ReplanEvent], None]] = None,
) -> PipelineRunResult:
    """Run a pipeline plan, adapting the remaining rounds as data arrives.

    Parameters
    ----------
    plan:
        The planned round structure (usually ``result.best``).
    records:
        Input records — for joins, ``(relation name, tuple)`` pairs as
        produced by :meth:`SharesSchema.input_records`.
    engine:
        Engine to run on; one with the plan's cluster is built if omitted.
    replan:
        Disable to execute the planned rounds verbatim (no adaptation).
    replan_factor:
        A downstream round is re-planned when its observed-profile
        certificate drops below ``replan_factor`` times the planning-time
        certificate (or exceeds it, which only non-exact planning allows).
    spill_threshold:
        When set, any intermediate of at least this many rows is spilled
        to disk as one packed int64 column block
        (:class:`~repro.mapreduce.columnar.SpilledRows`) instead of staying
        resident as Python tuples; downstream rounds re-materialize it
        lazily and bit-identically.  ``None`` (the default) keeps every
        intermediate in memory.  Intermediates outside the packed layout
        (ragged or non-integer rows) stay in memory regardless.
    replan_observer:
        Optional callback invoked with each :class:`ReplanEvent` as it
        happens — the hook the service's adaptive ``replan_factor`` tuner
        listens on.
    """
    return drive_rounds(
        pipeline_rounds(
            plan,
            records,
            engine=engine,
            replan=replan,
            replan_factor=replan_factor,
            spill_threshold=spill_threshold,
            replan_observer=replan_observer,
        )
    )


# ----------------------------------------------------------------------
# Single-structure execution (one-round joins, matmul chains, aggregates)
# ----------------------------------------------------------------------
def _single_rounds(
    plan: PipelinePlan, records: Sequence[Any], engine: MapReduceEngine
) -> RoundGenerator:
    round_ = plan.rounds[0]
    work = RoundWork(
        index=0,
        label=plan.op.label(),
        plan_name=round_.name,
        certification=round_.certification,
        admission_load=(
            round_.certified_load
            if round_.certified_load is not None
            else plan.q_budget
        ),
        reuse_key=None,
        _runner=lambda: round_.plan.execute(records, engine=engine),
    )
    received = yield work
    outcome = received.job
    if isinstance(outcome, JobResult):
        job_results = [outcome]
        outputs = outcome.outputs
    else:  # a JobChain execution (two-phase matmul) already returns a pipeline
        job_results = outcome.round_results
        outputs = outcome.outputs
    bound = round_.certified_load
    certified = tuple(bound for _ in job_results) if bound is not None else None
    result = PipelineResult(
        outputs=outputs,
        metrics=PipelineMetrics(
            chain_name=plan.name,
            rounds=[job.metrics for job in job_results],
        ),
        round_results=job_results,
        round_certified_loads=certified,
    )
    executed = [
        ExecutedRound(
            index=index,
            op_label=plan.op.label(),
            plan_name=round_.name,
            certification=round_.certification,
            estimated_inputs=round_.estimated_inputs,
            observed_inputs=job.metrics.shuffle.num_inputs,
            estimated_output=round_.estimated_output,
            observed_output=len(job.outputs),
            observed_max_load=job.metrics.shuffle.max_reducer_size,
            replanned=False,
            reused=received.reused,
            estimate_method=round_.estimate_method,
            admission_price=work.admission_load,
            seconds=received.seconds if index == 0 else 0.0,
        )
        for index, job in enumerate(job_results)
    ]
    return PipelineRunResult(plan=plan, result=result, executed=executed)


# ----------------------------------------------------------------------
# Cascade execution with mid-flight re-planning
# ----------------------------------------------------------------------
def _base_records_by_relation(
    plan: PipelinePlan, records: Sequence[Any]
) -> Dict[str, List[Any]]:
    by_name: Dict[str, List[Any]] = {
        relation.name: [] for relation in plan.problem.query.relations
    }
    for record in records:
        name = record[0]
        if name not in by_name:
            # A malformed input is a caller configuration mistake — nothing
            # has executed yet (same taxonomy as run_chain's checks).
            raise ConfigurationError(
                f"input record names relation {name!r}, which is not part of "
                f"query {plan.problem.query.name!r}"
            )
        by_name[name].append(record)
    return by_name


def _child_profile(
    plan: PipelinePlan,
    child,
    observed: Dict[str, RelationProfile],
) -> Optional[RelationProfile]:
    """The freshest profile of a round input: observed, else planning-time.

    Intermediates always come from the in-stream observation (exact).
    Base relations reuse the planning profile — sampled ones included:
    the certifier then produces a high-probability bound, which is still
    an honest certificate to compare the planning estimate against.
    """
    if isinstance(child, RelationLeaf):
        if plan.profile is None:
            return None
        name = child.relation.name
        if name not in plan.profile.relations:
            return None
        return plan.profile.relation(name)
    return observed.get(child.schema.name)


def _fingerprinted_certification(
    round_: PipelineRound, observed_profile: DatasetProfile
) -> Certification:
    """Certify the round's schema under the observed profile, cache-keyed.

    The key is the schema name plus the observed profile's content
    fingerprint, so re-running the same pipeline on the same data hits the
    cache instead of re-bucketing the histograms.
    """
    family = round_.plan.family
    return default_schema_cache.get(
        ("pipeline-recert", family.name, observed_profile.fingerprint()),
        lambda: certify_max_reducer_load(family, observed_profile),
    )


def _replan_once(
    plan: PipelinePlan,
    index: int,
    round_: PipelineRound,
    observed_profile: DatasetProfile,
) -> Optional[PipelineRound]:
    """The plan's verdict on re-planning round ``index``: a round, or ``None``.

    A re-plan is a pure function of (round, budget, observed profile), so
    the plan decides each one once and remembers it in its re-plan memo;
    the caller still records an event of its own for every execution.
    ``None`` means nothing fits the budget on the observed data: the
    original (still sound) plan keeps running, and the caller records that
    — with the old plan's name and observed bound, i.e. certified no better
    — so it is a scorable loss for the adaptive ``replan_factor`` tuner.
    """
    memo = plan._replan_memo
    key = (index, observed_profile.fingerprint())
    if key not in memo:
        try:
            verdict: Optional[PipelineRound] = replan_round(
                round_, plan, observed_profile
            )
        except PlanningError:
            verdict = None
        # Executions racing the first occurrence each plan; ``setdefault``
        # (atomic, no lock) makes them all run the first verdict stored.
        memo.setdefault(key, verdict)
    return memo[key]


def _base_fingerprints(base_records: Dict[str, List[Any]]) -> Dict[str, int]:
    """Content fingerprint per base relation's record list (order included).

    Row order matters: the engine's outputs are deterministic *given* the
    input record order, so two sub-trees only produce bit-identical
    intermediates when their base records arrive identically.

    The digest is blake2b over the records' pickle, written with the
    pickler's memo off (``fast``): no back-references, so equal content
    gives equal bytes whatever the object identities.  Every value is
    written under its own type, so the digest is type-exact like ``repr``
    (``1``, ``1.0`` and ``True`` differ; numpy scalars, namedtuples and enum
    members name their class).  Records pickle cannot write (instances of
    local classes, locks, cycles) take the ``repr`` digest instead.
    """
    fingerprints = {}
    for name, rows in base_records.items():
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=5)
        pickler.fast = True
        try:
            pickler.dump(rows)
        except Exception:  # whatever pickle cannot write
            fingerprints[name] = stable_hash((name, tuple(rows)))
            continue
        digest = hashlib.blake2b(buffer.getbuffer(), digest_size=8).digest()
        fingerprints[name] = int.from_bytes(digest, "big")
    return fingerprints


def _plan_token(round_: PipelineRound) -> Tuple:
    """Physical-plan identity of one round: name plus shares vector.

    Different shares vectors spread tuples over different reducer grids,
    which permutes the emitted row order — so the plan identity is part of
    what makes an intermediate bit-reproducible.
    """
    family = round_.plan.family
    shares = getattr(family, "shares", None)
    shares_token = (
        tuple(sorted(shares.items())) if isinstance(shares, dict) else None
    )
    return (round_.name, shares_token)


def _leaf_token(leaf: RelationLeaf, fingerprints: Dict[str, int]) -> Tuple:
    """Canonical token of one base relation: schema + record content."""
    return (
        "rel",
        leaf.relation.name,
        leaf.relation.attributes,
        fingerprints[leaf.relation.name],
    )


def _round_inputs(
    op: BinaryJoinOp,
    base_records: Dict[str, List[Any]],
    node_outputs: Dict[str, Any],
) -> List[Any]:
    """One round's input records: base relations verbatim, intermediates
    as ``(name, row)`` pairs from the earlier rounds' materialized outputs."""
    input_records: List[Any] = []
    for child in (op.left, op.right):
        if isinstance(child, RelationLeaf):
            input_records.extend(base_records[child.relation.name])
        else:
            name = child.schema.name
            input_records.extend((name, row) for row in node_outputs[name])
    return input_records


def _profile_rows(
    tracer,
    op: BinaryJoinOp,
    index: int,
    rows: Iterable[Any],
    into: Optional[List[Any]] = None,
) -> RelationProfile:
    """Profile a round's rows in-stream, appending them to ``into`` when
    the caller collects them — one pass, no second copy."""
    with tracer.span("profile-intermediate", node=op.schema.name, round=index):
        profiler = StreamingRelationProfiler(op.schema.name, op.schema.attributes)
        if into is None:
            for row in rows:
                profiler.observe(row)
        else:
            into.extend(profiler.wrap(rows))
        return profiler.finish()


def _cascade_rounds(
    plan: PipelinePlan,
    records: Sequence[Any],
    engine: MapReduceEngine,
    replan: bool,
    replan_factor: float,
    spill_threshold: Optional[int],
    reuse_keys: bool,
    replan_observer: Optional[Callable[[ReplanEvent], None]],
) -> RoundGenerator:
    base_records = _base_records_by_relation(plan, records)
    fingerprints = _base_fingerprints(base_records) if reuse_keys else None
    tracer = engine.config.tracer
    registry = engine.config.metrics
    #: Lineage token per materialized node: leaf content plus the physical
    #: plan of every round that fed it.  Two rounds share an intermediate
    #: only when these tokens match — same structure, same base records,
    #: same plan choices all the way down — which is exactly when the rows
    #: are bit-identical (the engine is deterministic given input order).
    node_tokens: Dict[str, Tuple] = {}
    node_outputs: Dict[str, Any] = {}
    spilled_blocks: List[SpilledRows] = []
    observed_profiles: Dict[str, RelationProfile] = {}
    rounds = list(plan.rounds)
    job_results: List[JobResult] = []
    executed: List[ExecutedRound] = []
    events: List[ReplanEvent] = []
    certified_loads: List[Optional[float]] = []
    try:
        for index, round_ in enumerate(rounds):
            op = round_.op
            assert isinstance(op, BinaryJoinOp)
            final_certification = round_.certification
            replanned = False
            consumes_intermediate = any(
                not isinstance(child, RelationLeaf) for child in (op.left, op.right)
            )
            if consumes_intermediate:
                # Assemble the freshest profile of this round's actual inputs.
                relations = {}
                for child in (op.left, op.right):
                    child_profile = _child_profile(plan, child, observed_profiles)
                    if child_profile is not None:
                        relations[child.schema.name] = child_profile
                if len(relations) == 2:
                    observed_profile = DatasetProfile(relations=relations)
                    with tracer.span(
                        "re-certify", node=op.schema.name, round=index
                    ):
                        observed_cert = _fingerprinted_certification(
                            round_, observed_profile
                        )
                    estimated = round_.certified_load
                    trigger: Optional[str] = None
                    if estimated is not None:
                        if observed_cert.bound > estimated:
                            trigger = "certificate-violated"
                        elif observed_cert.bound <= replan_factor * estimated:
                            trigger = "certificate-improved"
                    final_certification = observed_cert
                    if replan and trigger is not None:
                        with tracer.span(
                            "replan",
                            node=op.schema.name,
                            round=index,
                            reason=trigger,
                        ):
                            new_round = _replan_once(
                                plan, index, round_, observed_profile
                            )
                        event = ReplanEvent(
                            round_index=index,
                            node=op.schema.name,
                            reason=trigger,
                            estimated_bound=float(estimated),
                            observed_bound=observed_cert.bound,
                            old_plan=round_.name,
                            new_plan=(
                                new_round.name if new_round is not None else round_.name
                            ),
                            new_bound=(
                                new_round.certified_load
                                if new_round is not None
                                else observed_cert.bound
                            ),
                        )
                        events.append(event)
                        logger.info(
                            "replan round %d (%s) on %s: plan %s -> %s, "
                            "bound %.6g -> %s (%s)",
                            index,
                            op.schema.name,
                            trigger,
                            event.old_plan,
                            event.new_plan,
                            event.observed_bound,
                            event.new_bound,
                            "win" if event.won else "loss",
                        )
                        if registry.enabled:
                            registry.counter(
                                "pipeline_replans_total",
                                "Mid-flight re-planning decisions, by trigger",
                            ).inc(reason=trigger)
                            if event.won:
                                registry.counter(
                                    "pipeline_replan_wins_total",
                                    "Re-plans whose new certificate beat the "
                                    "observed bound",
                                ).inc()
                            else:
                                registry.counter(
                                    "pipeline_replan_losses_total",
                                    "Re-plans certified no better than the "
                                    "running plan",
                                ).inc()
                        if replan_observer is not None:
                            replan_observer(event)
                        if new_round is not None:
                            rounds[index] = round_ = new_round
                            final_certification = round_.certification
                            replanned = True
            round_token: Optional[Tuple] = None
            if reuse_keys:
                # Built after re-planning settled, so the token names the plan
                # that will actually run.
                child_tokens = tuple(
                    _leaf_token(child, fingerprints)
                    if isinstance(child, RelationLeaf)
                    else node_tokens[child.schema.name]
                    for child in (op.left, op.right)
                )
                round_token = ("join", child_tokens, _plan_token(round_))
            work = RoundWork(
                index=index,
                label=op.label(),
                plan_name=round_.name,
                certification=final_certification,
                admission_load=(
                    final_certification.bound
                    if final_certification is not None
                    else plan.q_budget
                ),
                reuse_key=(
                    ("shared-intermediate", round_token) if reuse_keys else None
                ),
                # The inputs are gathered only when the round actually runs:
                # a round answered from the store never reads them.
                _runner=(
                    lambda op_=op, plan_=round_.plan: plan_.execute(
                        _round_inputs(op_, base_records, node_outputs),
                        engine=engine,
                    )
                ),
            )
            received = yield work
            job = received.job
            assert isinstance(job, JobResult)
            job_results.append(job)
            feeds_later_round = index < len(rounds) - 1
            if received.reused and received.rows is not None:
                # Another pipeline materialized this identical intermediate;
                # adopt its rows and observation verbatim.  A producer for
                # which it was the final round took no profile, so profile
                # the shared rows here when a later round needs them.
                rows = received.rows
                finished_profile = received.profile
                if finished_profile is None and feeds_later_round:
                    finished_profile = _profile_rows(tracer, op, index, rows)
                stored: Any = rows
            else:
                if feeds_later_round:
                    rows = []
                    finished_profile = _profile_rows(
                        tracer, op, index, job.outputs, into=rows
                    )
                else:
                    # The final round's rows feed no later round: nothing
                    # reads their profile, so none is taken.
                    rows, finished_profile = list(job.outputs), None
                # Publish rows and profile on the outcome so a sharing driver
                # can feed other consumers of the same sub-tree.
                received.rows = rows
                received.profile = finished_profile
                stored = rows
                if spill_threshold is not None and len(rows) >= spill_threshold:
                    spilled = SpilledRows.try_spill(rows)
                    if spilled is not None:
                        spilled_blocks.append(spilled)
                        stored = spilled
            node_outputs[op.schema.name] = stored
            if round_token is not None:
                node_tokens[op.schema.name] = round_token
            if finished_profile is not None:
                observed_profiles[op.schema.name] = finished_profile
            certified_loads.append(
                final_certification.bound if final_certification is not None else None
            )
            executed.append(
                ExecutedRound(
                    index=index,
                    op_label=op.label(),
                    plan_name=round_.name,
                    certification=final_certification,
                    estimated_inputs=round_.estimated_inputs,
                    observed_inputs=job.metrics.shuffle.num_inputs,
                    estimated_output=round_.estimated_output,
                    observed_output=len(rows),
                    observed_max_load=job.metrics.shuffle.max_reducer_size,
                    replanned=replanned,
                    reused=received.reused,
                    estimate_method=round_.estimate_method,
                    admission_price=work.admission_load,
                    seconds=received.seconds,
                )
            )
        final_rows = node_outputs[plan.op.schema.name]
        if not isinstance(final_rows, list):
            final_rows = list(final_rows)
        outputs = _reorder_outputs(plan, final_rows)
    finally:
        # Also reached when a round fails: the driver closes (or drops) the
        # coroutine, and no spilled intermediate may outlive it.
        for spilled in spilled_blocks:
            spilled.close()
    result = PipelineResult(
        outputs=outputs,
        metrics=PipelineMetrics(
            chain_name=plan.name,
            rounds=[job.metrics for job in job_results],
        ),
        round_results=job_results,
        round_certified_loads=(
            tuple(load for load in certified_loads)
            if all(load is not None for load in certified_loads)
            else None
        ),
    )
    return PipelineRunResult(
        plan=plan, result=result, executed=executed, replan_events=events
    )


def _reorder_outputs(
    plan: PipelinePlan, rows: List[Tuple[int, ...]]
) -> List[Tuple[int, ...]]:
    """Reorder final tuples from the cascade's column order to the query's."""
    cascade_order = plan.op.schema.attributes
    target_order = plan.problem.query.attributes
    if cascade_order == target_order:
        return rows
    indices = [cascade_order.index(attribute) for attribute in target_order]
    return [tuple(row[i] for i in indices) for row in rows]
