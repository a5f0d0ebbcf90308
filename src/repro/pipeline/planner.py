"""The multi-round pipeline planner: enumerate cascades, bound, price, rank.

:class:`~repro.planner.planner.CostBasedPlanner` answers "which schema runs
this *one* job best"; this module answers the paper's larger question —
*how many rounds should the computation take at all*:

* a multiway join can run as **one Shares round** (Section 5.5) or as a
  **cascade of binary Shares joins** (left-deep or bushy), each round a
  planned, certified job of its own;
* matrix multiplication can run **one-phase** (a single tiled round) or
  **two-phase** (the Section 6 chain) — the cost model's original
  multi-round crossover;
* aggregations are single trivially-parallel rounds.

For each round structure it plans, the planner prices every round with
the existing single-round stack — candidate enumeration, per-bucket
certification, share optimization — fed by the estimation layer
(:mod:`repro.pipeline.estimate`): intermediate inputs get *synthetic
profiles* whose histograms dominate the truth, so downstream rounds are
certified before a single intermediate record exists.  End-to-end cost is
the sum of per-round costs, with each round's communication term scaled by
the records actually entering that round (the paper's ``a·r`` is
normalized per input record; rounds of one pipeline see very different
input cardinalities, so cross-round sums must re-multiply by them).

Join structures are searched bound first (``_join_structures``): a
cascade whose closed-form lower bound already loses to the incumbent is
listed in ``result.pruned``, not planned, until ``result.complete()``.

The ranked result mirrors :class:`~repro.planner.plan.PlanningResult`;
``result.best.execute(records)`` runs the winning structure on the engine
with adaptive mid-flight re-planning (:mod:`repro.pipeline.execute`).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.cost import ClusterCostModel, CostBreakdown
from repro.core.problem import Problem
from repro.exceptions import BoundDerivationError, PlanningError
from repro.mapreduce.cluster import ClusterConfig
from repro.pipeline.estimate import SizeEstimator
from repro.pipeline.logical import (
    AggregateOp,
    BinaryJoinOp,
    LogicalOp,
    MatMulRoundOp,
    MultiwayJoinOp,
    enumerate_join_trees,
)
from repro.planner.plan import ExecutionPlan
from repro.planner.planner import CostBasedPlanner
from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.joins import MultiwayJoinProblem, RelationSchema
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.stats.profile import DatasetProfile


@dataclass(frozen=True)
class PipelineRound:
    """One planned round of a pipeline: a logical op bound to a physical plan.

    ``estimated_inputs`` is the record count entering the round (base rows
    plus intermediate size bounds); ``estimated_output`` the calibrated
    estimate of the rows it produces (``estimated_output_bound`` the sound
    bound); ``cost`` the round's absolute priced cost —
    ``a·r·inputs`` plus the breakdown's processing and wall-clock terms.
    ``estimate_exact`` records whether every histogram feeding the bounds
    was exact, i.e. whether the round's certificate is a sound upper bound
    on what execution will observe.
    """

    index: int
    op: LogicalOp
    plan: ExecutionPlan
    estimated_inputs: float
    estimated_output: float
    estimate_method: str
    estimate_exact: bool
    cost: float
    #: Sound upper bound on the round's output rows (``estimated_output``
    #: is the calibrated estimate; they coincide for exact profiles).
    estimated_output_bound: float = 0.0
    #: True when the round was certified against a *projected* (synthetic)
    #: intermediate profile: the certificate is a planning estimate, and
    #: the adaptive executor re-certifies it on the observed intermediate
    #: before the round runs.  False means the certificate is already a
    #: sound bound (base relations with exact profiles, or re-planned).
    projected: bool = False

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def certification(self):
        return self.plan.certification

    @property
    def certified_load(self) -> Optional[float]:
        certification = self.plan.certification
        return certification.bound if certification is not None else None

    @property
    def bound_method(self) -> Optional[str]:
        """How the round's load certificate was derived (None = uncertified)."""
        certification = self.plan.certification
        if certification is None or not certification.method:
            return None
        return certification.method

    def describe(self) -> dict:
        """Flat per-round row for the pipeline's ``describe()`` table."""
        family = self.plan.family
        shares = getattr(family, "shares", None)
        return {
            "round": self.index,
            "op": self.op.label(),
            "plan": self.name,
            "shares": dict(shares) if shares is not None else None,
            "certified": self.plan.certification_label,
            "certified_load": self.certified_load,
            "bound_method": self.bound_method,
            "projected": self.projected,
            "pricing": self.plan.cost_pricing,
            "replication_rate": self.plan.replication_rate,
            "est_inputs": self.estimated_inputs,
            "est_rows_out": self.estimated_output,
            "rows_bound": self.estimated_output_bound,
            "estimate": self.estimate_method,
            "round_cost": self.cost,
        }


@dataclass
class PipelinePlan:
    """One ranked multi-round structure, executable end to end.

    ``rounds`` are in execution order (cascade rounds post-order, children
    before parents).  ``execute`` runs them adaptively: each intermediate
    is profiled in-stream and the remaining rounds re-planned when the
    observed certificate beats or violates the estimate (see
    :func:`repro.pipeline.execute.execute_pipeline`).
    """

    problem: Problem
    op: LogicalOp
    rounds: List[PipelineRound]
    cluster: ClusterConfig
    q_budget: float
    cost_model: ClusterCostModel
    planner: CostBasedPlanner
    profile: Optional[DatasetProfile] = None
    planning_seconds: float = 0.0
    planning_cost: float = 0.0
    rank: int = 0
    #: What the structure must cost before anything is planned for it:
    #: ``a · floor · Σ records entering its rounds`` (0.0 when the
    #: registry declares no replication floor for the problem).
    lower_bound: float = 0.0
    #: Mid-flight re-plan verdicts of this plan, decided once each:
    #: ``(round index, observed profile fingerprint)`` -> the re-planned
    #: round, or ``None`` when nothing fit the budget.  The key is complete
    #: because a re-plan's other inputs (problem, planner, cluster,
    #: ``q_budget``, ``rounds[index]``) are fields of this plan — hence
    #: ``init=False``: a ``dataclasses.replace`` copy that changes one of
    #: them starts with an empty memo.  One entry per distinct intermediate
    #: the plan has been run on; lives and dies with the plan object.
    _replan_memo: Dict[Tuple[int, int], Optional[PipelineRound]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.op.label()

    @property
    def num_rounds(self) -> int:
        """Total engine rounds (a two-phase matmul entry counts as two)."""
        return sum(round_.plan.rounds for round_ in self.rounds)

    @property
    def rounds_cost(self) -> float:
        """Summed per-round priced cost — what structures are ranked by."""
        return sum(round_.cost for round_ in self.rounds)

    @property
    def total_cost(self) -> float:
        """:attr:`rounds_cost` plus the priced planning time."""
        return self.rounds_cost + self.planning_cost

    @property
    def max_certified_load(self) -> Optional[float]:
        bounds = [r.certified_load for r in self.rounds if r.certified_load is not None]
        return max(bounds) if bounds else None

    @property
    def estimated_communication(self) -> float:
        """Σ per-round replication · inputs — the shipped-records estimate."""
        return sum(
            round_.plan.replication_rate * round_.estimated_inputs
            for round_ in self.rounds
        )

    @property
    def is_cascade(self) -> bool:
        return isinstance(self.op, BinaryJoinOp)

    def describe(self) -> List[dict]:
        """Per-round table: shares vector, certification, pricing, sizes."""
        return [round_.describe() for round_ in self.rounds]

    def execute(
        self,
        records: Sequence[Any],
        engine=None,
        replan: bool = True,
        replan_factor: float = 0.5,
        spill_threshold=None,
        replan_observer=None,
    ):
        """Run the pipeline; see :func:`repro.pipeline.execute.execute_pipeline`.

        ``replan_observer``, when given, is called with each
        :class:`~repro.pipeline.execute.ReplanEvent` as it fires — the
        feedback hook the query service's adaptive ``replan_factor`` tuner
        listens on.
        """
        from repro.pipeline.execute import execute_pipeline

        return execute_pipeline(
            self,
            records,
            engine=engine,
            replan=replan,
            replan_factor=replan_factor,
            spill_threshold=spill_threshold,
            replan_observer=replan_observer,
        )


class PrunedStructure(NamedTuple):
    """A round structure the bound-first search never had to plan."""

    label: str
    lower_bound: float
    rounds: int

    @property
    def key(self) -> Tuple[float, int, str]:
        """What :func:`_rank_key` of the planned structure is at least."""
        return (self.lower_bound, self.rounds, self.label)


def _rank_key(plan: PipelinePlan) -> Tuple[float, int, str]:
    """Ranking order of planned structures."""
    return (plan.rounds_cost, plan.num_rounds, plan.name)


#: ``(label, reason)`` per structure nothing could serve within the budget.
Rejected = List[Tuple[str, str]]
#: ``label -> () -> PipelinePlan`` for every enumerated cascade, in
#: enumeration order (the order ``rejected`` is reported in).
Deferred = Dict[str, Callable[[], PipelinePlan]]


@dataclass
class PipelinePlanningResult:
    """Ranked pipeline structures for one problem, cheapest first.

    ``rejected`` lists round structures no candidate could serve within
    the budget, with the planner's reason — so reports can show where the
    feasible region ends instead of silently dropping shapes.

    ``pruned`` lists, cheapest bound first, the structures whose lower
    bound already loses to ``best``: they are proven not to win and were
    not planned.  ``plans`` / ``best`` / ``one_round()`` / ``len`` /
    iteration read what *was* planned; :meth:`complete` (and
    :meth:`cascades`, whose callers want plans to run) plans the rest.
    """

    problem: Problem
    q_budget: float
    cluster: ClusterConfig
    plans: List[PipelinePlan] = field(default_factory=list)
    rejected: Rejected = field(default_factory=list)
    pruned: List[PrunedStructure] = field(default_factory=list)
    _deferred: Deferred = field(default_factory=dict, repr=False, compare=False)

    @property
    def best(self) -> PipelinePlan:
        if not self.plans:
            raise PlanningError(
                f"pipeline planning for {self.problem.name!r} holds no plans"
            )
        return self.plans[0]

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self) -> Iterator[PipelinePlan]:
        return iter(self.plans)

    def __getitem__(self, index: int) -> PipelinePlan:
        return self.plans[index]

    def one_round(self) -> Optional[PipelinePlan]:
        """The single-round structure, when it was feasible."""
        for plan in self.plans:
            if isinstance(plan.op, (MultiwayJoinOp, MatMulRoundOp, AggregateOp)):
                if plan.num_rounds == 1:
                    return plan
        return None

    def complete(self) -> "PipelinePlanningResult":
        """Plan every pruned structure and merge it into the ranking.

        Idempotent; returns ``self``.  Completed plans carry the original
        call's planning term, ``best`` cannot change — a completed plan
        that undercuts its recorded bound or takes rank 0 raises
        :class:`BoundDerivationError`, the search was unsound — and an
        exception leaves ``plans`` / ``pruned`` / ranks untouched, so a
        retry finishes the job.
        """
        if not self.pruned:
            return self
        best = self.plans[0]
        plans, rejected = list(self.plans), list(self.rejected)
        for label, lower_bound, _ in self.pruned:
            try:
                plan = self._deferred[label]()
            except PlanningError as error:
                rejected.append((label, str(error)))
                continue
            if plan.rounds_cost < lower_bound:
                raise BoundDerivationError(
                    f"{label} was pruned at lower bound {lower_bound:g} but "
                    f"plans at {plan.rounds_cost:g}: the bound is unsound"
                )
            plan.planning_seconds = best.planning_seconds
            plan.planning_cost = best.planning_cost
            plans.append(plan)
        plans.sort(key=_rank_key)
        if plans[0] is not best:
            raise BoundDerivationError(
                f"{plans[0].name} was pruned yet ranks ahead of {best.name}: "
                "the bound-first search returned the wrong winner"
            )
        for rank, plan in enumerate(plans):
            plan.rank = rank
        self.plans, self.pruned = plans, []
        self.rejected = _in_enumeration_order(rejected, self._deferred)
        return self

    def cascades(self) -> List[PipelinePlan]:
        """Every feasible cascade, ranked — completes the search first."""
        return [plan for plan in self.complete().plans if plan.is_cascade]

    def table(self) -> List[dict]:
        """One summary row per ranked structure, then one per pruned one."""
        rows = [
            {
                "rank": plan.rank,
                "structure": plan.name,
                "rounds": plan.num_rounds,
                "total_cost": plan.total_cost,
                "max_certified_load": plan.max_certified_load,
                "est_communication": plan.estimated_communication,
                "planning_s": plan.planning_seconds,
                "lower_bound": plan.lower_bound,
            }
            for plan in self.plans
        ]
        for label, lower_bound, rounds in self.pruned:
            row = dict.fromkeys(rows[0], None)
            row.update(structure=label, rounds=rounds, lower_bound=lower_bound)
            rows.append(row)
        return rows


def _in_enumeration_order(rejected: Rejected, deferred: Deferred) -> Rejected:
    """``rejected`` as an exhaustive sweep lists it: one-round, then trees."""
    position = {label: index for index, label in enumerate(deferred)}
    return sorted(rejected, key=lambda entry: position.get(entry[0], -1))


class PipelinePlanner:
    """Enumerates and prices multi-round structures for a problem.

    Parameters
    ----------
    planner:
        The single-round planner each round is delegated to; defaults to a
        fresh :class:`CostBasedPlanner` over the default registry.
    include_bushy:
        Whether join-tree enumeration includes bushy shapes (left-deep
        trees are always enumerated).
    max_bushy_relations:
        Bushy enumeration cutoff; larger queries fall back to left-deep.
    """

    def __init__(
        self,
        planner: Optional[CostBasedPlanner] = None,
        include_bushy: bool = True,
        max_bushy_relations: int = 6,
    ) -> None:
        self.planner = planner or CostBasedPlanner()
        self.include_bushy = include_bushy
        self.max_bushy_relations = max_bushy_relations

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        problem: Problem,
        cluster: Optional[ClusterConfig] = None,
        q: Optional[float] = None,
        profile: Optional[DatasetProfile] = None,
    ) -> PipelinePlanningResult:
        """Rank every feasible round structure for ``problem`` under ``q``."""
        started = time.perf_counter()
        cluster = cluster or ClusterConfig()
        budget = CostBasedPlanner._resolve_budget(problem, cluster, q)
        model = self.planner.cost_model or ClusterCostModel(
            communication_rate=cluster.communication_cost_per_record,
            processing_rate=cluster.worker_cost_per_unit,
            planning_rate=cluster.planning_cost_per_second,
        )
        pruned: List[PrunedStructure] = []
        deferred: Deferred = {}
        with cluster.tracer.span(
            "pipeline-plan", problem=problem.name, q_budget=budget
        ) as span:
            if isinstance(problem, MultiwayJoinProblem):
                plans, rejected, pruned, deferred = self._join_structures(
                    problem, cluster, budget, model, profile
                )
            elif isinstance(problem, MatrixMultiplicationProblem):
                plans, rejected = self._matmul_structures(
                    problem, cluster, budget, model
                )
            elif isinstance(problem, GroupByAggregationProblem):
                plans, rejected = self._aggregate_structures(
                    problem, cluster, budget, model
                )
            else:
                raise PlanningError(
                    f"the pipeline planner covers joins, matrix multiplication "
                    f"and aggregation; got {type(problem).__name__}"
                )
            if not plans:
                reasons = "; ".join(
                    f"{label}: {reason}" for label, reason in rejected
                )
                raise PlanningError(
                    f"no round structure for {problem.name!r} fits within the "
                    f"reducer-size budget q={budget:g} ({reasons})"
                )
            plans.sort(key=_rank_key)
            if cluster.tracer.enabled:
                span.set(
                    structures=len(plans), rejected=len(rejected), pruned=len(pruned)
                )
        planning_seconds = time.perf_counter() - started
        planning_cost = model.planning_rate * planning_seconds
        registry = cluster.metrics
        if registry.enabled:
            for name, description, count in (
                ("plans", "Pipeline planning invocations", 1),
                ("structures", "Feasible round structures planned", len(plans)),
                ("rejected", "Structures the feasibility filter rejected", len(rejected)),
                ("pruned", "Structures left unplanned: their bound lost", len(pruned)),
            ):
                registry.counter(f"planner_{name}_total", description).inc(count)
            registry.histogram(
                "planner_seconds", "Wall-clock seconds per planning invocation"
            ).observe(planning_seconds)
        for rank, plan in enumerate(plans):
            plan.rank = rank
            plan.planning_seconds = planning_seconds
            plan.planning_cost = planning_cost
        return PipelinePlanningResult(
            problem=problem,
            q_budget=budget,
            cluster=cluster,
            plans=plans,
            rejected=rejected,
            pruned=pruned,
            _deferred=deferred,
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_structures(
        self,
        problem: MultiwayJoinProblem,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
        profile: Optional[DatasetProfile],
    ) -> Tuple[List[PipelinePlan], Rejected, List[PrunedStructure], Deferred]:
        """Bound-first search over the one-round plan and every cascade.

        A round ships at least ``floor`` copies of each record entering it
        (the registry's declared replication floor), so a structure costs
        at least ``a · floor · Σ records entering its rounds`` — known from
        the size estimates alone.  The one-round structure is planned, the
        cascades are walked cheapest bound first, and the walk stops
        planning once a bound's ``(cost, rounds, label)`` key exceeds the
        incumbent's: every later structure is proven to rank behind it.
        """
        query = problem.query
        estimator = SizeEstimator(
            query, problem.domain_size, profile, metrics=cluster.metrics
        )
        floor_rate = model.communication_rate * self.planner.registry.replication_floor(
            problem
        )
        plans: List[PipelinePlan] = []
        rejected: Rejected = []
        # The one-round Shares structure (Section 5.5).
        one_round_op = MultiwayJoinOp(query)
        try:
            best = self.planner.plan(problem, cluster, q=budget, profile=profile).best
        except PlanningError as error:
            rejected.append((one_round_op.label(), str(error)))
        else:
            inputs = sum(
                estimator.leaf_rows(relation.name) for relation in query.relations
            )
            output, output_method = estimator.query_output_bound()
            plans.append(
                self._single_round(
                    problem, one_round_op, best, cluster, budget, model,
                    inputs=inputs,
                    output=output,
                    method=output_method,
                    exact=estimator.profile is not None and estimator.profile.exact,
                    output_bound=output,
                    profile=profile,
                    lower_bound=floor_rate * inputs,
                )
            )
        # Every cascade of binary Shares joins, cheapest lower bound first.
        trees = enumerate_join_trees(
            query,
            include_bushy=self.include_bushy,
            max_bushy_relations=self.max_bushy_relations,
        )
        entries = [
            PrunedStructure(
                tree.label(),
                _cascade_lower_bound(tree, estimator, floor_rate),
                tree.num_rounds,
            )
            for tree in trees
        ]
        deferred = {
            entry.label: functools.partial(
                self._plan_cascade,
                problem, tree, estimator, cluster, budget, model, profile,
                entry.lower_bound,
            )
            for tree, entry in zip(trees, entries)
        }
        pruned: List[PrunedStructure] = []
        for entry in sorted(entries, key=lambda entry: entry.key):
            # With nothing feasible yet the next structure is planned
            # unconditionally and, when it fits, becomes the incumbent.
            if plans and entry.key > min(map(_rank_key, plans)):
                pruned.append(entry)
                continue
            try:
                plans.append(deferred[entry.label]())
            except PlanningError as error:
                rejected.append((entry.label, str(error)))
        return plans, _in_enumeration_order(rejected, deferred), pruned, deferred

    def _plan_cascade(
        self,
        problem: MultiwayJoinProblem,
        tree: BinaryJoinOp,
        estimator: SizeEstimator,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
        profile: Optional[DatasetProfile],
        lower_bound: float = 0.0,
    ) -> PipelinePlan:
        rounds: List[PipelineRound] = []
        for index, node in enumerate(tree.post_order()):
            round_problem = MultiwayJoinProblem(
                node.round_query(), problem.domain_size
            )
            round_profile = estimator.round_profile(node)
            try:
                best = self.planner.plan(
                    round_problem, cluster, q=budget, profile=round_profile
                ).best
            except PlanningError as error:
                raise PlanningError(
                    f"round {index} ({node.schema.name}): {error}"
                ) from error
            estimate = estimator.estimate(node)
            inputs = estimator.round_input_records(node)
            rounds.append(
                PipelineRound(
                    index=index,
                    op=node,
                    plan=best,
                    estimated_inputs=inputs,
                    estimated_output=estimate.size_estimate,
                    estimate_method=estimate.method,
                    estimate_exact=estimate.exact_inputs,
                    cost=_round_cost(best.cost, inputs),
                    estimated_output_bound=estimate.size_bound,
                    projected=any(
                        estimator.estimate(child).projected
                        for child in (node.left, node.right)
                    ),
                )
            )
        return PipelinePlan(
            problem=problem,
            op=tree,
            rounds=rounds,
            cluster=cluster,
            q_budget=budget,
            cost_model=model,
            planner=self.planner,
            profile=profile,
            lower_bound=lower_bound,
        )

    # ------------------------------------------------------------------
    # Matrix multiplication: 1-phase vs 2-phase
    # ------------------------------------------------------------------
    def _matmul_structures(
        self,
        problem: MatrixMultiplicationProblem,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
    ) -> Tuple[List[PipelinePlan], Rejected]:
        try:
            result = self.planner.plan(problem, cluster, q=budget)
        except PlanningError as error:
            return [], [(f"matmul(n={problem.n})", str(error))]
        return [
            self._single_round(
                problem, MatMulRoundOp(problem.n, phases=plan.rounds), plan,
                cluster, budget, model,
                inputs=float(problem.num_inputs),
                output=float(problem.num_outputs),
            )
            for plan in result
        ], []

    # ------------------------------------------------------------------
    # Aggregation: a single trivially-parallel round
    # ------------------------------------------------------------------
    def _aggregate_structures(
        self,
        problem: GroupByAggregationProblem,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
    ) -> Tuple[List[PipelinePlan], Rejected]:
        try:
            result = self.planner.plan(problem, cluster, q=budget)
        except PlanningError as error:
            return [], [(problem.name, str(error))]
        input_schema = RelationSchema(name=problem.name, attributes=("A", "B"))
        return [
            self._single_round(
                problem, AggregateOp(group_attribute="A", input_schema=input_schema),
                plan, cluster, budget, model,
                inputs=float(problem.num_inputs),
                output=float(problem.a_domain_size),
            )
            for plan in result
        ], []

    def _single_round(
        self,
        problem: Problem,
        op: LogicalOp,
        plan: ExecutionPlan,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
        inputs: float,
        output: float,
        method: str = "closed-form",
        exact: bool = True,
        output_bound: float = 0.0,
        **plan_fields: Any,
    ) -> PipelinePlan:
        """The pipeline of one entry: ``plan`` serving ``op`` over ``inputs``."""
        round_ = PipelineRound(
            index=0,
            op=op,
            plan=plan,
            estimated_inputs=inputs,
            estimated_output=output,
            estimate_method=method,
            estimate_exact=exact,
            cost=_round_cost(plan.cost, inputs),
            estimated_output_bound=output_bound,
        )
        return PipelinePlan(
            problem=problem,
            op=op,
            rounds=[round_],
            cluster=cluster,
            q_budget=budget,
            cost_model=model,
            planner=self.planner,
            **plan_fields,
        )


def _round_cost(breakdown: CostBreakdown, inputs: float) -> float:
    """Absolute priced cost of one round over ``inputs`` records.

    ``breakdown.communication_cost`` is ``a·r`` — normalized per input
    record — so the cross-round sum re-multiplies it by the records
    entering the round.  The breakdown's own planning term is excluded:
    pipeline-level planning time (which already contains the per-round
    planner calls) is priced once on the whole pipeline.
    """
    return (
        breakdown.communication_cost * inputs
        + breakdown.processing_cost
        + breakdown.wall_clock_cost
    )


def _cascade_lower_bound(
    tree: BinaryJoinOp, estimator: SizeEstimator, floor_rate: float
) -> float:
    """``Σ a · floor · inputs`` over the tree's rounds, in execution order.

    The same ``inputs`` floats, summed in the same order, as
    :meth:`PipelinePlanner._plan_cascade` prices — so with ``r ≥ floor``
    and non-negative processing / wall-clock terms the bound is ≤ the
    priced cost term by term in float arithmetic, not just on paper.
    """
    return sum(
        floor_rate * estimator.round_input_records(node)
        for node in tree.post_order()
    )


def replan_round(
    round_: PipelineRound,
    plan: PipelinePlan,
    observed_profile: DatasetProfile,
) -> PipelineRound:
    """Re-plan one cascade round against an observed intermediate profile.

    Used by the adaptive executor: the round's two-relation problem is
    re-planned from scratch with the *materialized* intermediate's exact
    profile, and the round's pricing re-derived from the observed input
    cardinality.  Raises :class:`PlanningError` when nothing fits — the
    executor then keeps the original (still sound) plan.
    """
    if not isinstance(round_.op, BinaryJoinOp):
        raise PlanningError("only cascade join rounds can be re-planned")
    round_problem = MultiwayJoinProblem(
        round_.op.round_query(), plan.problem.domain_size
    )
    best = plan.planner.plan(
        round_problem, plan.cluster, q=plan.q_budget, profile=observed_profile
    ).best
    inputs = float(
        sum(
            observed_profile.relation(child.schema.name).total_rows
            for child in (round_.op.left, round_.op.right)
        )
    )
    return dataclasses.replace(
        round_,
        plan=best,
        estimated_inputs=inputs,
        cost=_round_cost(best.cost, inputs),
        # Certified against the materialized intermediate: a sound bound.
        projected=False,
    )
