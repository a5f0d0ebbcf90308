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

For each enumerated round structure the planner prices every round with
the existing single-round stack — candidate enumeration, per-bucket
certification, share optimization — fed by the estimation layer
(:mod:`repro.pipeline.estimate`): intermediate inputs get *synthetic
profiles* whose histograms dominate the truth, so downstream rounds are
certified before a single intermediate record exists.  End-to-end cost is
the sum of per-round costs, with each round's communication term scaled by
the records actually entering that round (the paper's ``a·r`` is
normalized per input record; rounds of one pipeline see very different
input cardinalities, so cross-round sums must re-multiply by them).

The ranked result mirrors :class:`~repro.planner.plan.PlanningResult`;
``result.best.execute(records)`` runs the winning structure on the engine
with adaptive mid-flight re-planning (:mod:`repro.pipeline.execute`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import ClusterCostModel, CostBreakdown
from repro.core.problem import Problem
from repro.exceptions import PlanningError
from repro.mapreduce.cluster import ClusterConfig
from repro.bounds import BoundRegistry
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
    plus intermediate size bounds); ``estimated_output`` the upper bound on
    the rows it produces; ``cost`` the round's absolute priced cost —
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
    def total_cost(self) -> float:
        """Summed per-round priced cost plus the priced planning time."""
        return sum(round_.cost for round_ in self.rounds) + self.planning_cost

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


@dataclass
class PipelinePlanningResult:
    """Ranked pipeline structures for one problem, cheapest first.

    ``rejected`` lists round structures no candidate could serve within
    the budget, with the planner's reason — so reports can show where the
    feasible region ends instead of silently dropping shapes.
    """

    problem: Problem
    q_budget: float
    cluster: ClusterConfig
    plans: List[PipelinePlan] = field(default_factory=list)
    rejected: List[Tuple[str, str]] = field(default_factory=list)

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

    def cascades(self) -> List[PipelinePlan]:
        return [plan for plan in self.plans if plan.is_cascade]

    def table(self) -> List[dict]:
        """One summary row per ranked structure."""
        return [
            {
                "rank": plan.rank,
                "structure": plan.name,
                "rounds": plan.num_rounds,
                "total_cost": plan.total_cost,
                "max_certified_load": plan.max_certified_load,
                "est_communication": plan.estimated_communication,
                "planning_s": plan.planning_seconds,
            }
            for plan in self.plans
        ]


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
        bound_registry: Optional["BoundRegistry"] = None,
    ) -> None:
        self.planner = planner or CostBasedPlanner()
        self.include_bushy = include_bushy
        self.max_bushy_relations = max_bushy_relations
        #: ``None`` means the process-wide default registry; tests pass
        #: :func:`repro.bounds.legacy_bound_registry` to pin pre-refactor
        #: numbers bit-for-bit.
        self.bound_registry = bound_registry

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
        with cluster.tracer.span(
            "pipeline-plan", problem=problem.name, q_budget=budget
        ) as span:
            if isinstance(problem, MultiwayJoinProblem):
                plans, rejected = self._join_structures(
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
            plans.sort(
                key=lambda plan: (plan.total_cost, plan.num_rounds, plan.name)
            )
            if cluster.tracer.enabled:
                span.set(structures=len(plans), rejected=len(rejected))
        planning_seconds = time.perf_counter() - started
        planning_cost = model.planning_rate * planning_seconds
        registry = cluster.metrics
        if registry.enabled:
            registry.counter(
                "planner_plans_total", "Pipeline planning invocations"
            ).inc()
            registry.counter(
                "planner_structures_total",
                "Feasible round structures enumerated across plans",
            ).inc(len(plans))
            registry.counter(
                "planner_rejected_total",
                "Round structures rejected by the feasibility filter",
            ).inc(len(rejected))
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
    ) -> Tuple[List[PipelinePlan], List[Tuple[str, str]]]:
        query = problem.query
        estimator = SizeEstimator(
            query,
            problem.domain_size,
            profile,
            bounds=self.bound_registry,
            metrics=cluster.metrics,
        )
        plans: List[PipelinePlan] = []
        rejected: List[Tuple[str, str]] = []
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
                PipelinePlan(
                    problem=problem,
                    op=one_round_op,
                    rounds=[
                        PipelineRound(
                            index=0,
                            op=one_round_op,
                            plan=best,
                            estimated_inputs=inputs,
                            estimated_output=output,
                            estimate_method=output_method,
                            estimate_exact=estimator.profile is not None
                            and estimator.profile.exact,
                            cost=_round_cost(best.cost, inputs),
                            estimated_output_bound=output,
                        )
                    ],
                    cluster=cluster,
                    q_budget=budget,
                    cost_model=model,
                    planner=self.planner,
                    profile=profile,
                )
            )
        # Every cascade of binary Shares joins.
        for tree in enumerate_join_trees(
            query,
            include_bushy=self.include_bushy,
            max_bushy_relations=self.max_bushy_relations,
        ):
            try:
                plans.append(
                    self._plan_cascade(
                        problem, tree, estimator, cluster, budget, model, profile
                    )
                )
            except PlanningError as error:
                rejected.append((tree.label(), str(error)))
        return plans, rejected

    def _plan_cascade(
        self,
        problem: MultiwayJoinProblem,
        tree: BinaryJoinOp,
        estimator: SizeEstimator,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
        profile: Optional[DatasetProfile],
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
    ) -> Tuple[List[PipelinePlan], List[Tuple[str, str]]]:
        try:
            result = self.planner.plan(problem, cluster, q=budget)
        except PlanningError as error:
            return [], [(f"matmul(n={problem.n})", str(error))]
        plans: List[PipelinePlan] = []
        inputs = float(problem.num_inputs)
        for plan in result:
            op = MatMulRoundOp(problem.n, phases=plan.rounds)
            plans.append(
                PipelinePlan(
                    problem=problem,
                    op=op,
                    rounds=[
                        PipelineRound(
                            index=0,
                            op=op,
                            plan=plan,
                            estimated_inputs=inputs,
                            estimated_output=float(problem.num_outputs),
                            estimate_method="closed-form",
                            estimate_exact=True,
                            cost=_round_cost(plan.cost, inputs),
                        )
                    ],
                    cluster=cluster,
                    q_budget=budget,
                    cost_model=model,
                    planner=self.planner,
                )
            )
        return plans, []

    # ------------------------------------------------------------------
    # Aggregation: a single trivially-parallel round
    # ------------------------------------------------------------------
    def _aggregate_structures(
        self,
        problem: GroupByAggregationProblem,
        cluster: ClusterConfig,
        budget: float,
        model: ClusterCostModel,
    ) -> Tuple[List[PipelinePlan], List[Tuple[str, str]]]:
        try:
            result = self.planner.plan(problem, cluster, q=budget)
        except PlanningError as error:
            return [], [(problem.name, str(error))]
        input_schema = RelationSchema(name=problem.name, attributes=("A", "B"))
        plans: List[PipelinePlan] = []
        inputs = float(problem.num_inputs)
        for plan in result:
            op = AggregateOp(group_attribute="A", input_schema=input_schema)
            plans.append(
                PipelinePlan(
                    problem=problem,
                    op=op,
                    rounds=[
                        PipelineRound(
                            index=0,
                            op=op,
                            plan=plan,
                            estimated_inputs=inputs,
                            estimated_output=float(problem.a_domain_size),
                            estimate_method="closed-form",
                            estimate_exact=True,
                            cost=_round_cost(plan.cost, inputs),
                        )
                    ],
                    cluster=cluster,
                    q_budget=budget,
                    cost_model=model,
                    planner=self.planner,
                )
            )
        return plans, []


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
