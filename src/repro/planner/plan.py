"""Execution plans: the planner's output, directly runnable on the engine.

An :class:`ExecutionPlan` pairs one enumerated candidate (a schema family
with fixed parameters) with its predicted cost on the target cluster.  A
:class:`PlanningResult` is the ranked list of such plans for one planning
request; its first element is the recommendation.  Both are plain data plus
an ``execute`` bridge to :class:`~repro.mapreduce.engine.MapReduceEngine`,
so call sites never need to hand-construct schemas or jobs again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.cost import CostBreakdown
from repro.core.problem import Problem
from repro.exceptions import PlanningError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.engine import JobResult, MapReduceEngine, PipelineResult
from repro.mapreduce.job import JobChain, MapReduceJob
from repro.mapreduce.metrics import PhaseTimings
from repro.planner.certify import Certification
from repro.planner.registry import PlanCandidate


@dataclass(frozen=True)
class ExecutionPlan:
    """One ranked, executable way of running a problem on a cluster.

    Attributes
    ----------
    problem:
        The problem the plan serves.
    candidate:
        The enumerated algorithm point (name, certified q, replication rate,
        job factory).
    cost:
        Predicted Section 1.2 cost breakdown at the candidate's ``(q, r)``.
    cluster:
        The cluster configuration the plan was costed for; ``execute`` runs
        on an engine with this configuration unless one is supplied.
    lower_bound:
        The replication-rate lower bound ``f(q)`` at the candidate's ``q``,
        when the problem's recipe provides one (``None`` otherwise).  The
        ratio ``replication_rate / lower_bound`` is the plan's optimality
        gap.
    rank:
        Position in the ranked plan list (0 is the planner's choice).
    """

    problem: Problem
    candidate: PlanCandidate
    cost: CostBreakdown
    cluster: ClusterConfig
    lower_bound: Optional[float] = None
    rank: int = 0
    #: Per-phase wall-clock seconds of the most recent ``execute`` call on
    #: this plan object (measurement, not identity: excluded from equality).
    last_timings: Optional[PhaseTimings] = field(
        default=None, compare=False, repr=False
    )

    # -- convenience pass-throughs -------------------------------------
    @property
    def name(self) -> str:
        return self.candidate.name

    @property
    def q(self) -> float:
        """Certified maximum reducer input size of this plan."""
        return self.candidate.q

    @property
    def replication_rate(self) -> float:
        return self.candidate.replication_rate

    @property
    def rounds(self) -> int:
        return self.candidate.rounds

    @property
    def family(self) -> Optional[Any]:
        return self.candidate.family

    @property
    def certification(self) -> Optional["Certification"]:
        """How the plan's ``q`` is backed (exact / expected / high-probability).

        ``None`` means the candidate predates certification tracking; the
        built-in combinatorial families all attach exact certificates.
        """
        return self.candidate.certification

    @property
    def certification_label(self) -> str:
        certification = self.candidate.certification
        return certification.label if certification is not None else "exact"

    @property
    def bound_method(self) -> Optional[str]:
        """Which bound family produced ``q`` (``"closed-form"``,
        ``"per-bucket-histogram"``, ``"hoeffding-sample"``, ...), or
        ``None`` for candidates predating method tracking."""
        certification = self.candidate.certification
        if certification is None or not certification.method:
            return None
        return certification.method

    @property
    def total_cost(self) -> float:
        return self.cost.total

    @property
    def optimality_gap(self) -> Optional[float]:
        """``r / f(q)``; 1.0 means the plan meets the lower bound."""
        if self.lower_bound is None or self.lower_bound <= 0:
            return None
        return self.replication_rate / self.lower_bound

    # -- execution ------------------------------------------------------
    def build_work(self, inputs: Sequence[Any] = ()) -> Union[MapReduceJob, JobChain]:
        """Materialize the executable job (or chain) for this plan."""
        return self.candidate.job_factory(inputs)

    def execute(
        self,
        inputs: Iterable[Any],
        engine: Optional[MapReduceEngine] = None,
    ) -> Union[JobResult, PipelineResult]:
        """Run the plan over ``inputs`` and return the engine's result.

        Inputs stay streamed unless the candidate's job factory needs them
        materialized (data-dependent jobs such as the Shares join).
        """
        engine = engine or MapReduceEngine(self.cluster)
        if self.candidate.needs_inputs:
            inputs = list(inputs)
            work = self.build_work(inputs)
        else:
            work = self.build_work()
        if isinstance(work, JobChain):
            result: Union[JobResult, PipelineResult] = engine.run_chain(work, inputs)
            timings = result.metrics.phase_seconds()
        else:
            result = engine.run(work, inputs)
            timings = result.metrics.timings
        # The plan is frozen (it is planner output, hashable and comparable);
        # the timing cache is measurement riding along, not plan identity.
        object.__setattr__(self, "last_timings", timings)
        return result

    @property
    def cost_pricing(self) -> str:
        """What backed the cost model's processing term for this plan.

        ``"bound"`` (scalar reducer-size bound), ``"certified-max"``
        (certified maximum load) or ``"certified-load"`` (certified
        per-reducer load profile).
        """
        return self.cost.pricing

    def describe(self) -> Dict[str, object]:
        """Flat row for reports and benchmark tables.

        When the plan has been executed, the row also carries the last
        run's per-phase wall-clock seconds (``map_s`` / ``shuffle_s`` /
        ``reduce_s`` / ``total_s``), so the data-plane speedups are
        attributable per phase; before any execution they are ``None``.
        """
        timings = self.last_timings
        return {
            "rank": self.rank,
            "plan": self.name,
            "q": self.q,
            "certified": self.certification_label,
            "bound_method": self.bound_method,
            "pricing": self.cost_pricing,
            "replication_rate": self.replication_rate,
            "rounds": self.rounds,
            "total_cost": self.total_cost,
            "planning_s": self.cost.planning_seconds,
            "planning_cost": self.cost.planning_cost,
            "lower_bound": self.lower_bound,
            "gap": self.optimality_gap,
            "map_s": timings.map_seconds if timings is not None else None,
            "shuffle_s": timings.shuffle_seconds if timings is not None else None,
            "reduce_s": timings.reduce_seconds if timings is not None else None,
            "total_s": timings.total_seconds if timings is not None else None,
        }


@dataclass
class PlanningResult:
    """The ranked outcome of one ``CostBasedPlanner.plan`` call.

    Behaves as a sequence of :class:`ExecutionPlan` (cheapest first), so
    ``result[0]`` / ``result.best`` is the recommendation and the rest are
    the alternatives with their predicted costs.
    """

    problem: Problem
    q_budget: float
    cluster: ClusterConfig
    plans: List[ExecutionPlan] = field(default_factory=list)

    @property
    def best(self) -> ExecutionPlan:
        if not self.plans:
            raise PlanningError(
                f"planning result for {self.problem.name!r} holds no plans"
            )
        return self.plans[0]

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self) -> Iterator[ExecutionPlan]:
        return iter(self.plans)

    def __getitem__(self, index: int) -> ExecutionPlan:
        return self.plans[index]

    def find(self, fragment: str) -> Optional[ExecutionPlan]:
        """First plan whose name contains ``fragment`` (for tests/reports)."""
        for plan in self.plans:
            if fragment in plan.name:
                return plan
        return None

    def table(self) -> List[Dict[str, object]]:
        """All plans as flat rows, ranked, for printing."""
        return [plan.describe() for plan in self.plans]


@dataclass(frozen=True)
class SweepPoint:
    """One budget of a planner sweep: its ranked plans, or why it has none.

    ``result`` is ``None`` for budgets no registered candidate fits; the
    ``infeasible_reason`` then carries the planner's explanation so the
    point can still be reported in tradeoff tables.
    """

    budget: float
    result: Optional[PlanningResult] = None
    infeasible_reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.result is not None

    @property
    def best(self) -> Optional[ExecutionPlan]:
        if self.result is None:
            return None
        return self.result.best


@dataclass
class SweepResult:
    """The full replication/q tradeoff curve of one ``sweep`` call.

    Points are ordered by ascending budget.  Iteration yields every
    :class:`SweepPoint` — including infeasible ones, which carry
    ``result=None`` and an ``infeasible_reason`` (check ``point.feasible``
    before dereferencing ``point.best``).  :meth:`frontier` flattens the
    winning plan per budget into rows ready for a Figure 1/3-style table.
    """

    problem: Problem
    cluster: ClusterConfig
    points: List[SweepPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    @property
    def budgets(self) -> List[float]:
        return [point.budget for point in self.points]

    @property
    def feasible_points(self) -> List[SweepPoint]:
        return [point for point in self.points if point.feasible]

    def at(self, budget: float) -> SweepPoint:
        """The sweep point for ``budget`` (exact match on the float value)."""
        for point in self.points:
            if point.budget == budget:
                return point
        raise PlanningError(
            f"budget {budget:g} is not part of this sweep "
            f"(swept budgets: {[f'{b:g}' for b in self.budgets]})"
        )

    def best_plans(self) -> List[ExecutionPlan]:
        """The winning plan at each feasible budget, ascending budget."""
        return [point.best for point in self.feasible_points]

    def frontier(self) -> List[Dict[str, object]]:
        """The achievable tradeoff curve as flat rows (one per budget).

        Infeasible budgets appear with a ``plan`` of ``None`` so tables show
        where the achievable region ends instead of silently dropping rows.
        """
        rows: List[Dict[str, object]] = []
        for point in self.points:
            best = point.best
            if best is None:
                rows.append(
                    {
                        "budget": point.budget,
                        "plan": None,
                        "q": None,
                        "certified": None,
                        "bound_method": None,
                        "pricing": None,
                        "replication_rate": None,
                        "lower_bound": None,
                        "gap": None,
                        "total_cost": None,
                        "planning_s": None,
                    }
                )
            else:
                rows.append(
                    {
                        "budget": point.budget,
                        "plan": best.name,
                        "q": best.q,
                        "certified": best.certification_label,
                        "bound_method": best.bound_method,
                        "pricing": best.cost_pricing,
                        "replication_rate": best.replication_rate,
                        "lower_bound": best.lower_bound,
                        "gap": best.optimality_gap,
                        "total_cost": best.total_cost,
                        "planning_s": best.cost.planning_seconds,
                    }
                )
        return rows
