"""The cost-based planner: enumerate, bound, cost, rank.

Given a problem, a cluster configuration and a reducer-size budget ``q``,
:class:`CostBasedPlanner` answers the paper's operational question — *which
point on the replication/parallelism tradeoff curve should this job run at?*
— mechanically:

1. **Enumerate**: ask the :class:`~repro.planner.registry.SchemaRegistry`
   for every feasible candidate (schema family + parameters) within ``q``.
2. **Bound**: evaluate :meth:`~repro.core.problem.Problem.replication_lower_bound`
   (the Section 2.4 recipe) at each one-round candidate's reducer size,
   recording the optimality gap (unprofiled plans only: the recipe counts
   the model's full domain).
3. **Cost**: price each candidate with the Section 1.2 cluster cost model
   ``a·r·|I| + b·q (+ c·t(q))`` built from the cluster's rate constants,
   where ``|I|`` is the number of records the job reads.
4. **Rank**: sort ascending by total predicted cost (deterministic
   tie-break on ``(q, name)``) and return the ranked, executable plans.

This mirrors how PostBOUND structures pluggable cardinality bounds behind an
abstract optimizer interface: the planner owns the enumerate-and-bound loop
while the registry keeps the per-problem knowledge pluggable.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Tuple

from repro.core.cost import ClusterCostModel, CostBreakdown
from repro.core.problem import Problem
from repro.exceptions import BoundDerivationError, ConfigurationError, PlanningError
from repro.mapreduce.cluster import ClusterConfig
from repro.planner.plan import ExecutionPlan, PlanningResult, SweepPoint, SweepResult
from repro.planner.registry import PlanCandidate, SchemaRegistry, default_registry
from repro.stats.profile import DatasetProfile


class CostBasedPlanner:
    """Selects the cheapest feasible schema family for a problem.

    Parameters
    ----------
    registry:
        Schema registry to enumerate candidates from; defaults to the global
        registry populated with every family in :mod:`repro.schemas`.
    cost_model:
        Cost model used to price candidates.  When omitted, one is built per
        ``plan`` call from the cluster's ``communication_cost_per_record``
        (the ``a`` constant, per shuffled record) and
        ``worker_cost_per_unit`` (the ``b`` constant), so the cluster's
        pricing drives the choice.
    """

    def __init__(
        self,
        registry: Optional[SchemaRegistry] = None,
        cost_model: Optional[ClusterCostModel] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry
        self.cost_model = cost_model

    # ------------------------------------------------------------------
    # Alternative construction
    # ------------------------------------------------------------------
    @classmethod
    def min_replication(
        cls, registry: Optional[SchemaRegistry] = None
    ) -> "CostBasedPlanner":
        """A planner that minimizes replication rate subject to the budget.

        This is the paper's pure tradeoff question (ignore processor rental,
        minimize communication): rank candidates by ``r`` alone.  Useful for
        reproducing the figures, where the best algorithm *at* a reducer
        size is wanted rather than the globally cheapest configuration.
        """
        return cls(
            registry=registry,
            cost_model=ClusterCostModel(communication_rate=1.0, processing_rate=0.0),
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        problem: Problem,
        cluster: Optional[ClusterConfig] = None,
        q: Optional[float] = None,
        profile: Optional[DatasetProfile] = None,
        inputs: Optional[float] = None,
    ) -> PlanningResult:
        """Return ranked executable plans for ``problem`` under budget ``q``.

        Parameters
        ----------
        problem:
            The problem to plan for; its type selects the registered
            candidate builders.
        cluster:
            Target cluster.  Provides the default budget (its
            ``reducer_capacity``) and the cost-rate constants.  A default
            cluster is used when omitted.
        q:
            Reducer-size budget.  Falls back to ``cluster.reducer_capacity``
            and finally to the problem's input count (i.e. unconstrained).
        profile:
            Optional dataset statistics.  Profile-aware builders (the Shares
            join, sample graphs) then certify their candidates with
            per-bucket tail bounds on the *actual* instance instead of the
            model's full domain, rejecting candidates whose tail bound
            blows the budget and adding skew-resistant variants.  Each
            plan's :attr:`~repro.planner.plan.ExecutionPlan.certification`
            records which kind of bound its ``q`` is.  A profiled plan
            carries no ``lower_bound``: the paper's curve is a theorem
            about the model's full domain, and says nothing about a sparse
            instance's far fewer outputs.
        inputs:
            The records the job reads, ``|I|`` of the ``a·r·|I|``
            communication term every candidate is priced with.  Defaults to
            the profile's total rows when profiled, else
            ``problem.num_inputs``; a pipeline passes its own estimate for
            a round whose inputs are intermediates.
        """
        started = time.perf_counter()
        cluster = cluster or ClusterConfig()
        budget = self._resolve_budget(problem, cluster, q)
        candidates = self.registry.candidates(problem, budget, profile=profile)
        if not candidates:
            raise PlanningError(
                f"no registered schema family for {problem.name!r} fits within "
                f"the reducer-size budget q={budget:g}"
            )
        model = self.cost_model or ClusterCostModel(
            communication_rate=cluster.communication_cost_per_record,
            processing_rate=cluster.worker_cost_per_unit,
        )
        if inputs is None:
            inputs = float(
                problem.num_inputs
                if profile is None
                else sum(profile.row_counts().values())
            )
        priced = self._price(
            candidates, model, inputs, problem if profile is None else None
        )
        planning_seconds = time.perf_counter() - started
        ranked = [
            ExecutionPlan(
                problem=problem,
                candidate=candidate,
                cost=breakdown,
                cluster=cluster,
                lower_bound=lower,
                rank=rank,
                planning_seconds=planning_seconds,
            )
            for rank, (breakdown, lower, candidate) in enumerate(priced)
        ]
        return PlanningResult(
            problem=problem,
            q_budget=budget,
            cluster=cluster,
            plans=ranked,
        )

    # ------------------------------------------------------------------
    # Budget sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        problem: Problem,
        budgets: Iterable[float],
        cluster: Optional[ClusterConfig] = None,
        profile: Optional[DatasetProfile] = None,
    ) -> SweepResult:
        """Trace the achievable replication/q tradeoff curve in one call.

        Plans ``problem`` at every budget in ``budgets`` (deduplicated,
        ascending) and returns a :class:`SweepResult` whose
        :meth:`~repro.planner.plan.SweepResult.frontier` is the reproduced
        tradeoff curve — the winning plan, its replication rate, and the
        lower bound at each budget.  Budgets no registered candidate fits
        become infeasible points instead of aborting the sweep, so callers
        can probe below a family's minimum ``q`` safely.

        Candidate schema builds are shared across the budgets: the built-in
        builders memoize each (family, parameters) construction in
        :data:`~repro.planner.cache.default_schema_cache`, so an 8-budget
        sweep costs one enumeration's worth of schema building plus eight
        cheap feasibility filters — not eight rebuilds.  The same cache
        carries over between ``sweep`` and ``plan`` calls.
        """
        cluster = cluster or ClusterConfig()
        unique_budgets = sorted({float(budget) for budget in budgets})
        if not unique_budgets:
            raise ConfigurationError("sweep needs at least one budget")
        points: List[SweepPoint] = []
        for budget in unique_budgets:
            try:
                result = self.plan(problem, cluster, q=budget, profile=profile)
            except PlanningError as error:
                points.append(
                    SweepPoint(budget=budget, infeasible_reason=str(error))
                )
            else:
                points.append(SweepPoint(budget=budget, result=result))
        return SweepResult(problem=problem, cluster=cluster, points=points)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_budget(
        problem: Problem, cluster: ClusterConfig, q: Optional[float]
    ) -> float:
        if q is None:
            q = cluster.reducer_capacity
        if q is None:
            q = float(problem.num_inputs)
        if q <= 0:
            raise ConfigurationError(f"reducer-size budget must be positive, got {q}")
        return float(q)

    @staticmethod
    def _price(
        candidates: List[PlanCandidate],
        model: ClusterCostModel,
        inputs: float,
        bounded: Optional[Problem],
    ) -> List[Tuple[CostBreakdown, Optional[float], PlanCandidate]]:
        """``(cost, lower bound, candidate)`` per candidate, cheapest first.

        Ranked ascending by total predicted cost over ``inputs`` records
        (the price a pipeline sums per round), ties broken on
        ``(q, name)``.  One-round candidates carry ``bounded``'s lower
        bound at their ``q``; ``None`` (a profiled plan) and problems
        without ``g(q)`` give none.
        """
        priced: List[Tuple[CostBreakdown, Optional[float], PlanCandidate]] = []
        for candidate in candidates:
            rate = candidate.replication_rate
            # Certified candidates (profiled joins, sample graphs) carry a
            # load summary: the b·q term then prices the certified load —
            # the per-reducer profile when histograms were exact — instead
            # of the scalar bound.
            load = (
                candidate.certification.load
                if candidate.certification is not None
                else None
            )
            breakdown = model.cost_at(
                candidate.q, lambda _q: rate, load=load, inputs=inputs
            )
            lower = None
            # The Section 2.4 lower bound applies to one-round mapping
            # schemas; a multi-round algorithm under the one-round hyperbola
            # would appear to beat a proven bound, so it carries none (and
            # no gap).
            if bounded is not None and candidate.rounds == 1:
                try:
                    lower = bounded.replication_lower_bound(candidate.q)
                except (NotImplementedError, BoundDerivationError):
                    lower = None
            priced.append((breakdown, lower, candidate))
        priced.sort(key=lambda entry: (entry[0].total, entry[2].q, entry[2].name))
        return priced
