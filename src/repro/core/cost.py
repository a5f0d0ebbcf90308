"""The cluster cost model of Section 1.2 / Example 1.1.

Once the tradeoff function ``r = f(q)`` of a problem is known, running an
instance of ``|I|`` input records on a concrete cluster costs

    cost(q) = a * f(q) * |I| + b * q      (total computation cost)

or, when wall-clock time matters and the reducer runs an algorithm whose
time is some function ``t(q)`` (e.g. ``q^2`` for all-pairs reducers),

    cost(q) = a * f(q) * |I| + b * q + c * t(q)

The constants ``a``, ``b`` and ``c`` encode what the cluster provider (the
paper's EC2 example) charges for communication and processor rental;
``a`` is charged per shuffled record, and with ``|I| = 1`` it folds in the
data size, which is the paper's ``a * f(q) + b * q``.  This
module finds the ``q`` minimizing such expressions over either a continuous
range (golden-section search — the functions involved are unimodal for every
problem in the paper) or an explicit candidate set.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LoadSummary:
    """Certified per-reducer load information for one candidate schema.

    ``max_load`` is a certified upper bound on the fullest reducer;
    ``loads`` is the full per-reducer bound profile when the certifier
    could enumerate it (exact histograms over an enumerable grid), ``None``
    when only the maximum is certified.  The planner's certification layer
    produces these; the cost model consumes them to price the ``b·q`` term
    from what reducers will actually hold instead of the worst case.

    ``loads`` is kept *packed*: any sequence of numbers is accepted and
    stored as an ``array('d')`` (8 bytes per reducer, no boxed float each —
    the planner's schema cache retains one profile per certified
    candidate).  It indexes, iterates and sums like the tuple of floats it
    replaces but does not equal one: compare summaries, or
    ``tuple(summary.loads)``.  An array is unhashable, so the summary (and
    the certificates and plans holding it) hashes by ``max_load`` alone.
    """

    max_load: float
    loads: Optional[Sequence[float]] = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.max_load < 0:
            raise ConfigurationError(
                f"certified max load must be non-negative, got {self.max_load}"
            )
        if self.loads is not None and not isinstance(self.loads, array):
            object.__setattr__(self, "loads", array("d", self.loads))
        loads, top = self.loads, self.max_load
        if loads and not (0 <= min(loads) and max(loads) <= top):
            # effective_load()'s "never above the max" guarantee — and
            # cost_at's pricing invariants — rest on this.
            load = next(load for load in loads if not (0 <= load <= top))
            raise ConfigurationError(
                f"per-reducer load {load} outside [0, max_load={top}]"
            )

    @property
    def has_profile(self) -> bool:
        """Whether a full per-reducer load profile is available."""
        return self.loads is not None and len(self.loads) > 0

    @functools.cached_property
    def total_load(self) -> float:
        if not self.has_profile:
            return self.max_load
        return float(sum(self.loads))

    def effective_load(self) -> float:
        """The record-weighted mean reducer load ``Σ l² / Σ l``.

        The size of the reducer a uniformly random shuffled record lands
        in: equals the common size under perfect balance and is at most
        ``max_load``, so pricing processor work by it is never more
        pessimistic than pricing by the maximum.  Falls back to
        ``max_load`` when no per-reducer profile exists.  Summed once per
        summary: ranking prices every candidate by it on each (re-)plan.
        """
        return self._effective_load

    @functools.cached_property
    def _effective_load(self) -> float:
        if not self.has_profile:
            return self.max_load
        total = self.total_load
        if total <= 0:
            return 0.0
        # Builtin left-to-right ``sum`` over the packed floats, not numpy's
        # pairwise sum, which rounds differently and could reorder
        # near-tied candidates.
        return float(sum(load * load for load in self.loads)) / total


#: How a :class:`CostBreakdown`'s ``b·q`` term was priced.
PRICING_BOUND = "bound"
PRICING_CERTIFIED_MAX = "certified-max"
PRICING_CERTIFIED_LOAD = "certified-load"


@dataclass(frozen=True)
class CostBreakdown:
    """Cost of running the job with a particular reducer size ``q``.

    ``communication_cost`` is ``a·r·|I|`` over the ``inputs`` records the
    breakdown was priced at (``a·r`` with the paper's folded constant when
    ``inputs`` is 1).  ``pricing`` records what backed the processing term:
    ``"bound"`` (the candidate's scalar reducer-size bound — the paper's
    accounting), ``"certified-max"`` (a certified maximum load from a
    dataset profile) or ``"certified-load"`` (a certified per-reducer load
    profile; the processing term then uses the record-weighted mean load).
    """

    q: float
    replication_rate: float
    communication_cost: float
    processing_cost: float
    wall_clock_cost: float
    pricing: str = PRICING_BOUND

    @property
    def total(self) -> float:
        return self.communication_cost + self.processing_cost + self.wall_clock_cost


class ClusterCostModel:
    """Section 1.2 cost model ``a·r(q)·|I| + b·q (+ c·t(q))``.

    Parameters
    ----------
    communication_rate:
        The constant ``a`` — cost per shuffled key-value pair: a round that
        replicates each of its ``|I|`` input records ``r`` times ships
        ``r·|I|`` pairs.  :meth:`cost_at` prices ``|I| = 1`` unless told
        otherwise, so ``a`` then folds in the data size, as the paper notes.
    processing_rate:
        The constant ``b`` — cost per unit of reducer size ``q`` (total
        processor cost is proportional to ``q`` when per-reducer work is
        quadratic and the reducer count is inversely proportional to ``q``,
        as in Example 1.1).
    wall_clock_rate:
        The constant ``c`` of the optional single-reducer execution-time
        term.  Defaults to 0 (ignore wall-clock).
    reducer_time:
        The function ``t(q)`` multiplied by ``c``; defaults to ``q^2`` which
        is the all-pairs comparison cost used in Example 1.1.
    """

    def __init__(
        self,
        communication_rate: float,
        processing_rate: float,
        wall_clock_rate: float = 0.0,
        reducer_time: Callable[[float], float] = lambda q: q * q,
    ) -> None:
        if communication_rate < 0 or processing_rate < 0 or wall_clock_rate < 0:
            raise ConfigurationError("cost-rate constants must be non-negative")
        self.communication_rate = communication_rate
        self.processing_rate = processing_rate
        self.wall_clock_rate = wall_clock_rate
        self.reducer_time = reducer_time

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def cost_at(
        self,
        q: float,
        replication: Callable[[float], float],
        load: Optional[LoadSummary] = None,
        inputs: float = 1.0,
    ) -> CostBreakdown:
        """Evaluate the full cost expression at reducer size ``q``.

        Communication is ``(a·r)·inputs``: the pairs shipped when each of
        the ``inputs`` records entering the round is replicated ``r``
        times.  When a certified :class:`LoadSummary` is supplied, the
        ``b``-term prices the certified load instead of the scalar bound
        ``q``: the certified maximum when only that is known, or the
        record-weighted mean reducer load (``Σ l² / Σ l``, never above the
        maximum) when the certifier enumerated the full per-reducer
        profile.  The wall-clock term ``c·t(·)`` always tracks the slowest
        reducer, so it uses the certified maximum.  The resulting
        :class:`CostBreakdown` records which pricing applied.
        """
        if q <= 0:
            raise ConfigurationError(f"q must be positive, got {q}")
        if not 0 <= inputs < math.inf:
            raise ConfigurationError(
                f"inputs must be a non-negative finite record count, got {inputs}"
            )
        rate = float(replication(q))
        communication = self.communication_rate * rate * inputs
        if load is None:
            pricing = PRICING_BOUND
            processing_size = float(q)
            slowest = float(q)
        elif load.has_profile:
            pricing = PRICING_CERTIFIED_LOAD
            processing_size = load.effective_load()
            slowest = load.max_load
        else:
            pricing = PRICING_CERTIFIED_MAX
            processing_size = load.max_load
            slowest = load.max_load
        processing = self.processing_rate * processing_size
        wall_clock = (
            self.wall_clock_rate * float(self.reducer_time(slowest))
            if self.wall_clock_rate
            else 0.0
        )
        return CostBreakdown(
            q=float(q),
            replication_rate=rate,
            communication_cost=communication,
            processing_cost=processing,
            wall_clock_cost=wall_clock,
            pricing=pricing,
        )

    def total_cost(self, q: float, replication: Callable[[float], float]) -> float:
        return self.cost_at(q, replication).total

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def optimal_q_continuous(
        self,
        replication: Callable[[float], float],
        q_min: float,
        q_max: float,
        tolerance: float = 1e-6,
        max_iterations: int = 500,
    ) -> CostBreakdown:
        """Golden-section search for the cost-minimizing ``q`` in [q_min, q_max].

        All the ``f(q)`` curves in the paper are convex and decreasing while
        the ``b·q`` and ``c·t(q)`` terms are increasing, so the sum is
        unimodal and golden-section search converges to the global minimum.
        """
        if q_min <= 0 or q_max <= q_min:
            raise ConfigurationError(
                f"invalid search interval [{q_min}, {q_max}] for optimal q"
            )
        inverse_golden = (math.sqrt(5.0) - 1.0) / 2.0
        low, high = float(q_min), float(q_max)
        left = high - inverse_golden * (high - low)
        right = low + inverse_golden * (high - low)
        cost_left = self.total_cost(left, replication)
        cost_right = self.total_cost(right, replication)
        iterations = 0
        while high - low > tolerance and iterations < max_iterations:
            if cost_left <= cost_right:
                high, right, cost_right = right, left, cost_left
                left = high - inverse_golden * (high - low)
                cost_left = self.total_cost(left, replication)
            else:
                low, left, cost_left = left, right, cost_right
                right = low + inverse_golden * (high - low)
                cost_right = self.total_cost(right, replication)
            iterations += 1
        best_q = (low + high) / 2.0
        return self.cost_at(best_q, replication)

    def optimal_q_discrete(
        self,
        replication: Callable[[float], float],
        candidates: Iterable[float],
    ) -> CostBreakdown:
        """Pick the best ``q`` from an explicit candidate list.

        Useful when only specific reducer sizes are achievable by known
        algorithms (the dots on Fig. 1 rather than the whole hyperbola).
        """
        best: Optional[CostBreakdown] = None
        for q in candidates:
            breakdown = self.cost_at(q, replication)
            if best is None or breakdown.total < best.total:
                best = breakdown
        if best is None:
            raise ConfigurationError("candidate list for optimal q is empty")
        return best

    def sweep(
        self,
        replication: Callable[[float], float],
        q_values: Sequence[float],
    ) -> List[CostBreakdown]:
        """Evaluate the cost model over a sweep of reducer sizes."""
        return [self.cost_at(q, replication) for q in q_values]
