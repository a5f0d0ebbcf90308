"""The schema registry: which constructive algorithms serve which problems.

The planner needs, for a given :class:`~repro.core.problem.Problem`, the set
of schema families that could execute it within a reducer-size budget ``q``.
That knowledge is decentralized — each family in :mod:`repro.schemas` knows
its own feasibility and closed forms — so the registry collects it behind a
single lookup keyed by problem type.

A *candidate builder* is a function ``(problem, q, profile=None) ->
iterable of PlanCandidate`` registered for a problem class.  ``profile`` is
the caller's :class:`~repro.stats.profile.DatasetProfile` or ``None``;
builders whose certificates do not depend on data ignore it.  Lookup walks
the problem's MRO, so a builder registered for :class:`MultiwayJoinProblem`
also serves :class:`NaturalJoinProblem`.  The default registry is populated
by :mod:`repro.planner.builtins` with every family shipped in
:mod:`repro.schemas`; downstream code can register additional builders (new
problem families, custom schemas) without touching the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from repro.core.problem import Problem
from repro.exceptions import ConfigurationError, PlanningError
from repro.mapreduce.job import JobChain, MapReduceJob
from repro.planner.certify import Certification
from repro.stats.profile import DatasetProfile

#: A factory producing the executable work for a candidate.  It receives the
#: (possibly materialized) input records so that data-dependent jobs — the
#: Shares join, which must know the relation instances — can be built; most
#: families ignore the argument entirely.
JobFactory = Callable[[Sequence[Any]], Union[MapReduceJob, JobChain]]


@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated (algorithm, parameters) point on the tradeoff plane.

    Attributes
    ----------
    name:
        Human-readable algorithm name (e.g. ``splitting(b=24, c=3)``).
    q:
        Certified maximum reducer input size over the problem's full input
        domain.  Builders must guarantee ``q <= budget`` for every candidate
        they yield; for most families this is an exact closed form, for the
        Shares join it is the certified per-bucket bound on the profiled
        instance (the model's full domain when no profile was supplied),
        and ``certification.load`` carries the per-reducer load summary
        behind it.
    replication_rate:
        Replication rate of the construction (closed form, exact).
    job_factory:
        Builds the executable job or job chain; see :data:`JobFactory`.
    rounds:
        Number of map-reduce rounds the candidate needs (1 for mapping
        schemas, 2 for the two-phase matrix multiplication).
    family:
        The underlying schema-family object, when one exists, so callers can
        reach ``build()`` / ``validate()`` and family-specific knobs.
    needs_inputs:
        True when ``job_factory`` must receive the fully materialized input
        records (data-dependent jobs); False when inputs may stay streamed.
    certification:
        What kind of promise ``q`` makes — an exact worst-case bound or a
        high-probability tail bound from sampled statistics.  ``None`` is
        treated as exact by reports (the combinatorial families' closed
        forms are worst-case bounds by construction).
    """

    name: str
    q: float
    replication_rate: float
    job_factory: JobFactory
    rounds: int = 1
    family: Optional[Any] = None
    needs_inputs: bool = False
    certification: Optional[Certification] = None

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ConfigurationError(f"candidate {self.name!r} has non-positive q")
        if self.replication_rate < 0:
            raise ConfigurationError(
                f"candidate {self.name!r} has negative replication rate"
            )
        if self.rounds <= 0:
            raise ConfigurationError(f"candidate {self.name!r} has non-positive rounds")


CandidateBuilder = Callable[..., Iterable[PlanCandidate]]


class SchemaRegistry:
    """Mapping from problem types to candidate builders."""

    def __init__(self) -> None:
        #: Per problem class: ``(builder, declared floor)``.
        self._builders: Dict[Type[Problem], List[Tuple[CandidateBuilder, float]]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        problem_type: Type[Problem],
        builder: Optional[CandidateBuilder] = None,
        replication_floor: float = 0.0,
    ) -> Callable[[CandidateBuilder], CandidateBuilder]:
        """Register a candidate builder for a problem class.

        Usable directly (``registry.register(TriangleProblem, build_fn)``)
        or as a decorator (``@registry.register(TriangleProblem)``).

        ``replication_floor`` declares a fact: no candidate the builder
        yields replicates less (:meth:`candidates` checks it).  Searches
        pruning by a communication lower bound multiply by it; a builder
        declaring nothing (0.0) makes every such bound 0 and prunes nothing.
        """
        if not (isinstance(problem_type, type) and issubclass(problem_type, Problem)):
            raise ConfigurationError(
                f"can only register builders for Problem subclasses, "
                f"got {problem_type!r}"
            )

        def decorator(fn: CandidateBuilder) -> CandidateBuilder:
            self._builders.setdefault(problem_type, []).append(
                (fn, float(replication_floor))
            )
            return fn

        if builder is not None:
            return decorator(builder)
        return decorator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def builders_for(self, problem: Problem) -> List[CandidateBuilder]:
        """All builders applicable to ``problem``, most-specific type first."""
        return [entry[0] for entry in self._entries_for(problem)]

    def replication_floor(self, problem: Problem) -> float:
        """Least replication any candidate for ``problem`` can have: the
        minimum of its builders' declared floors, 0.0 once one declared none."""
        return min((entry[1] for entry in self._entries_for(problem)), default=0.0)

    def _entries_for(self, problem: Problem) -> List[Tuple[CandidateBuilder, float]]:
        found: List[Tuple[CandidateBuilder, float]] = []
        for klass in type(problem).__mro__:
            if klass in self._builders:
                found.extend(self._builders[klass])
        return found

    def supports(self, problem: Problem) -> bool:
        return bool(self.builders_for(problem))

    def problem_types(self) -> Tuple[Type[Problem], ...]:
        """Registered problem classes (for diagnostics and docs)."""
        return tuple(self._builders.keys())

    def candidates(
        self,
        problem: Problem,
        q: float,
        profile: Optional[DatasetProfile] = None,
    ) -> List[PlanCandidate]:
        """Enumerate every registered candidate within the budget ``q``.

        Candidates whose certified reducer size exceeds the budget are
        dropped here even if a builder mistakenly yields them, so the
        planner's feasibility invariant does not depend on builder
        discipline.  A candidate replicating less than the floor its
        builder declared raises instead: lower bounds were computed from
        that floor.  Duplicate names (e.g. the same family reachable through
        two builders) are collapsed, keeping the first occurrence.

        ``profile`` is forwarded to every builder; profile-aware builders
        re-certify their data-dependent candidates on it (and may enumerate
        profile-specific candidates like the skew-aware Shares grids).
        """
        if q <= 0:
            raise ConfigurationError(f"reducer-size budget q must be positive, got {q}")
        entries = self._entries_for(problem)
        if not entries:
            raise PlanningError(
                f"no schema families registered for problem type "
                f"{type(problem).__name__}; register a candidate builder for it"
            )
        seen: Dict[str, PlanCandidate] = {}
        for builder, floor in entries:
            for candidate in builder(problem, q, profile=profile):
                if candidate.replication_rate < floor:
                    raise ConfigurationError(
                        f"candidate {candidate.name!r} replicates "
                        f"{candidate.replication_rate:g}, below the floor "
                        f"{floor:g} its builder declared"
                    )
                if candidate.q > q + 1e-9:
                    continue
                if candidate.name not in seen:
                    seen[candidate.name] = candidate
        return list(seen.values())


#: The registry the default planner uses; populated by
#: :mod:`repro.planner.builtins` on package import.
default_registry = SchemaRegistry()


def thin_parameter_sweep(values: Sequence[int], keep: int = 32) -> List[int]:
    """Reduce a long sorted parameter sweep to a representative subset.

    Always keeps the two endpoints (the extremes of the tradeoff) and
    subsamples the interior geometrically, so enumeration stays cheap even
    for problems whose natural parameter ranges over thousands of values.
    """
    ordered = sorted(set(values))
    if len(ordered) <= keep or keep < 2:
        return ordered
    kept = {ordered[0], ordered[-1]}
    # Geometric interior subsample between the endpoints.
    low, high = ordered[0], ordered[-1]
    ratio = (high / max(low, 1)) ** (1.0 / (keep - 1))
    target = float(max(low, 1))
    for _ in range(keep):
        target *= ratio
        # Snap to the nearest actually-available value.
        nearest = min(ordered, key=lambda value: abs(value - target))
        kept.add(nearest)
    return sorted(kept)
