"""Profile-driven share-vector optimization for the Shares algorithm.

The Shares analysis poses a concrete optimization problem: given a reducer
budget ``k``, pick integer shares ``s_A ≥ 1`` with ``Π_A s_A ≤ k``
minimizing the communication

    C(s) = Σ_e  w_e · Π_{A ∉ A_e} s_A

where ``w_e`` is relation ``R_e``'s profiled row count (the model's
``n^arity`` on the exact full-domain profile the planner certifies against
when it has no data).  In log-shares ``x_A = ln s_A`` the objective
``Σ_e w_e · exp(Σ_{A∉e} x_A)`` is convex and the budget becomes the simplex
constraint ``Σ x_A = ln k, x ≥ 0``, so the continuous relaxation is solved
exactly by projected gradient descent (the Lagrangean stationarity
condition — every attribute with ``x_A > 0`` sees the same marginal
communication — is what the projection enforces at convergence).

Integers are recovered in three guarded steps:

1. **rounding** — every floor/ceil combination of the fractional
   coordinates (capped; plain rounding past the cap);
2. **repair** — while ``Π s > k``, decrement the largest share (never
   below 1), so the reducer budget is *never* exceeded and no share can
   reach 0; the invariant is asserted on every returned vector;
3. **local search** — hill-climb over ±1 neighbours inside the budget on
   the **certified maximum reducer load**
   (:func:`~repro.planner.certify.certify_max_reducer_load` — exact
   per-bucket tail bounds, the same certificates the planner enforces),
   profiled communication breaking ties.

The fixed grid (:func:`grid_share_vectors`: trivial, chain/star closed
forms, binary hash-join shapes and uniform shares on the shared
attributes) is defined here and nowhere else.  Its shapes for the budget,
repaired into it, seed the climb, so the winner is **never worse under the
certified bound than the best grid vector that fits the budget**.  After
the climb the whole sweep grid is certified as well, and the optimizer
returns as its ``frontier`` every vector it certified that no other beats
on replication rate, effective load and certified maximum — the three
numbers a :class:`~repro.core.cost.ClusterCostModel` prices a certified
candidate by — so the cheapest vector under any such cost model is in it.
The planner's Shares candidates are these frontiers and nothing else.
(Abo Khamis–Ngo–Suciu make the same move for worst-case-optimal joins:
instance statistics turn a shape-generic bound into a materially tighter
one.)
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.exceptions import ConfigurationError
from repro.planner.certify import Certification, certify_max_reducer_load
from repro.problems.joins import JoinQuery
from repro.schemas.join_shares import (
    SharesSchema,
    SkewAwareSharesSchema,
    binary_join_share_grid,
    chain_join_shares,
    shares_communication,
    star_join_shares,
)
from repro.stats.profile import DatasetProfile

#: Above this many fractional coordinates, rounding enumerates nothing and
#: falls back to nearest-integer rounding (2^10 combinations is the cap).
_MAX_ROUNDING_COORDINATES = 10

#: Hill-climbing steps before the local search gives up.
_MAX_LOCAL_SEARCH_STEPS = 64

#: The fixed grid: the reducer counts the planner optimizes for (and the
#: chain/star/binary shapes are taken at), and the uniform shares tried on
#: the join's shared attributes.
GRID_REDUCER_SWEEP = (2, 4, 8, 16, 27, 32, 64, 128, 256)
GRID_UNIFORM_SHARES = (2, 3, 4, 6, 8)
#: Uniform per-value sub-grid shares tried for heavy-hitter isolation —
#: the fixed sweep the skew-aware sub-grid optimizer must never lose to.
GRID_SKEW_SUBSHARES = (2, 4, 8)

ShareVector = Dict[str, int]
VectorKey = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class ShareOptimization:
    """The outcome of one share-vector optimization at one reducer budget.

    ``shares`` is the climb's winner (``Π ≤ budget`` guaranteed),
    ``continuous`` the Lagrangean relaxation's solution it was rounded
    from, ``score`` and ``certification`` the winner's certified maximum
    reducer load and certificate.  ``frontier`` holds every vector the
    optimization certified (seeds, climb and the sweep grid) that no other
    beats on replication rate, effective load and certified maximum, each
    with its certificate, ordered by those three.
    """

    shares: ShareVector
    continuous: Dict[str, float]
    score: float
    budget: int
    certification: Certification
    frontier: Tuple[Tuple[ShareVector, Certification], ...] = ()
    #: Wall-clock seconds this optimization took (relaxation + rounding +
    #: certification + hill-climb) — the quantity the cost model's
    #: ``planning_rate`` term prices so optimizer cost can be amortized.
    elapsed_seconds: float = 0.0

    @property
    def num_reducers(self) -> int:
        return share_product(self.shares)


class Certified(NamedTuple):
    """One certified schema, with the model-domain replication rate it ranks by."""

    schema: SharesSchema
    certification: Certification
    replication_rate: float


class CertificationCache:
    """Shares certificates over one profile, each schema certified once.

    Scoped to one candidate enumeration — one query, profile and domain
    size: every budget's optimization, its climb, the sweep grid and the
    heavy-hitter sub-grids certify through one instance, so no schema is
    certified twice, and all of them share the epsilon-free bucket-weight
    table (its cells depend on the profile alone, and an oracle records a
    sampled cell before looking it up, so sharing changes no certificate).
    ``grid`` is the query's sweep grid, built on first use.
    """

    def __init__(
        self, query: JoinQuery, profile: DatasetProfile, domain_size: int
    ) -> None:
        self.query = query
        self.profile = profile
        self.domain_size = domain_size
        self._buckets: Dict[Tuple, Tuple[float, ...]] = {}
        self._certified: Dict[Tuple, Certified] = {}

    @functools.cached_property
    def grid(self) -> List[ShareVector]:
        return grid_share_vectors(self.query)

    def shares(self, shares: Mapping[str, int]) -> Certified:
        """The Shares schema of ``shares``, certified."""
        return self._certify(
            (_vector_key(shares),),
            lambda: SharesSchema(self.query, shares, self.domain_size),
        )

    def skew_shares(
        self,
        shares: Mapping[str, int],
        skew_attribute: str,
        heavy_values: Sequence[int],
        heavy_shares: Mapping[str, int],
    ) -> Certified:
        """The heavy-hitter schema on main grid ``shares``, certified."""
        return self._certify(
            (
                _vector_key(shares),
                skew_attribute,
                tuple(heavy_values),
                _vector_key(heavy_shares),
            ),
            lambda: SkewAwareSharesSchema(
                self.query,
                shares,
                self.domain_size,
                skew_attribute=skew_attribute,
                heavy_values=heavy_values,
                heavy_shares=heavy_shares,
            ),
        )

    def _certify(self, key: Tuple, build: Callable[[], SharesSchema]) -> Certified:
        entry = self._certified.get(key)
        if entry is None:
            schema = build()
            entry = self._certified[key] = Certified(
                schema,
                certify_max_reducer_load(
                    schema, self.profile, bucket_cache=self._buckets
                ),
                schema.replication_rate_formula(),
            )
        return entry


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------
def relation_weights(query: JoinQuery, profile: DatasetProfile) -> Dict[str, float]:
    """Communication weight per relation: its profiled row count.

    Only the *query's* relations are weighted — a profile collected over a
    larger dataset may carry unrelated (and much bigger) relations whose
    counts would otherwise distort the relaxation's normalization.
    """
    counts = profile.row_counts()
    return {relation.name: float(counts[relation.name]) for relation in query.relations}


# ----------------------------------------------------------------------
# Continuous relaxation: projected gradient on log-shares
# ----------------------------------------------------------------------
def _project_simplex(values: Sequence[float], total: float) -> List[float]:
    """Euclidean projection onto ``{y ≥ 0, Σ y = total}`` (sort-based)."""
    ordered = sorted(values, reverse=True)
    cumulative = 0.0
    theta = 0.0
    for index, value in enumerate(ordered):
        cumulative += value
        candidate = (cumulative - total) / (index + 1)
        if value - candidate > 0:
            theta = candidate
    return [max(0.0, value - theta) for value in values]


def optimize_log_shares(
    query: JoinQuery,
    budget: int,
    weights: Mapping[str, float],
    iterations: int = 300,
    tolerance: float = 1e-10,
) -> Dict[str, float]:
    """Solve the continuous share relaxation; returns fractional shares.

    Minimizes ``Σ_e w_e exp(Σ_{A∉e} x_A)`` over the simplex
    ``Σ x = ln budget, x ≥ 0`` by projected gradient descent with
    backtracking line search.  The objective is convex (a positive sum of
    exponentials of linear forms) and the feasible set is a simplex, so
    the iteration converges to the global optimum; everything is
    deterministic.  Returned as ``{attribute: exp(x_A)}``.
    """
    if budget < 1:
        raise ConfigurationError(f"reducer budget must be >= 1, got {budget}")
    attributes = query.attributes
    log_budget = math.log(budget)
    if log_budget == 0.0 or not attributes:
        return {attribute: 1.0 for attribute in attributes}
    scale = max(weights.values(), default=1.0) or 1.0
    scaled = {name: weight / scale for name, weight in weights.items()}
    membership = {
        attribute: frozenset(
            relation.name
            for relation in query.relations
            if attribute in relation.attributes
        )
        for attribute in attributes
    }

    def objective_and_gradient(x: Sequence[float]) -> Tuple[float, List[float]]:
        assignment = dict(zip(attributes, x))
        value = 0.0
        per_relation: Dict[str, float] = {}
        for relation in query.relations:
            exponent = sum(
                assignment[attribute]
                for attribute in attributes
                if attribute not in relation.attributes
            )
            term = scaled[relation.name] * math.exp(exponent)
            per_relation[relation.name] = term
            value += term
        gradient = [
            sum(
                term
                for name, term in per_relation.items()
                if name not in membership[attribute]
            )
            for attribute in attributes
        ]
        return value, gradient

    # Start from the uniform interior point — strictly feasible, symmetric.
    x = [log_budget / len(attributes)] * len(attributes)
    value, gradient = objective_and_gradient(x)
    for _ in range(iterations):
        norm = math.sqrt(sum(g * g for g in gradient))
        if norm == 0.0:
            break
        step = log_budget / norm
        moved = False
        while step > 1e-14:
            trial = _project_simplex(
                [xi - step * gi for xi, gi in zip(x, gradient)], log_budget
            )
            trial_value, trial_gradient = objective_and_gradient(trial)
            if trial_value < value - tolerance:
                x, value, gradient = trial, trial_value, trial_gradient
                moved = True
                break
            step /= 2.0
        if not moved:
            break
    return {attribute: math.exp(xi) for attribute, xi in zip(attributes, x)}


# ----------------------------------------------------------------------
# Integer recovery: rounding, repair, local search
# ----------------------------------------------------------------------
def share_product(shares: Mapping[str, int]) -> int:
    product = 1
    for share in shares.values():
        product *= share
    return product


def repair_shares(shares: Mapping[str, int], budget: int) -> ShareVector:
    """Force ``Π s_A ≤ budget`` by decrementing the largest share.

    Shares below 1 are clamped up first, so a repaired vector can never
    contain 0; ties between equally-large shares break on the attribute
    name for determinism.  The budget invariant is asserted on the result
    — a violation here is a programming error, not an input error.
    """
    if budget < 1:
        raise ConfigurationError(f"reducer budget must be >= 1, got {budget}")
    repaired: ShareVector = {
        attribute: max(1, int(share)) for attribute, share in shares.items()
    }
    while share_product(repaired) > budget:
        attribute = max(
            (a for a in repaired if repaired[a] > 1),
            key=lambda a: (repaired[a], a),
        )
        repaired[attribute] -= 1
    assert share_product(repaired) <= budget, (
        f"share repair failed: {repaired} exceeds budget {budget}"
    )
    assert all(share >= 1 for share in repaired.values()), (
        f"share repair produced a zero share: {repaired}"
    )
    return repaired


def _rounding_candidates(
    continuous: Mapping[str, float], budget: int
) -> List[ShareVector]:
    """Floor/ceil combinations of the relaxation, each budget-repaired."""
    attributes = list(continuous)
    fractional = [
        attribute
        for attribute in attributes
        if abs(continuous[attribute] - round(continuous[attribute])) > 1e-9
    ]
    vectors: List[ShareVector] = []
    if len(fractional) > _MAX_ROUNDING_COORDINATES:
        vectors.append(
            {a: max(1, round(continuous[a])) for a in attributes}
        )
    else:
        choices = []
        for attribute in attributes:
            value = continuous[attribute]
            if attribute in fractional:
                choices.append(
                    sorted({max(1, math.floor(value)), max(1, math.ceil(value))})
                )
            else:
                choices.append([max(1, round(value))])
        for combination in itertools.product(*choices):
            vectors.append(dict(zip(attributes, combination)))
    return [repair_shares(vector, budget) for vector in vectors]


def grid_share_vectors(
    query: JoinQuery, budget: Optional[int] = None
) -> List[ShareVector]:
    """The fixed grid: trivial, chain/star closed forms, binary, uniform.

    Without ``budget``, the sweep grid: the chain/star closed forms and the
    binary hash-join / skew-splitting shapes (two-relation queries, through
    the one gate :func:`~repro.schemas.join_shares.binary_join_share_grid`)
    at every count of :data:`GRID_REDUCER_SWEEP`, plus every uniform share
    of :data:`GRID_UNIFORM_SHARES` on the shared attributes, as built.
    With ``budget``, the climb's seeds: the shapes at that one count and
    the uniform vectors that fit it, each repaired into the budget — the
    closed forms round *up* (``chain_join_shares(3, 8)`` yields 3×3 = 9
    reducers), and the optimizer must honour the budget.
    """
    reducer_counts = GRID_REDUCER_SWEEP if budget is None else (budget,)
    vectors: List[ShareVector] = [{a: 1 for a in query.attributes}]
    if query.name.startswith("chain-join"):
        for reducers in reducer_counts:
            vectors.append(chain_join_shares(query.num_relations, reducers))
    elif query.name.startswith("star-join"):
        for reducers in reducer_counts:
            vectors.append(star_join_shares(query.num_relations - 1, reducers))
    vectors.extend(binary_join_share_grid(query, reducer_counts))
    membership: Dict[str, int] = {}
    for relation in query.relations:
        for attribute in relation.attributes:
            membership[attribute] = membership.get(attribute, 0) + 1
    shared = {a for a, count in membership.items() if count >= 2}
    for share in GRID_UNIFORM_SHARES:
        uniform = {a: share if a in shared else 1 for a in query.attributes}
        if budget is None or share_product(uniform) <= budget:
            vectors.append(uniform)
    if budget is not None:
        vectors = [repair_shares(vector, budget) for vector in vectors]
    unique: Dict[VectorKey, ShareVector] = {}
    for vector in vectors:
        unique.setdefault(_vector_key(vector), vector)
    return list(unique.values())


def _neighbours(shares: ShareVector, budget: int) -> List[ShareVector]:
    """±1 moves on single coordinates that stay inside the budget."""
    product = share_product(shares)
    moves: List[ShareVector] = []
    for attribute in shares:
        share = shares[attribute]
        if share > 1:
            moves.append({**shares, attribute: share - 1})
        grown = product // share * (share + 1)
        if grown <= budget:
            moves.append({**shares, attribute: share + 1})
    return moves


def _vector_key(shares: Mapping[str, int]) -> VectorKey:
    return tuple(sorted(shares.items()))


def _frontier(
    entries: Iterable[Certified],
) -> Tuple[Tuple[ShareVector, Certification], ...]:
    """The entries no other beats on replication, effective and max load.

    Those three are all :meth:`~repro.core.cost.ClusterCostModel.cost_at`
    reads of a certified candidate, each priced by a non-negative rate, so
    a dropped entry never costs less than one kept.  Of entries equal on
    all three the first schema name stays, the planner's own tie-break.
    Sorted on the three, an entry is beaten exactly when a kept one is no
    worse on effective and maximum load.
    """
    ranked = sorted(
        (
            (
                rate,
                certification.load.effective_load(),
                certification.bound,
                schema.name,
            ),
            schema,
            certification,
        )
        for schema, certification, rate in entries
    )
    kept: List[Tuple[float, float]] = []
    frontier: List[Tuple[ShareVector, Certification]] = []
    for (_, effective, maximum, _), schema, certification in ranked:
        if not any(e <= effective and m <= maximum for e, m in kept):
            kept.append((effective, maximum))
            frontier.append((schema.shares, certification))
    return tuple(frontier)


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------
def optimize_shares(
    query: JoinQuery,
    budget: int,
    profile: DatasetProfile,
    domain_size: int,
    cache: Optional[CertificationCache] = None,
) -> ShareOptimization:
    """Choose Shares vectors for ``budget`` reducers, certified on ``profile``.

    Solves the continuous log-share relaxation under the profiled row
    counts, recovers integers (rounding + budget repair), seeds the pool
    with the fixed-grid vectors for the same budget and hill-climbs from
    the best by certified maximum reducer load, communication breaking
    ties — so the winner's certificate is never worse than the best grid
    vector's.  The whole sweep grid is then certified too, and the
    returned :class:`ShareOptimization` carries the winner
    (``Π s_A ≤ budget``, every share ≥ 1) and the ``frontier`` of
    everything certified.

    ``profile`` must cover the query's relations; ``domain_size`` fixes
    the schemas' model-domain replication rates.  ``cache`` shares
    certificates with other optimizations of the same query, profile and
    domain size (a caller sweeping many budgets certifies each schema
    once); by default the call certifies into a private one.
    """
    if budget < 1:
        raise ConfigurationError(f"reducer budget must be >= 1, got {budget}")
    if not profile.covers([relation.name for relation in query.relations]):
        raise ConfigurationError(
            "optimize_shares needs a profile covering every relation of "
            f"query {query.name!r}; scoring is by certified reducer load"
        )
    started = time.perf_counter()
    if cache is None:
        cache = CertificationCache(query, profile, domain_size)
    weights = relation_weights(query, profile)
    # What this optimization certified: the frontier is taken over these
    # alone, whatever else the shared cache holds.
    certified: List[Certified] = []
    scored: Dict[VectorKey, Tuple[float, float]] = {}

    def score(shares: ShareVector) -> Tuple[float, float]:
        key = _vector_key(shares)
        if key not in scored:
            certified.append(cache.shares(shares))
            bound = certified[-1].certification.bound
            scored[key] = (bound, shares_communication(query, shares, weights))
        return scored[key]

    continuous = optimize_log_shares(query, budget, weights)
    pool: Dict[VectorKey, ShareVector] = {}
    for vector in _rounding_candidates(continuous, budget):
        pool.setdefault(_vector_key(vector), vector)
    for vector in grid_share_vectors(query, budget):
        pool.setdefault(_vector_key(vector), vector)

    best = min(pool.values(), key=lambda v: (score(v), _vector_key(v)))
    # Hill-climb from the pool's winner: ±1 moves inside the budget, until
    # no neighbour improves the metric.  This is what lets the optimizer
    # escape bucket-alignment accidents the relaxation cannot see (a
    # neighbouring share can hash a heavy value into a lighter bucket).
    for _ in range(_MAX_LOCAL_SEARCH_STEPS):
        improved = False
        for neighbour in _neighbours(best, budget):
            if score(neighbour) < score(best):
                best = neighbour
                improved = True
        if not improved:
            break

    chosen = repair_shares(best, budget)
    for vector in cache.grid:
        score(vector)
    return ShareOptimization(
        shares=chosen,
        continuous=continuous,
        score=score(chosen)[0],
        budget=budget,
        certification=cache.shares(chosen).certification,
        frontier=_frontier(certified),
        elapsed_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Skew-aware sub-grid optimization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SkewShareOptimization:
    """Outcome of one heavy-hitter sub-grid optimization at one budget.

    ``shares`` is the main-grid vector (chosen by :func:`optimize_shares`
    at the same budget), ``heavy_shares`` the per-heavy-value sub-grid
    shares over the attributes co-occurring with the skew attribute, and
    ``score`` the winner's certified maximum reducer load over the full
    skew-aware schema (main grid and every sub-grid, broadcast cost
    included).
    """

    shares: ShareVector
    heavy_shares: ShareVector
    skew_attribute: str
    heavy_values: Tuple[int, ...]
    score: float
    budget: int
    certification: Certification
    elapsed_seconds: float = 0.0


def optimize_skew_shares(
    query: JoinQuery,
    budget: int,
    profile: DatasetProfile,
    domain_size: int,
    skew_attribute: str,
    heavy_values: Sequence[int],
    shares: Optional[Mapping[str, int]] = None,
    cache: Optional[CertificationCache] = None,
) -> SkewShareOptimization:
    """Hill-climb a *non-uniform* heavy-hitter sub-grid, certified.

    The fixed enumeration (:data:`GRID_SKEW_SUBSHARES` crossed with the
    grid share vectors) only ever tries the same sub-share on every
    co-occurring attribute, yet the heavy value's residual join is its own
    little Shares problem whose optimal grid is generally lopsided (a
    heavy FK value joining a wide dimension wants all its sub-shares on
    the dimension's key, none on payload attributes).  This optimizer
    scores whole :class:`~repro.schemas.join_shares.SkewAwareSharesSchema`
    instances by :func:`~repro.planner.certify.certify_max_reducer_load`
    — the exact per-bucket certificates the planner enforces, so broadcast
    cost and main-grid load are priced in, not just the sub-grid — and
    hill-climbs ±1 moves on individual sub-shares from the best seed.

    The seed pool always contains the uniform
    :data:`GRID_SKEW_SUBSHARES` vectors and the trivial all-ones vector,
    so the result is **never worse under the certified bound than the
    fixed sub-grid sweep** for the same main-grid vector.  Growth moves
    keep the sub-grid's reducer product within ``budget`` (the uniform
    seeds are exempt — the fixed sweep never budgeted them either, and
    dropping them would break the floor).

    ``shares`` optionally pins the main-grid vector; by default it is the
    certified winner of :func:`optimize_shares` at the same budget.
    ``profile`` must cover the query's relations — scoring is by
    certificate, which needs the histograms.  ``cache`` is as for
    :func:`optimize_shares`.
    """
    if budget < 1:
        raise ConfigurationError(f"reducer budget must be >= 1, got {budget}")
    if not profile.covers([relation.name for relation in query.relations]):
        raise ConfigurationError(
            "optimize_skew_shares needs a profile covering every relation of "
            f"query {query.name!r}; scoring is by certified reducer load"
        )
    if not heavy_values:
        raise ConfigurationError(
            "optimize_skew_shares needs at least one heavy value; use "
            "optimize_shares when the profile shows no skew"
        )
    started = time.perf_counter()
    co_occurring = tuple(
        dict.fromkeys(
            attribute
            for relation in query.relations
            if skew_attribute in relation.attributes
            for attribute in relation.attributes
            if attribute != skew_attribute
        )
    )
    if not co_occurring:
        raise ConfigurationError(
            f"skew attribute {skew_attribute!r} co-occurs with no other "
            "attribute; a sub-grid cannot spread its tuples"
        )
    if cache is None:
        cache = CertificationCache(query, profile, domain_size)
    if shares is not None:
        main_shares: ShareVector = repair_shares(shares, budget)
    else:
        main_shares = optimize_shares(
            query, budget, profile=profile, domain_size=domain_size, cache=cache
        ).shares

    def certified(heavy: ShareVector) -> Certified:
        return cache.skew_shares(main_shares, skew_attribute, heavy_values, heavy)

    def score(heavy: ShareVector) -> Tuple[float, float]:
        entry = certified(heavy)
        return (entry.certification.bound, entry.replication_rate)

    pool: Dict[VectorKey, ShareVector] = {}
    trivial = {attribute: 1 for attribute in co_occurring}
    pool[_vector_key(trivial)] = trivial
    for sub_share in GRID_SKEW_SUBSHARES:
        uniform = {attribute: sub_share for attribute in co_occurring}
        pool.setdefault(_vector_key(uniform), uniform)

    best = min(pool.values(), key=lambda v: (score(v), _vector_key(v)))
    for _ in range(_MAX_LOCAL_SEARCH_STEPS):
        improved = False
        for neighbour in _neighbours(best, max(budget, share_product(best))):
            if score(neighbour) < score(best):
                best = neighbour
                improved = True
        if not improved:
            break

    return SkewShareOptimization(
        shares=main_shares,
        heavy_shares=best,
        skew_attribute=skew_attribute,
        heavy_values=tuple(heavy_values),
        score=score(best)[0],
        budget=budget,
        certification=certified(best).certification,
        elapsed_seconds=time.perf_counter() - started,
    )
