"""The share optimizer's frontiers against the two candidate sources they replaced.

``join_candidates`` offers, per reducer budget, the share vectors
:func:`~repro.planner.share_opt.optimize_shares` certified that no other
beats on replication rate, effective load and certified maximum.  The
enumeration it replaced — the optimizer's single winner per budget *plus*
a fixed ``shares`` grid certified on the side — is kept here verbatim as
the oracle (``oracle_join_candidates`` with ``_share_vectors``, on a
registry of its own), and over the seeded cases of
``test_bound_first_planning`` × its five budgets × both of its cost
models two things are pinned, for the one-round plan and for the
pipeline planner's best structure:

1. **No decision costs more** — the new best's total is never above the
   oracle's.
2. **None becomes infeasible** — a decision the oracle can plan, the new
   enumeration plans too.

Tier-1 runs every seventh case; ``--full-sweep`` runs all 78.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.exceptions import PlanningError
from repro.pipeline import PipelinePlan, PipelinePlanner
from repro.planner import CostBasedPlanner, SchemaCache, SchemaRegistry, share_opt
from repro.planner import default_schema_cache as library_schema_cache
from repro.planner.builtins import (
    _certified_candidate,
    _model_domain_profile,
    _profiled_skew,
    _query_cache_key,
)
from repro.planner.certify import certify_max_reducer_load
from repro.planner.registry import PlanCandidate
from repro.planner.share_opt import (
    GRID_REDUCER_SWEEP,
    GRID_SKEW_SUBSHARES,
    GRID_UNIFORM_SHARES,
)
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.schemas.join_shares import (
    SharesSchema,
    SkewAwareSharesSchema,
    binary_join_share_grid,
    chain_join_shares,
    star_join_shares,
)
from repro.stats.profile import DatasetProfile
from test_bound_first_planning import CASES, FACTORS, MODELS, SIZE, TIER1_STRIDE, _setup

#: Every size bound the census plans equals the oracle registry's.
pytestmark = pytest.mark.usefixtures("size_bound_checks")

# ----------------------------------------------------------------------
# The oracle: the enumeration before the optimizer's frontiers
# ----------------------------------------------------------------------
#: The oracle's own build cache: its entry under an ``opt-shares`` key is
#: one candidate, the library's is a budget's frontier.
default_schema_cache = SchemaCache()
_SHARES_REDUCER_SWEEP = GRID_REDUCER_SWEEP
_SHARES_UNIFORM_SWEEP = GRID_UNIFORM_SHARES
_SKEW_SUBSHARE_SWEEP = GRID_SKEW_SUBSHARES


def optimize_shares(query, budget, profile, domain_size, bucket_cache):
    """The oracle's per-budget winner: the optimizer's, same seeds and climb."""
    return share_opt.optimize_shares(query, budget, profile, domain_size)


def optimize_skew_shares(query, budget, bucket_cache, **arguments):
    return share_opt.optimize_skew_shares(query, budget, **arguments)


def join_candidates(
    problem: MultiwayJoinProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    """Shares candidates, each certified by a per-bucket load bound.

    Every candidate's q is :func:`certify_max_reducer_load` on a profile:
    the caller's :class:`~repro.stats.profile.DatasetProfile` when it
    covers the query's relations, else the exact profile of the model's
    full domain.  A candidate whose bound blows the budget is rejected.
    Besides the fixed share-vector grid, the enumeration holds *optimized*
    share vectors chosen per reducer budget by the Lagrangean optimizer in
    :mod:`repro.planner.share_opt` (never worse than the best fixed-grid
    vector under the certified bound), and skew-resistant variants
    (profiled heavy hitters isolated onto dedicated sub-grids), which a
    uniform profile never enumerates.
    """
    query = problem.query
    query_key = _query_cache_key(query)
    names = [relation.name for relation in query.relations]
    if profile is None or not profile.covers(names):
        profile = default_schema_cache.get(
            ("model-domain-profile", query_key, problem.domain_size),
            lambda: _model_domain_profile(query, problem.domain_size),
        )
    fingerprint = profile.fingerprint()
    # The epsilon-free bucket-weight table every candidate kind below
    # shares: its cells depend on the profile alone, and an oracle records
    # a sampled cell before looking it up, so sharing changes no
    # certificate.  It lives for this call — cache hits rebuild nothing.
    bucket_cache: Dict[Any, Any] = {}

    def certified(shares: Dict[str, int]) -> PlanCandidate:
        schema = SharesSchema(query, shares, problem.domain_size)
        return _certified_candidate(
            schema,
            query,
            certify_max_reducer_load(schema, profile, bucket_cache=bucket_cache),
        )

    for shares in _share_vectors(query):
        shares_key = tuple(sorted(shares.items()))
        candidate = default_schema_cache.get(
            ("shares", query_key, problem.domain_size, shares_key, fingerprint),
            lambda shares=shares: certified(shares),
        )
        if candidate.q <= q:
            yield candidate

    def optimized(budget: int) -> PlanCandidate:
        # Cached under the profile fingerprint: the same (query, domain,
        # budget) under a different profile is a different optimization
        # problem and must never reuse a stale vector or certificate.
        return default_schema_cache.get(
            ("opt-shares", query_key, problem.domain_size, budget, fingerprint),
            lambda: _build_optimized_shares_candidate(
                problem, budget, profile, bucket_cache
            ),
        )

    for budget in _SHARES_REDUCER_SWEEP:
        candidate = optimized(budget)
        if candidate.q <= q:
            yield candidate
    yield from _skew_candidates(
        problem, q, profile, query_key, fingerprint, bucket_cache, optimized
    )


# -- profile-optimized share vectors ------------------------------------
def _build_optimized_shares_candidate(
    problem: MultiwayJoinProblem,
    budget: int,
    profile: DatasetProfile,
    bucket_cache: Dict[Any, Any],
) -> PlanCandidate:
    """Optimize a share vector for ``budget`` reducers, certified.

    The optimizer scores by the certified bound and hands back the
    winner's certification, so no second certification pass runs here;
    the candidate is named ``opt-shares[...]`` to stay distinguishable
    from the grid enumeration even when the optimizer lands on a grid
    point.
    """
    query = problem.query
    optimization = optimize_shares(
        query,
        budget,
        profile=profile,
        domain_size=problem.domain_size,
        bucket_cache=bucket_cache,
    )
    schema = SharesSchema(query, optimization.shares, problem.domain_size)
    schema.name = f"opt-{schema.name}"
    # The caller guarantees a covering profile, so the optimizer's metric
    # was the certified bound and the winner arrives certified.
    assert optimization.certification is not None
    return _certified_candidate(schema, query, optimization.certification)


def _skew_candidates(
    problem: MultiwayJoinProblem,
    q: float,
    profile: DatasetProfile,
    query_key: Tuple[Any, ...],
    fingerprint: int,
    bucket_cache: Dict[Any, Any],
    optimized: Callable[[int], PlanCandidate],
) -> Iterator[PlanCandidate]:
    """Heavy-hitter sub-grids: the fixed sweep, then one optimized per budget.

    ``optimized(budget)`` is the enumeration's (cached) ``opt-shares``
    candidate; its share vector is the main grid the sub-grid optimizer
    would otherwise re-derive with a second ``optimize_shares`` run.
    """
    query = problem.query
    selection = _profiled_skew(query, profile)
    if selection is None:
        return
    skew_attribute, heavy_values = selection
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
        return
    heavy_key = tuple(sorted(heavy_values, key=repr))

    def build(shares: Dict[str, int], heavy_shares: Dict[str, int]) -> PlanCandidate:
        schema = SkewAwareSharesSchema(
            query,
            shares,
            problem.domain_size,
            skew_attribute=skew_attribute,
            heavy_values=heavy_values,
            heavy_shares=heavy_shares,
        )
        return _certified_candidate(
            schema,
            query,
            certify_max_reducer_load(schema, profile, bucket_cache=bucket_cache),
        )

    for shares in _share_vectors(query):
        shares_key = tuple(sorted(shares.items()))
        for sub_share in _SKEW_SUBSHARE_SWEEP:
            heavy_shares = {attribute: sub_share for attribute in co_occurring}
            candidate = default_schema_cache.get(
                (
                    "skew-shares",
                    query_key,
                    problem.domain_size,
                    shares_key,
                    skew_attribute,
                    heavy_key,
                    sub_share,
                    fingerprint,
                ),
                lambda shares=shares, heavy_shares=heavy_shares: build(
                    shares, heavy_shares
                ),
            )
            if candidate.q <= q:
                yield candidate
    for budget in _SHARES_REDUCER_SWEEP:
        candidate = default_schema_cache.get(
            (
                "opt-skew-shares",
                query_key,
                problem.domain_size,
                budget,
                skew_attribute,
                heavy_key,
                fingerprint,
            ),
            lambda budget=budget: _build_optimized_skew_candidate(
                problem,
                budget,
                skew_attribute,
                heavy_values,
                profile,
                bucket_cache,
                optimized(budget).family.shares,
            ),
        )
        if candidate.q <= q:
            yield candidate


def _build_optimized_skew_candidate(
    problem: MultiwayJoinProblem,
    budget: int,
    skew_attribute: str,
    heavy_values: Tuple[int, ...],
    profile: DatasetProfile,
    bucket_cache: Dict[Any, Any],
    main_shares: Dict[str, int],
) -> PlanCandidate:
    """Optimize a non-uniform heavy-hitter sub-grid for ``budget``.

    The optimizer's seed pool contains the uniform sub-grid sweep, so this
    candidate's certified bound is never worse than the best fixed
    ``skew-shares`` candidate built on the same main-grid vector; the
    winner's certification is reused directly.  ``main_shares`` is what
    ``optimize_shares`` returns for the same budget and profile — a vector
    ``repair_shares`` leaves unchanged.
    """
    query = problem.query
    optimization = optimize_skew_shares(
        query,
        budget,
        profile=profile,
        domain_size=problem.domain_size,
        skew_attribute=skew_attribute,
        heavy_values=heavy_values,
        shares=main_shares,
        bucket_cache=bucket_cache,
    )
    schema = SkewAwareSharesSchema(
        query,
        optimization.shares,
        problem.domain_size,
        skew_attribute=skew_attribute,
        heavy_values=heavy_values,
        heavy_shares=optimization.heavy_shares,
    )
    schema.name = f"opt-{schema.name}"
    assert optimization.certification is not None
    return _certified_candidate(schema, query, optimization.certification)


def _share_vectors(query: JoinQuery) -> List[Dict[str, int]]:
    """Candidate share vectors: trivial, shape-specific, uniform-on-shared.

    Two-relation queries additionally enumerate the binary hash-join /
    skew-splitting shapes of :func:`binary_join_shares` — the shapes the
    multi-round pipeline planner's cascade rounds run on.
    """
    vectors: List[Dict[str, int]] = [{a: 1 for a in query.attributes}]
    if query.name.startswith("chain-join"):
        for reducers in _SHARES_REDUCER_SWEEP:
            vectors.append(chain_join_shares(query.num_relations, reducers))
    elif query.name.startswith("star-join"):
        num_dimensions = query.num_relations - 1
        for reducers in _SHARES_REDUCER_SWEEP:
            vectors.append(star_join_shares(num_dimensions, reducers))
    vectors.extend(binary_join_share_grid(query, _SHARES_REDUCER_SWEEP))
    membership: Dict[str, int] = {}
    for relation in query.relations:
        for attribute in relation.attributes:
            membership[attribute] = membership.get(attribute, 0) + 1
    shared = {a for a, count in membership.items() if count >= 2}
    for share in _SHARES_UNIFORM_SWEEP:
        vectors.append(
            {a: share if a in shared else 1 for a in query.attributes}
        )
    unique: Dict[Tuple[Tuple[str, int], ...], Dict[str, int]] = {}
    for vector in vectors:
        key = tuple(sorted(vector.items()))
        unique.setdefault(key, vector)
    return list(unique.values())



oracle_join_candidates = join_candidates
ORACLE = SchemaRegistry()
ORACLE.register(MultiwayJoinProblem, oracle_join_candidates, replication_floor=1.0)


# ----------------------------------------------------------------------
# The census
# ----------------------------------------------------------------------
def pytest_generate_tests(metafunc):
    if "case_index" in metafunc.fixturenames:
        full = metafunc.config.getoption("--full-sweep", default=False)
        indices = range(0, len(CASES), 1 if full else TIER1_STRIDE)
        metafunc.parametrize(
            "case_index", indices, ids=[CASES[index][0] for index in indices]
        )


def decisions(case_index):
    """``(budget, model, structure, oracle best, new best)`` per decision.

    A best is ``None`` where nothing fits the budget.
    """
    problem, profile = _setup(case_index)
    default_schema_cache.clear()
    library_schema_cache.clear()
    for factor in FACTORS:
        budget = factor * SIZE
        for model, make_planner in MODELS.items():
            cost_model = make_planner().cost_model
            planners = [
                CostBasedPlanner(registry=registry, cost_model=cost_model)
                for registry in (ORACLE, None)
            ]
            for structure in ("one-round", "pipeline"):
                bests = []
                for planner in planners:
                    if structure == "pipeline":
                        planner = PipelinePlanner(planner)
                    try:
                        best = planner.plan(problem, q=budget, profile=profile).best
                    except PlanningError:
                        best = None
                    bests.append(best)
                yield (budget, model, structure, *bests)


def total(best):
    """A one-round plan's ``cost.total``, a pipeline's ``total_cost``."""
    return best.total_cost if isinstance(best, PipelinePlan) else best.cost.total


def test_no_decision_costs_more_or_becomes_infeasible(case_index):
    for budget, model, structure, oracle, new in decisions(case_index):
        where = (budget, model, structure)
        if oracle is None:
            continue
        assert new is not None, where
        assert total(new) <= total(oracle), (where, oracle.name, new.name)
