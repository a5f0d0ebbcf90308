"""Built-in candidate builders: every family in :mod:`repro.schemas`.

Importing this module populates :data:`repro.planner.registry.default_registry`
with one builder per problem family of the paper:

========================  =====================================================
Problem type              Candidates enumerated
========================  =====================================================
TriangleProblem           partition schema over bucket counts ``k``
TwoPathProblem            middle-node/bucket-pair schema over ``k``
SampleGraphProblem        generalized partition schema over ``k``
HammingDistanceProblem    d=1: Splitting / pair-reducers / single-reducer /
                          weight-partition grids; d=2: segment deletion and
                          Ball-2; d>2: segment deletion
MultiwayJoinProblem       Shares over the share optimizer's vectors
MatrixMultiplicationPr.   one-phase tilings and the two-phase chain
WordCountProblem          direct per-word grouping (replication exactly 1)
GroupByAggregationProbl.  direct per-group aggregation, with/without combiner
========================  =====================================================

Every builder yields only candidates whose **certified** maximum reducer
size fits the budget, and every candidate carries a
:class:`~repro.planner.certify.Certification` naming the kind of promise.
For all single-round graph/Hamming/matmul families the certification is an
exact combinatorial bound over the problem's full input domain
(ceil-corrected where the closed forms use real-valued approximations).
The Shares join is always certified by per-bucket load bounds on a
:class:`~repro.stats.profile.DatasetProfile`: the planner's profile of the
actual instance (exact from full histograms, Hoeffding high-probability
from samples), or, without one, the exact profile of the model's full
domain.  The paper's Section 5.5 hash-balanced expectation is never
accepted as a bound, since unbalanced buckets exceed it.  Profile-aware
builders also enumerate skew-resistant candidates:
:class:`~repro.schemas.join_shares.SkewAwareSharesSchema` grids isolating
profiled heavy hitters, and degree-balanced non-uniform sample-graph
bucketings.

Candidate *builds* — constructing the schema-family object and evaluating
its certified size and replication closed forms, which for the weight-grid
(exact binomial populations) and Shares (per-bucket certification) families
is the expensive part of planning — are routed through
:data:`repro.planner.cache.default_schema_cache`.  The cache key is the
family tag plus every parameter that determines the build, so a
:meth:`CostBasedPlanner.sweep <repro.planner.planner.CostBasedPlanner.sweep>`
over many budgets, or repeated ``plan`` calls in a benchmark loop, performs
each build exactly once.  Only the budget *filter* runs per call.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datagen.relations import RelationInstance
from repro.exceptions import ConfigurationError
from repro.mapreduce.job import JobChain, MapReduceJob
from repro.planner.cache import default_schema_cache
from repro.planner.certify import certify_sample_graph_load, exact_certification
from repro.planner.registry import PlanCandidate, default_registry, thin_parameter_sweep
from repro.planner.share_opt import (
    GRID_REDUCER_SWEEP,
    GRID_SKEW_SUBSHARES,
    CertificationCache,
    ShareVector,
    optimize_shares,
    optimize_skew_shares,
)
from repro.stats.profile import AttributeProfile, DatasetProfile, RelationProfile
from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.hamming import HammingDistanceProblem
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.problems.subgraphs import SampleGraphProblem, TwoPathProblem
from repro.problems.triangles import TriangleProblem
from repro.problems.wordcount import WordCountProblem
from repro.schemas.hamming_distance_d import BallTwoSchema, SegmentDeletionSchema
from repro.schemas.hamming_splitting import (
    PairReducersSchema,
    SingleReducerSchema,
    SplittingSchema,
)
from repro.schemas.hamming_weight import HypercubeWeightSchema
from repro.schemas.join_shares import SharesSchema, SkewAwareSharesSchema
from repro.schemas.matmul_one_phase import OnePhaseTilingSchema
from repro.schemas.matmul_two_phase import TwoPhaseMatMulAlgorithm
from repro.schemas.sample_graphs import (
    PartitionSampleGraphSchema,
    degree_balanced_boundaries,
)
from repro.schemas.triangles import PartitionTriangleSchema
from repro.schemas.two_paths import TwoPathSchema

#: At most this many heavy values are isolated onto dedicated sub-grids.
_MAX_HEAVY_VALUES = 6
#: Non-uniform sample-graph bucketings tried per profiled graph.
_BALANCED_BUCKET_KEEP = 12


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _static_job(family: Any, **job_options: Any) -> Any:
    """Job factory for families whose job needs no input data."""

    def factory(_inputs: Sequence[Any]) -> MapReduceJob:
        return family.job(**job_options)

    return factory


def _exact_candidate(family: Any, q: float, **fields: Any) -> PlanCandidate:
    """A combinatorial family's candidate: closed-form ``q``, exact by construction.

    ``fields`` override the defaults (the family's replication closed form,
    its input-free job) for the few families that need to.
    """
    if "replication_rate" not in fields:
        fields["replication_rate"] = family.replication_rate_formula()
    fields.setdefault("job_factory", _static_job(family))
    certification = exact_certification(
        float(q), detail="combinatorial closed form", method="closed-form"
    )
    return PlanCandidate(
        name=family.name, q=float(q), family=family, certification=certification, **fields
    )


# ----------------------------------------------------------------------
# Triangles (Section 4)
# ----------------------------------------------------------------------
def _triangle_certified_q(n: int, k: int) -> int:
    """Exact bound on edges at one reducer: all pairs among its ≤3 buckets."""
    nodes = min(n, 3 * math.ceil(n / k))
    return math.comb(nodes, 2)


def _build_triangle_candidate(n: int, k: int) -> PlanCandidate:
    return _exact_candidate(PartitionTriangleSchema(n, k), _triangle_certified_q(n, k))


@default_registry.register(TriangleProblem)
def triangle_candidates(
    problem: TriangleProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    n = problem.n
    feasible = [k for k in range(1, n + 1) if _triangle_certified_q(n, k) <= q]
    for k in thin_parameter_sweep(feasible):
        yield default_schema_cache.get(
            ("triangle-partition", n, k),
            lambda n=n, k=k: _build_triangle_candidate(n, k),
        )


# ----------------------------------------------------------------------
# 2-paths (Section 5.4)
# ----------------------------------------------------------------------
def _two_path_certified_q(n: int, k: int) -> int:
    """Edges at reducer [u, {i, j}]: u to a node of bucket i or j."""
    return min(n - 1, 2 * math.ceil(n / k))


def _build_two_path_candidate(n: int, k: int) -> PlanCandidate:
    return _exact_candidate(TwoPathSchema(n, k), _two_path_certified_q(n, k))


@default_registry.register(TwoPathProblem)
def two_path_candidates(
    problem: TwoPathProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    n = problem.n
    feasible = [k for k in range(2, n + 1) if _two_path_certified_q(n, k) <= q]
    for k in thin_parameter_sweep(feasible):
        yield default_schema_cache.get(
            ("two-path", n, k),
            lambda n=n, k=k: _build_two_path_candidate(n, k),
        )


# ----------------------------------------------------------------------
# Arbitrary sample graphs (Section 5.2)
# ----------------------------------------------------------------------
def _sample_graph_certified_q(n: int, s: int, k: int) -> int:
    nodes = min(n, s * math.ceil(n / k))
    return math.comb(nodes, 2)


@default_registry.register(SampleGraphProblem)
def sample_graph_candidates(
    problem: SampleGraphProblem,
    q: float,
    profile: Optional[DatasetProfile] = None,
) -> Iterator[PlanCandidate]:
    """Uniform bucketings always; degree-balanced ones when profiled.

    The uniform candidates are certified over the model's full input domain
    (every edge present).  Given an exact graph profile (see
    :func:`~repro.stats.profile.profile_graph`), the builder additionally
    enumerates *non-uniform* contiguous bucketings whose cut points balance
    the instance's endpoint mass, certified with the same exact-histogram
    path the profiled joins use — so a skewed degree sequence no longer
    forces the planner onto needlessly fine uniform grids.
    """
    n = problem.n
    sample = problem.sample
    s = sample.num_nodes

    def build(k: int) -> PlanCandidate:
        return _exact_candidate(
            PartitionSampleGraphSchema(n, sample, k), _sample_graph_certified_q(n, s, k)
        )

    feasible = [
        k for k in range(1, n + 1) if _sample_graph_certified_q(n, s, k) <= q
    ]
    for k in thin_parameter_sweep(feasible):
        yield default_schema_cache.get(
            ("sample-graph", n, sample.name, sample.edges, k),
            lambda k=k: build(k),
        )
    if profile is not None:
        yield from _balanced_sample_graph_candidates(problem, q, profile)


def _graph_degrees(profile: DatasetProfile) -> Optional[Dict[int, int]]:
    """Per-node endpoint counts from an exact single-relation graph profile."""
    if len(profile.relations) != 1:
        return None
    relation = next(iter(profile.relations.values()))
    if set(relation.attributes) != {"u", "v"} or not relation.exact:
        return None
    degrees: Dict[int, int] = {}
    for attribute in ("u", "v"):
        for node, count in relation.attribute(attribute).histogram.items():
            degrees[node] = degrees.get(node, 0) + count
    return degrees


def _build_balanced_sample_graph_candidate(
    problem: SampleGraphProblem,
    k: int,
    boundaries: Tuple[int, ...],
    profile: DatasetProfile,
) -> PlanCandidate:
    family = PartitionSampleGraphSchema(
        problem.n, problem.sample, k, boundaries=boundaries
    )
    certification = certify_sample_graph_load(family, profile)
    return PlanCandidate(
        name=family.name,
        q=max(certification.bound, 1.0),
        replication_rate=family.replication_rate_formula(),
        job_factory=_static_job(family),
        family=family,
        certification=certification,
    )


def _balanced_sample_graph_candidates(
    problem: SampleGraphProblem, q: float, profile: DatasetProfile
) -> Iterator[PlanCandidate]:
    degrees = _graph_degrees(profile)
    if degrees is None:
        return
    n = problem.n
    fingerprint = profile.fingerprint()
    for k in thin_parameter_sweep(
        list(range(2, n + 1)), keep=_BALANCED_BUCKET_KEEP
    ):
        boundaries = degree_balanced_boundaries(degrees, n, k)
        candidate = default_schema_cache.get(
            (
                "sample-graph-balanced",
                n,
                problem.sample.name,
                problem.sample.edges,
                k,
                fingerprint,
            ),
            lambda k=k, boundaries=boundaries: _build_balanced_sample_graph_candidate(
                problem, k, boundaries, profile
            ),
        )
        if candidate.q <= q:
            yield candidate


# ----------------------------------------------------------------------
# Hamming distance (Section 3)
# ----------------------------------------------------------------------
@default_registry.register(HammingDistanceProblem)
def hamming_candidates(
    problem: HammingDistanceProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    if problem.distance == 1:
        yield from _hamming1_candidates(problem, q)
    else:
        yield from _hamming_d_candidates(problem, q)


def _build_splitting_candidate(b: int, c: int) -> PlanCandidate:
    return _exact_candidate(SplittingSchema(b, c), 2 ** (b // c))


def _build_pair_reducers_candidate(b: int) -> PlanCandidate:
    return _exact_candidate(PairReducersSchema(b), 2.0)


def _build_single_reducer_candidate(b: int) -> PlanCandidate:
    return _exact_candidate(SingleReducerSchema(b), 1 << b)


def _build_weight_grid_candidate(
    b: int, num_pieces: int, cell_width: int
) -> PlanCandidate:
    # The expensive Hamming build: exact binomial cell populations for the
    # certified size and the exact average replication.  Cached, this runs
    # once per (b, pieces, width) across every budget of a sweep.
    family = HypercubeWeightSchema(b, num_pieces, cell_width)
    return _exact_candidate(
        family,
        family.exact_max_reducer_size(),
        replication_rate=family.exact_replication_rate(),
    )


def _hamming1_candidates(
    problem: HammingDistanceProblem, q: float
) -> Iterator[PlanCandidate]:
    b = problem.b
    # Splitting family: one dot per divisor c of b, reducer size exactly
    # 2^(b/c).  c=1 is the single-reducer extreme, c=b the pair-reducers
    # extreme; the named extreme schemas are also offered for discoverability.
    for c in _divisors(b):
        if 2 ** (b // c) <= q:
            yield default_schema_cache.get(
                ("splitting", b, c),
                lambda b=b, c=c: _build_splitting_candidate(b, c),
            )
    if 2 <= q:
        yield default_schema_cache.get(
            ("hamming-pair-reducers", b),
            lambda b=b: _build_pair_reducers_candidate(b),
        )
    if (1 << b) <= q:
        yield default_schema_cache.get(
            ("hamming-single-reducer", b),
            lambda b=b: _build_single_reducer_candidate(b),
        )
    # Weight-grid family (Sections 3.4/3.5): replication below 2 with large
    # reducers.  Certified with the exact binomial cell populations, so the
    # candidate is built (through the cache) before the budget filter.
    for num_pieces in (2, 3, 4):
        if b % num_pieces != 0:
            continue
        piece = b // num_pieces
        for cell_width in _divisors(piece):
            if cell_width == piece and num_pieces > 2:
                continue  # degenerate single-cell grid; d=2 already covers it
            candidate = default_schema_cache.get(
                ("hamming-weight-grid", b, num_pieces, cell_width),
                lambda b=b, p=num_pieces, w=cell_width: _build_weight_grid_candidate(
                    b, p, w
                ),
            )
            if candidate.q <= q:
                yield candidate


def _build_segment_deletion_candidate(b: int, k: int, d: int) -> PlanCandidate:
    family = SegmentDeletionSchema(b, k, d)
    return _exact_candidate(
        family, 2 ** ((b // k) * d), job_factory=_static_job(family, emit_distance=d)
    )


def _build_ball_two_candidate(b: int) -> PlanCandidate:
    family = BallTwoSchema(b)
    # The stock Ball-2 job also emits distance-1 pairs (it covers both);
    # the planner serves the exact-distance problem.
    return _exact_candidate(
        family, b + 1, job_factory=_static_job(family, emit_distance=2)
    )


def _hamming_d_candidates(
    problem: HammingDistanceProblem, q: float
) -> Iterator[PlanCandidate]:
    b, d = problem.b, problem.distance
    for k in _divisors(b):
        if not d < k:
            continue
        if 2 ** ((b // k) * d) > q:
            continue
        yield default_schema_cache.get(
            ("segment-deletion", b, k, d),
            lambda b=b, k=k, d=d: _build_segment_deletion_candidate(b, k, d),
        )
    if d == 2 and b + 1 <= q:
        yield default_schema_cache.get(
            ("hamming-ball-2", b),
            lambda b=b: _build_ball_two_candidate(b),
        )


# ----------------------------------------------------------------------
# Matrix multiplication (Section 6)
# ----------------------------------------------------------------------
def _build_one_phase_candidate(n: int, s: int) -> PlanCandidate:
    return _exact_candidate(OnePhaseTilingSchema(n, s), 2 * s * n)


@default_registry.register(MatrixMultiplicationProblem)
def matmul_candidates(
    problem: MatrixMultiplicationProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    n = problem.n
    for s in _divisors(n):
        if 2 * s * n <= q:
            yield default_schema_cache.get(
                ("matmul-one-phase", n, s),
                lambda n=n, s=s: _build_one_phase_candidate(n, s),
            )
    best = _best_two_phase(n, q)
    if best is not None:
        yield default_schema_cache.get(
            ("matmul-two-phase-candidate", n, best.s, best.t),
            lambda best=best, n=n: _build_two_phase_candidate(best, n),
        )


def _build_two_phase_candidate(
    algorithm: TwoPhaseMatMulAlgorithm, n: int
) -> PlanCandidate:
    # Replication rate of a multi-round algorithm: total shuffled pairs
    # over the 2n² inputs, the same normalization Section 6.3 uses when
    # comparing against the one-phase method.
    return _exact_candidate(
        algorithm,
        _two_phase_certified_q(algorithm),
        replication_rate=algorithm.total_communication() / (2.0 * n * n),
        job_factory=_chain_job(algorithm),
        rounds=2,
    )


def _two_phase_certified_q(algorithm: TwoPhaseMatMulAlgorithm) -> int:
    """Largest reducer of either round: 2st in phase 1, n/t sums in phase 2."""
    return max(
        algorithm.first_phase_reducer_size,
        algorithm.n // algorithm.t,
    )


def _two_phase_cube(n: int, s: int, t: int) -> Tuple[TwoPhaseMatMulAlgorithm, int, int]:
    """One cached (algorithm, certified q, total communication) triple."""
    algorithm = TwoPhaseMatMulAlgorithm(n, s, t)
    return (
        algorithm,
        _two_phase_certified_q(algorithm),
        algorithm.total_communication(),
    )


def _best_two_phase(n: int, q: float) -> TwoPhaseMatMulAlgorithm | None:
    """Min-communication two-phase cubes whose reducers all fit in ``q``."""
    best: TwoPhaseMatMulAlgorithm | None = None
    best_communication: int | None = None
    for s in _divisors(n):
        for t in _divisors(n):
            algorithm, certified, communication = default_schema_cache.get(
                ("matmul-two-phase-cube", n, s, t),
                lambda n=n, s=s, t=t: _two_phase_cube(n, s, t),
            )
            if certified > q:
                continue
            if best_communication is None or communication < best_communication:
                best = algorithm
                best_communication = communication
    return best


def _chain_job(algorithm: TwoPhaseMatMulAlgorithm) -> Any:
    def factory(_inputs: Sequence[Any]) -> JobChain:
        return algorithm.chain()

    return factory


# ----------------------------------------------------------------------
# Multiway joins: the Shares algorithm (Section 5.5)
# ----------------------------------------------------------------------
def _query_cache_key(query: JoinQuery) -> Tuple[Any, ...]:
    """Structural identity of a join query: name plus relation schemas."""
    return (
        query.name,
        tuple(
            (relation.name, tuple(relation.attributes))
            for relation in query.relations
        ),
    )


def _certified_candidate(
    schema: SharesSchema, query: JoinQuery, certification: Any
) -> PlanCandidate:
    """A Shares candidate whose q *is* its profile certificate."""
    return PlanCandidate(
        name=schema.name,
        q=max(certification.bound, 1.0),
        replication_rate=schema.replication_rate_formula(),
        job_factory=_shares_job(schema, query),
        family=schema,
        needs_inputs=True,
        certification=certification,
    )


def _model_domain_profile(query: JoinQuery, domain_size: int) -> DatasetProfile:
    """The exact profile of the model's full input domain, built from counts.

    Relation ``R_e`` holds all ``n^arity`` tuples over ``range(n)``, so
    every value of each attribute occurs in ``n^(arity-1)`` of them.  No
    tuple is materialized; certifying against this profile bounds every
    reducer's load on the full domain, where the paper's Section 5.5
    expectation ignores unbalanced hash buckets.
    """
    n = domain_size
    relations = {}
    for relation in query.relations:
        rows = n ** relation.arity
        degree = n ** (relation.arity - 1)
        relations[relation.name] = RelationProfile(
            name=relation.name,
            total_rows=rows,
            attributes={
                attribute: AttributeProfile(
                    attribute=attribute,
                    total_count=rows,
                    distinct_estimate=float(n),
                    histogram={value: degree for value in range(n)},
                    max_degree=degree,
                )
                for attribute in relation.attributes
            },
        )
    return DatasetProfile(relations=relations)


# Every Shares variant sends each input to at least one grid point: the
# floor the pipeline planner's bound-first search prices rounds by.
@default_registry.register(MultiwayJoinProblem, replication_floor=1.0)
def join_candidates(
    problem: MultiwayJoinProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    """Shares candidates, each certified by a per-bucket load bound.

    Every candidate's q is
    :func:`~repro.planner.certify.certify_max_reducer_load` on a profile:
    the caller's :class:`~repro.stats.profile.DatasetProfile` when it
    covers the query's relations, else the exact profile of the model's
    full domain.  A candidate whose bound blows the budget is rejected.
    The share vectors are the optimizer's (:mod:`repro.planner.share_opt`):
    per reducer budget of the sweep, every vector it certified — its
    seeds, its climb and the fixed grid — that no other beats on
    replication rate, effective load and certified maximum, so the
    cheapest vector under any cluster cost model is offered; the union
    over the budgets holds each vector once.  Skew-resistant variants
    (profiled heavy hitters isolated onto dedicated sub-grids) follow,
    which a uniform profile never enumerates.  One
    :class:`~repro.planner.share_opt.CertificationCache` serves the whole
    enumeration, so no schema is certified twice.
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
    cache = CertificationCache(query, profile, problem.domain_size)

    def optimized(budget: int) -> Tuple[ShareVector, Tuple[PlanCandidate, ...]]:
        # Cached under the profile fingerprint: the same (query, domain,
        # budget) under a different profile is a different optimization
        # problem and must never reuse a stale vector or certificate.
        return default_schema_cache.get(
            ("opt-shares", query_key, problem.domain_size, budget, fingerprint),
            lambda: _build_optimized_shares_candidates(problem, budget, cache),
        )

    offered = set()
    for budget in GRID_REDUCER_SWEEP:
        for candidate in optimized(budget)[1]:
            if candidate.name not in offered and candidate.q <= q:
                offered.add(candidate.name)
                yield candidate
    yield from _skew_candidates(
        problem, q, query_key, fingerprint, cache, lambda budget: optimized(budget)[0]
    )


# -- profile-optimized share vectors ------------------------------------
def _build_optimized_shares_candidates(
    problem: MultiwayJoinProblem, budget: int, cache: CertificationCache
) -> Tuple[ShareVector, Tuple[PlanCandidate, ...]]:
    """The optimizer's winner for ``budget`` and its frontier as candidates.

    Each candidate carries the certificate the optimizer certified it
    with, and is named ``opt-shares[...]`` after its source.
    """
    query = problem.query
    optimization = optimize_shares(
        query, budget, cache.profile, problem.domain_size, cache=cache
    )
    candidates = []
    for shares, certification in optimization.frontier:
        schema = SharesSchema(query, shares, problem.domain_size)
        schema.name = f"opt-{schema.name}"
        candidates.append(_certified_candidate(schema, query, certification))
    return optimization.shares, tuple(candidates)


# -- profiled heavy-hitter isolation -----------------------------------
def _profiled_skew(
    query: JoinQuery, profile: DatasetProfile
) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """Pick the most skewed shared attribute and its heavy values.

    A value counts as heavy when its guaranteed lower-bound frequency in
    some relation is at least three times that column's average frequency
    (and at least 4), i.e. when hash balancing provably cannot spread it.
    Returns ``None`` when the profile shows no such value — uniform inputs
    then plan exactly as before, with no skew candidates enumerated.
    """
    membership: Dict[str, int] = {}
    for relation in query.relations:
        for attribute in relation.attributes:
            membership[attribute] = membership.get(attribute, 0) + 1
    best: Optional[Tuple[str, Tuple[int, ...]]] = None
    best_score = 0.0
    for attribute in query.attributes:
        if membership[attribute] < 2:
            continue
        found: Dict[int, float] = {}
        for relation in query.relations:
            if attribute not in relation.attributes:
                continue
            stats = profile.relation(relation.name).attribute(attribute)
            if stats.total_count == 0:
                continue
            average = stats.total_count / max(stats.distinct_estimate, 1.0)
            threshold = max(4.0, 3.0 * average)
            for value, count in stats.top_values(_MAX_HEAVY_VALUES):
                if count >= threshold:
                    found[value] = max(found.get(value, 0.0), float(count))
        if not found:
            continue
        score = max(found.values())
        if score > best_score:
            ranked = sorted(found.items(), key=lambda item: (-item[1], repr(item[0])))
            values = tuple(value for value, _ in ranked[:_MAX_HEAVY_VALUES])
            best = (attribute, values)
            best_score = score
    return best


def _skew_candidates(
    problem: MultiwayJoinProblem,
    q: float,
    query_key: Tuple[Any, ...],
    fingerprint: int,
    cache: CertificationCache,
    main_shares: Callable[[int], ShareVector],
) -> Iterator[PlanCandidate]:
    """Heavy-hitter sub-grids: the fixed sweep, then one optimized per budget.

    ``main_shares(budget)`` is the enumeration's (cached) optimizer winner
    for the budget: the main grid the sub-grid optimizer would otherwise
    re-derive with a second ``optimize_shares`` run.
    """
    query = problem.query
    selection = _profiled_skew(query, cache.profile)
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

    def build(shares: ShareVector, heavy_shares: ShareVector) -> PlanCandidate:
        schema, certification, _ = cache.skew_shares(
            shares, skew_attribute, heavy_values, heavy_shares
        )
        return _certified_candidate(schema, query, certification)

    for shares in cache.grid:
        shares_key = tuple(sorted(shares.items()))
        for sub_share in GRID_SKEW_SUBSHARES:
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
    for budget in GRID_REDUCER_SWEEP:
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
                cache,
                main_shares(budget),
            ),
        )
        if candidate.q <= q:
            yield candidate


def _build_optimized_skew_candidate(
    problem: MultiwayJoinProblem,
    budget: int,
    skew_attribute: str,
    heavy_values: Tuple[int, ...],
    cache: CertificationCache,
    main_shares: ShareVector,
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
        profile=cache.profile,
        domain_size=problem.domain_size,
        skew_attribute=skew_attribute,
        heavy_values=heavy_values,
        shares=main_shares,
        cache=cache,
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
    return _certified_candidate(schema, query, optimization.certification)


def _shares_job(schema: SharesSchema, query: JoinQuery) -> Any:
    def factory(records: Sequence[Any]) -> MapReduceJob:
        return schema.job(_relations_from_records(query, records))

    return factory


def _relations_from_records(
    query: JoinQuery, records: Sequence[Tuple[str, Tuple[int, ...]]]
) -> List[RelationInstance]:
    """Reassemble relation instances from ``(relation name, tuple)`` records."""
    fragments: Dict[str, set] = {relation.name: set() for relation in query.relations}
    for name, row in records:
        if name not in fragments:
            raise ConfigurationError(
                f"input record names relation {name!r}, which is not part of "
                f"join query {query.name!r}"
            )
        fragments[name].add(tuple(row))
    return [
        RelationInstance(
            name=relation.name,
            attributes=relation.attributes,
            tuples=tuple(sorted(fragments[relation.name])),
        )
        for relation in query.relations
    ]


# ----------------------------------------------------------------------
# Word count and grouping (Examples 2.4 / 2.5): trivially parallel
# ----------------------------------------------------------------------
# These candidates are *data-dependent* (word count's certified reducer size
# is the corpus's peak word multiplicity), so they are built per problem
# instance rather than through the parameter-keyed schema cache — the build
# is one linear scan, cheap next to the combinatorial families above.  They
# exist so the sweep API covers the embarrassingly parallel corner of the
# model end to end: replication is identically 1 at every feasible budget,
# the flat tradeoff "curve" the paper contrasts with Figure 1's hyperbola.
@default_registry.register(WordCountProblem)
def wordcount_candidates(
    problem: WordCountProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    peak = problem.peak_multiplicity
    if peak <= q:
        yield PlanCandidate(
            name=f"word-count-direct(peak={peak})",
            q=float(peak),
            replication_rate=1.0,
            job_factory=lambda _inputs, problem=problem: problem.job(),
            certification=exact_certification(
                float(peak), detail="corpus peak word multiplicity"
            ),
        )


@default_registry.register(GroupByAggregationProblem)
def grouping_candidates(
    problem: GroupByAggregationProblem, q: float, profile: Optional[DatasetProfile] = None
) -> Iterator[PlanCandidate]:
    # A group's reducer receives every domain tuple sharing its A-value:
    # exactly |B| inputs.  With a combiner the pairs crossing the shuffle
    # shrink (one partial sum per map task per group), but |B| stays the
    # certified worst case, so both variants share the same q.
    group_size = problem.b_domain_size
    if group_size <= q:
        for use_combiner in (True, False):
            suffix = "combiner" if use_combiner else "no-combiner"
            yield PlanCandidate(
                name=f"group-by-direct({suffix})",
                q=float(group_size),
                replication_rate=1.0,
                job_factory=lambda _inputs, problem=problem, u=use_combiner: (
                    problem.job(use_combiner=u)
                ),
                certification=exact_certification(
                    float(group_size), detail="one group per reducer, |B| inputs"
                ),
            )
