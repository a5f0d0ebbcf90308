"""The four workloads: what one op is, what it is checked against, and
which single-layer calls the traced run times on the op's inputs.

Sizes are fixed here, not configurable: a benchmark whose inputs move is a
different benchmark.  ``tiny=True`` is the ``--selftest`` scale only.
Everything random derives from the workload seed; the program under test
receives only the generated inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from harness import OpResult, Workload

from repro.bounds import cover_cache_stats
from repro.datagen.graphs import gnm_random_graph
from repro.datagen.matrices import integer_matrix, multiplication_records, records_to_matrix
from repro.datagen.relations import multiway_join_oracle, skewed_chain_join_instance
from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.pipeline import PipelinePlanner
from repro.pipeline.estimate import SizeEstimator
from repro.pipeline.logical import enumerate_join_trees
from repro.planner import CostBasedPlanner, default_schema_cache
from repro.planner.certify import certify_max_reducer_load
from repro.planner.share_opt import optimize_shares
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.schemas import SharesSchema
from repro.schemas.triangles import PartitionTriangleSchema
from repro.service import QueryService
from repro.stats import profile_relations


def _observed(obs: Any) -> Dict[str, Any]:
    """``ClusterConfig`` keywords that route the program's spans to ``obs``."""
    return {} if obs is None else {"tracer": obs.tracer, "metrics": obs.metrics}


def _cache_delta(before: Any, after: Any) -> Tuple[int, int, int]:
    """(hits, misses, evictions) between two ``CacheStats`` of one cache."""
    return after.hits - before.hits, after.misses - before.misses, after.evictions - before.evictions


def triangles_by_intersection(edges: Sequence[Tuple[int, int]]) -> Set[Tuple[int, int, int]]:
    """Every triangle ``(a < b < c)``, by neighbour-set intersection.

    The benchmark's own oracle: independent of the program under test and
    ~50x faster at this density than the clique enumeration behind
    ``enumerate_triangles_oracle`` (26 s on the 30 000-edge graph), which
    ``--selftest`` cross-checks it against on a small graph.
    """
    higher: Dict[int, Set[int]] = {}
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        higher.setdefault(a, set()).add(b)
    empty: Set[int] = set()
    return {
        (a, b, c)
        for a, neighbours in higher.items()
        for b in neighbours
        for c in neighbours & higher.get(b, empty)
    }


# ----------------------------------------------------------------------
# tri-records / tri-columnar
# ----------------------------------------------------------------------
class TriangleWorkload(Workload):
    """One partition-triangle job over one random graph, on one data plane."""

    plane = ""
    min_ops = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.nodes, self.edge_count, self.groups = (60, 600, 3) if tiny else (400, 30000, 6)

    def _run(self, plane: str, rec: Any, obs: Any) -> Any:
        with rec.span("schemas.family_build"):
            family = PartitionTriangleSchema(self.nodes, self.groups)
        with rec.span("schemas.job_build"):
            job = family.job()
        engine = MapReduceEngine(ClusterConfig(data_plane=plane, **_observed(obs)))
        return engine.run(job, self.edges)

    def setup(self, rec: Any) -> None:
        with rec.span("datagen.generate"):
            self.edges = gnm_random_graph(self.nodes, self.edge_count, self.seed)
        oracle = triangles_by_intersection(self.edges)
        # The reference is the record plane's output list, itself verified
        # against the oracle; both planes must then reproduce it bit for bit.
        reference = self._run("records", rec, None)
        if len(reference.outputs) != len(oracle) or set(reference.outputs) != oracle:
            raise SystemExit(f"{self.name}: record-plane reference disagrees with the triangle oracle")
        self.reference_outputs = reference.outputs
        self.reference_summary = reference.metrics.summary()
        if self.plane != "records":
            self._run(self.plane, rec, None)  # warm-up op (the reference run warms the record plane)

    def op(self, index: int, rec: Any, obs: Any) -> OpResult:
        result = self._run(self.plane, rec, obs)
        return OpResult(result, [result.metrics])

    def check(self, index: int, result: OpResult) -> bool:
        job = result.payload
        return job.outputs == self.reference_outputs and job.metrics.summary() == self.reference_summary

    def corrupt_reference(self) -> None:
        self.reference_outputs = self.reference_outputs[:-1]


class TriRecords(TriangleWorkload):
    name = "tri-records"
    plane = "records"


class TriColumnar(TriangleWorkload):
    name = "tri-columnar"
    plane = "columnar"


# ----------------------------------------------------------------------
# plan-chain
# ----------------------------------------------------------------------
class PlanChain(Workload):
    """Plan one fresh skewed 3-chain join from cold caches, then run it."""

    name = "plan-chain"
    min_ops = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        # Skew 1.6 rather than the 1.2 of the legacy benches: at 1.2 the top
        # value sits near the planner's heavy-hitter threshold, so one
        # instance in ten enumerates 40 % fewer or more candidates and run
        # medians then depend on which instances a seed happened to draw.
        self.relations, self.size, self.domain, self.skew = (2, 20, 8, 1.6) if tiny else (3, 40, 16, 1.6)
        self.budget = 4.0 * self.size
        self.problem = MultiwayJoinProblem(JoinQuery.chain(self.relations), domain_size=self.domain)
        self.corrupt = False

    def _instance(self, index: int) -> List[Any]:
        # A new instance per op: a plan memo keyed on the data must miss here.
        return skewed_chain_join_instance(
            self.relations, self.size, self.domain, skew=self.skew,
            seed=self.seed * 100_003 + 7 * (index + 1),
        )

    def setup(self, rec: Any) -> None:
        warm_up = self.op(-1, rec, None)
        if not self.check(-1, warm_up):
            raise SystemExit(f"{self.name}: warm-up op disagrees with the join oracle")

    def op(self, index: int, rec: Any, obs: Any) -> OpResult:
        cover_before = cover_cache_stats()
        default_schema_cache.clear()
        with rec.span("datagen.generate"):
            relations = self._instance(index)
        with rec.span("stats.profile"):
            profile = profile_relations(relations)
        cluster = ClusterConfig(**_observed(obs)) if obs is not None else None
        with rec.span("pipeline.plan"):
            planned = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
                self.problem, cluster, q=self.budget, profile=profile
            )
        records = SharesSchema.input_records(relations)
        with rec.span("pipeline.execute_best"):
            run = planned.best.execute(records)
        schema_cache = default_schema_cache.stats()
        cover = _cache_delta(cover_before, cover_cache_stats())
        layer = {
            "stats.profile_rows": float(len(records)),
            "pipeline.structures": float(len(planned.plans)),
            "pipeline.rounds": float(len(run.executed)),
            "planner.schema_cache_hits": float(schema_cache.hits),
            "planner.schema_cache_misses": float(schema_cache.misses),
            "planner.schema_cache_evictions": float(schema_cache.evictions),
            "bounds.cover_cache_hits": float(cover[0]),
            "bounds.cover_cache_misses": float(cover[1]),
        }
        payload = {"relations": relations, "profile": profile, "planned": planned, "records": records, "run": run}
        return OpResult(payload, [job.metrics for job in run.result.round_results], layer)

    def check(self, index: int, result: OpResult) -> bool:
        _, oracle = multiway_join_oracle(result.payload["relations"])
        expected = sorted(oracle)[:-1] if self.corrupt else sorted(oracle)
        return sorted(result.payload["run"].outputs) == expected

    def corrupt_reference(self) -> None:
        self.corrupt = True

    def probes(self, index: int, rec: Any, result: OpResult) -> Dict[str, float]:
        profile, planned, records = (result.payload[key] for key in ("profile", "planned", "records"))
        query = self.problem.query
        with rec.span("bounds.estimate"):
            estimator = SizeEstimator(query, self.domain, profile)
            estimator.query_output_bound()
            for tree in enumerate_join_trees(query):
                for node in tree.post_order():
                    estimator.estimate(node)
        default_schema_cache.clear()
        with rec.span("planner.plan"):
            one_round = CostBasedPlanner.min_replication().plan(self.problem, None, q=self.budget, profile=profile)
        with rec.span("planner.certify"):
            certify_max_reducer_load(one_round.best.family, profile)
        with rec.span("planner.share_opt"):
            optimize_shares(query, 16, profile=profile, domain_size=self.domain)
        with rec.span("pipeline.cascade_execute"):
            cascade_run = planned.cascades()[0].execute(records)
        return {
            "planner.candidates": float(len(one_round)),
            "pipeline.replans": float(cascade_run.replan_count),
        }


# ----------------------------------------------------------------------
# service-burst
# ----------------------------------------------------------------------
#: Admission capacity as a multiple of the mix's largest round price: roomy
#: enough that rounds overlap, tight enough that queueing happens.
CAPACITY_FACTOR = 1.5


class ServiceBurst(Workload):
    """One burst of mixed queries through a fresh ``QueryService``.

    The ``build_workload(quick=True)`` mix of ``bench_service_throughput``
    re-implemented here: three skewed 3-chain cascades, a two-phase matrix
    product and a group-by-sum, submitted round-robin from one thread.

    The three join instances are pinned (library seeds 7 / 11 / 13) whatever
    the workload seed: whether an instance re-plans mid-flight is a property
    of its data, and one more re-planning template doubles the cost of a
    burst, so seeded join data would make two seeds two different
    workloads.  The seed draws the matrices and the group-by relation.
    """

    name = "service-burst"
    threads = 2
    min_ops = 3
    join_seeds = (7, 11, 13)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.relations, self.size, self.domain, self.copies = (2, 20, 8, 2) if tiny else (3, 60, 24, 32)
        self.matrix_n = 4 if tiny else 8
        self.replays: Dict[Tuple[str, float], List[Any]] = {}

    def _plan(self, problem: Any, q: float, profile: Any = None) -> Any:
        return PipelinePlanner(CostBasedPlanner.min_replication()).plan(problem, None, q=q, profile=profile)

    def setup(self, rec: Any) -> None:
        rng = random.Random(self.seed)
        templates: List[Dict[str, Any]] = []
        for join_seed in self.join_seeds[: 1 if self.tiny else None]:
            with rec.span("datagen.generate"):
                relations = skewed_chain_join_instance(
                    self.relations, self.size, self.domain, skew=1.2, seed=join_seed
                )
            with rec.span("stats.profile"):
                profile = profile_relations(relations)
            problem = MultiwayJoinProblem(JoinQuery.chain(self.relations), domain_size=self.domain)
            with rec.span("pipeline.plan"):
                planned = self._plan(problem, 4.0 * self.size, profile)
            _, oracle = multiway_join_oracle(relations)
            templates.append({
                "name": f"join-s{join_seed}",
                "plan": planned.cascades()[0],
                "records": SharesSchema.input_records(relations),
                "oracle": sorted(oracle),
                "priority": 1.0,
            })
        n = self.matrix_n
        with rec.span("datagen.generate"):
            left = integer_matrix(n, seed=rng.randrange(2**31), low=1, high=5)
            right = integer_matrix(n, seed=rng.randrange(2**31), low=1, high=5)
            grouped = [(rng.randrange(8), rng.randrange(50)) for _ in range(1200)]
        products = self._plan(MatrixMultiplicationProblem(n), float(n * n))
        templates.append({
            "name": "matmul-2phase",
            "plan": next(plan for plan in products if plan.op.phases == 2),
            "records": multiplication_records(left, right),
            "oracle": left @ right,
            "priority": 2.0,
        })
        sums: Dict[int, int] = {}
        for key, value in grouped:
            sums[key] = sums.get(key, 0) + value
        templates.append({
            "name": "group-by-sum",
            "plan": self._plan(GroupByAggregationProblem(8, 50), 450.0).best,
            "records": grouped,
            "oracle": sorted(sums.items()),
            "priority": 0.5,
        })
        self.templates = templates
        self.queries = [template for _ in range(self.copies) for template in templates]
        self.capacity = CAPACITY_FACTOR * max(
            round_.certified_load if round_.certified_load is not None else template["plan"].q_budget
            for template in templates
            for round_ in template["plan"].rounds
        )
        warm_up = self.op(-1, rec, None)
        if not self.check(-1, warm_up):
            raise SystemExit(f"{self.name}: warm-up burst failed its output check")

    def op(self, index: int, rec: Any, obs: Any) -> OpResult:
        schema_before = default_schema_cache.stats()
        cover_before = cover_cache_stats()
        with rec.span("service.construct"):
            service = QueryService(
                capacity=self.capacity, executor="serial", max_workers=self.threads, observer=obs
            )
        try:
            with rec.span("service.submit"):
                handles = [
                    service.submit(query["plan"], query["records"], priority=query["priority"])
                    for query in self.queries
                ]
            with rec.span("service.wait"):
                runs = [handle.result(timeout=120) for handle in handles]
            snapshot = service.describe()
        finally:
            with rec.span("service.close"):
                service.close()
        schema = _cache_delta(schema_before, default_schema_cache.stats())
        cover = _cache_delta(cover_before, cover_cache_stats())
        jobs = [
            job.metrics
            for run in runs
            for job, executed in zip(run.result.round_results, run.executed)
            if not executed.reused
        ]
        admission, store, tuner = snapshot["admission"], snapshot["intermediates"], snapshot["tuner"]
        layer = {
            "service.rounds_admitted": float(admission["admitted"]),
            "service.deferrals": float(admission["deferrals"]),
            "service.peak_in_flight_load": float(admission["peak_in_flight_load"]),
            "service.materialized": float(store["materialized"]),
            "service.reused": float(store["reused"]),
            "service.replan_wins": float(tuner["wins"]),
            "service.replan_losses": float(tuner["losses"]),
            "service.failed": float(snapshot["queries"]["failed"]),
            "pipeline.replans": float(sum(run.replan_count for run in runs)),
            "pipeline.rounds": float(sum(len(run.executed) for run in runs)),
            "planner.schema_cache_hits": float(schema[0]),
            "planner.schema_cache_misses": float(schema[1]),
            "planner.schema_cache_evictions": float(schema[2]),
            "bounds.cover_cache_hits": float(cover[0]),
            "bounds.cover_cache_misses": float(cover[1]),
        }
        return OpResult({"runs": runs, "handles": handles, "snapshot": snapshot}, jobs, layer)

    def _replay(self, template: Dict[str, Any], replan_factor: float) -> List[Any]:
        """One-shot execution of a template under the handle's replan factor."""
        key = (template["name"], replan_factor)
        if key not in self.replays:
            self.replays[key] = template["plan"].execute(
                template["records"], replan_factor=replan_factor
            ).outputs
        return self.replays[key]

    def check(self, index: int, result: OpResult) -> bool:
        snapshot = result.payload["snapshot"]
        if snapshot["queries"]["failed"] != 0:
            return False
        if snapshot["admission"]["peak_in_flight_load"] > self.capacity + 1e-9:
            return False
        for query, run, handle in zip(self.queries, result.payload["runs"], result.payload["handles"]):
            if run.outputs != self._replay(query, handle.replan_factor):
                return False
            oracle = query["oracle"]
            if isinstance(oracle, list):
                if sorted(run.outputs) != oracle:
                    return False
            elif not np.array_equal(records_to_matrix(run.outputs, *oracle.shape), oracle):
                return False
        return True

    def corrupt_reference(self) -> None:
        self.templates[0]["oracle"] = self.templates[0]["oracle"][:-1]


WORKLOADS = {cls.name: cls for cls in (TriRecords, TriColumnar, PlanChain, ServiceBurst)}
