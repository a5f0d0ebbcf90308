"""Query service: admission control, shared intermediates, adaptive tuning.

The service's contract has three independently checkable parts, each with
its own component tests plus end-to-end coverage through
:class:`~repro.service.QueryService`:

* **Admission** — the sum of in-flight certified loads never exceeds the
  configured capacity ``q`` (the ledger's ``peak_in_flight`` witnesses the
  whole run), over-capacity submissions are rejected up front, and queued
  rounds defer rather than oversubscribe.
* **Shared intermediates** — pipelines with a common join sub-tree over
  the same base records materialize it exactly once (counter-asserted)
  and every consumer's outputs stay bit-identical to running alone.
* **Tuning** — re-plan wins and losses observed across queries move the
  ``replan_factor`` the service hands to new submissions.
* **Plane conformance** — the benchmark's query mix gives the same outputs
  and per-round metrics planned on the default (columnar) plane as on the
  record oracle plane.
"""

from __future__ import annotations

import collections
import enum
import math
import random
import threading
import time
import types
from typing import List

import pytest

from repro.datagen.matrices import integer_matrix, multiplication_records
from repro.datagen.relations import (
    multiway_join_oracle,
    skewed_chain_join_instance,
)
from repro.exceptions import AdmissionError, ConfigurationError
from repro.mapreduce import ClusterConfig
from repro.obs import MetricsRegistry
from repro.pipeline import PipelinePlanner, ReplanEvent
from repro.planner import CostBasedPlanner
from repro.planner.cache import default_schema_cache
from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.problems.matmul import MatrixMultiplicationProblem
from repro.schemas import SharesSchema
from repro.service import (
    AdmissionLedger,
    IntermediateStore,
    QueryService,
    ReplanTuner,
)
from repro.service.service import QueryHandle, _QueryState
from repro.stats.profile import profile_relations


# ----------------------------------------------------------------------
# Shared planning fixtures
# ----------------------------------------------------------------------
DOMAIN = 24
SIZE = 60


def _chain_setup(num_relations=3, seed=7, q=200.0):
    relations = skewed_chain_join_instance(
        num_relations, SIZE, DOMAIN, skew=1.2, seed=seed
    )
    problem = MultiwayJoinProblem(
        JoinQuery.chain(num_relations), domain_size=DOMAIN
    )
    profile = profile_relations(relations)
    planner = PipelinePlanner(CostBasedPlanner.min_replication())
    result = planner.plan(problem, q=q, profile=profile)
    records = SharesSchema.input_records(relations)
    _, oracle = multiway_join_oracle(relations)
    return result, records, oracle


@pytest.fixture(scope="module")
def chain3():
    return _chain_setup()


# ----------------------------------------------------------------------
# Admission ledger
# ----------------------------------------------------------------------
class TestAdmissionLedger:
    def test_reserve_release_accounting(self):
        ledger = AdmissionLedger(100.0)
        assert ledger.try_reserve(60.0)
        assert ledger.try_reserve(40.0)
        stats = ledger.stats()
        assert stats.in_flight == 100.0
        assert stats.holders == 2
        assert stats.headroom == 0.0
        ledger.release(60.0)
        ledger.release(40.0)
        stats = ledger.stats()
        assert stats.in_flight == 0.0
        assert stats.holders == 0
        assert stats.peak_in_flight == 100.0
        assert stats.admitted == 2

    def test_deferral_when_full(self):
        ledger = AdmissionLedger(100.0)
        assert ledger.try_reserve(80.0)
        assert not ledger.try_reserve(30.0)
        assert ledger.stats().deferrals == 1
        assert not ledger.fits(30.0)
        ledger.release(80.0)
        assert ledger.fits(30.0)
        assert ledger.try_reserve(30.0)

    def test_empty_ledger_is_exactly_empty(self):
        # Many float reserve/release pairs must not drift the zero point.
        ledger = AdmissionLedger(10.0)
        for _ in range(1000):
            assert ledger.try_reserve(0.1)
            ledger.release(0.1)
        assert ledger.stats().in_flight == 0.0

    def test_invalid_loads_rejected(self):
        ledger = AdmissionLedger(50.0)
        with pytest.raises(ConfigurationError, match="positive"):
            ledger.try_reserve(0.0)
        with pytest.raises(ConfigurationError, match="exceeds cluster capacity"):
            ledger.try_reserve(51.0)
        with pytest.raises(ConfigurationError, match="capacity must be positive"):
            AdmissionLedger(0)

    def test_concurrent_reservations_never_exceed_capacity(self):
        ledger = AdmissionLedger(4.0)
        errors = []

        def worker():
            for _ in range(200):
                if ledger.try_reserve(1.0):
                    if ledger.stats().in_flight > 4.0:
                        errors.append("over capacity")
                    ledger.release(1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = ledger.stats()
        assert stats.peak_in_flight <= 4.0
        assert stats.in_flight == 0.0


# ----------------------------------------------------------------------
# Intermediate store
# ----------------------------------------------------------------------
class TestIntermediateStore:
    KEY = ("shared-intermediate", ("join",), "plan", None)

    def test_claim_build_wait_hit_lifecycle(self):
        store = IntermediateStore()
        state, entry = store.claim(self.KEY, "producer")
        assert state == "build"
        state, _ = store.claim(self.KEY, "consumer-1")
        assert state == "wait"
        woken = store.fulfill(self.KEY, "the-outcome")
        assert woken == ["consumer-1"]
        state, entry = store.claim(self.KEY, "consumer-2")
        assert state == "hit"
        assert entry.outcome == "the-outcome"
        stats = store.stats()
        assert stats.materialized == 1
        assert stats.reused == 2  # one waiter + one late hit
        assert stats.waited == 1
        assert stats.rounds_saved == 2

    def test_producer_failure_requeues_waiters(self):
        store = IntermediateStore()
        store.claim(self.KEY, "producer")
        store.claim(self.KEY, "consumer")
        waiters = store.fail(self.KEY)
        assert waiters == ["consumer"]
        assert store.stats().failures == 1
        # The key is free again: the next claimant becomes the producer.
        state, _ = store.claim(self.KEY, "consumer")
        assert state == "build"

    def test_fail_unknown_key_is_noop(self):
        store = IntermediateStore()
        assert store.fail(("absent",)) == []
        assert store.stats().failures == 0

    def test_clear(self):
        store = IntermediateStore()
        store.claim(self.KEY, "producer")
        store.fulfill(self.KEY, "x")
        store.clear()
        stats = store.stats()
        assert stats.entries == 0 and stats.materialized == 0


# ----------------------------------------------------------------------
# Reuse fingerprints
# ----------------------------------------------------------------------
_Pair = collections.namedtuple("_Pair", "a b")


class _Colour(enum.IntEnum):
    RED = 1


def _first_reuse_key(plan, records):
    """The reuse key of a cascade's first round, before anything runs."""
    from repro.pipeline.execute import pipeline_rounds

    rounds = pipeline_rounds(plan, records, reuse_keys=True)
    try:
        return next(rounds).reuse_key
    finally:
        rounds.close()


class TestReuseFingerprints:
    """Two rounds share an intermediate only when their base records are
    equal *and* of equal types; equal content shares whatever the object
    identities behind it."""

    @staticmethod
    def _with_first_value(records, name, value):
        """``records`` with the first row of relation ``name`` starting
        with ``value``."""
        index = next(i for i, record in enumerate(records) if record[0] == name)
        row = records[index][1]
        changed = list(records)
        changed[index] = (name, (value,) + tuple(row[1:]))
        return changed

    def test_one_float_one_and_true_never_share(self, chain3):
        result, records, _ = chain3
        plan = result.cascades()[0]
        name = plan.rounds[0].op.left.relation.name
        keys = {
            _first_reuse_key(plan, self._with_first_value(records, name, value))
            for value in (1, 1.0, True)
        }
        assert len(keys) == 3

    def test_equal_content_from_distinct_objects_shares(self, chain3):
        import copy

        result, records, _ = chain3
        plan = result.cascades()[0]
        fresh_rows = [(name, tuple(list(row))) for name, row in records]
        built_names = [("".join(list(name)), row) for name, row in records]
        assert not any(a[1] is b[1] for a, b in zip(records, fresh_rows))
        assert not any(a[0] is b[0] for a, b in zip(records, built_names))
        key = _first_reuse_key(plan, records)
        for variant in (copy.deepcopy(records), fresh_rows, built_names):
            assert _first_reuse_key(plan, variant) == key

    def test_records_pickle_rejects_take_the_repr_digest(self, chain3):
        import collections
        import copy

        from repro.mapreduce.partitioner import stable_hash
        from repro.pipeline.execute import _base_fingerprints

        result, records, _ = chain3
        plan = result.cascades()[0]
        name = plan.rounds[0].op.left.relation.name
        first = next(row for relation, row in records if relation == name)
        # A namedtuple class local to this test: pickle cannot look it up.
        Row = collections.namedtuple("Row", [f"a{i}" for i in range(len(first))])
        plain = [record for record in records if record[0] == name]
        # Plain rows take the pickle digest...
        assert _base_fingerprints({name: plain}) != {
            name: stable_hash((name, tuple(plain)))
        }
        odd = list(records)
        index = odd.index((name, first))
        odd[index] = (name, Row(*first))
        rows = [record for record in odd if record[0] == name]
        # ...a row pickle rejects the ``repr`` one.
        assert _base_fingerprints({name: rows}) == {
            name: stable_hash((name, tuple(rows)))
        }
        key = _first_reuse_key(plan, odd)
        assert _first_reuse_key(plan, copy.deepcopy(odd)) == key
        assert key != _first_reuse_key(plan, records)

    def test_any_name_and_value_take_the_pickle_digest(self):
        """Names holding an ``s`` and values over a large domain (115 is
        0x73, the byte the marshal-based digest had to fall back on) are
        digested like any other records: never through ``repr``, equal
        content alike, and ``115`` / ``115.0`` apart."""
        import copy

        from repro.mapreduce.partitioner import stable_hash
        from repro.pipeline.execute import _base_fingerprints

        rng = random.Random(3)
        for name in ("Sales", "s", "R1"):
            for domain in (24, 10**6, 2**62):
                rows = [
                    (name, (rng.randrange(domain), rng.randrange(domain), 115))
                    for _ in range(60)
                ]
                digest = _base_fingerprints({name: rows})[name]
                assert digest != stable_hash((name, tuple(rows)))
                assert _base_fingerprints({name: copy.deepcopy(rows)})[name] == digest
                as_float = [(n, (a, b, 115.0)) for n, (a, b, _) in rows]
                assert _base_fingerprints({name: as_float})[name] != digest

    def test_values_are_told_apart_by_type(self):
        """Equal-comparing values of different types never share a digest:
        numpy scalars, buffers, namedtuples and enum members included."""
        import numpy as np

        from repro.pipeline.execute import _base_fingerprints

        pairs = [
            (np.int64(1), np.uint64(1)),
            (np.int64(1), np.float64(5e-324)),
            (np.int64(1), 1),
            (b"ab", bytearray(b"ab")),
            (_Pair(1, 2), (1, 2)),
            (_Colour.RED, 1),
        ]
        for left, right in pairs:
            digests = [
                _base_fingerprints({"R": [("R", (value, 2))]})["R"]
                for value in (left, right)
            ]
            assert digests[0] != digests[1]


# ----------------------------------------------------------------------
# Replan tuner
# ----------------------------------------------------------------------
def _event(new_bound, observed=100.0):
    return ReplanEvent(
        round_index=1,
        node="J1",
        reason="certificate-improved",
        estimated_bound=200.0,
        observed_bound=observed,
        old_plan="old",
        new_plan="new",
        new_bound=new_bound,
    )


class TestReplanTuner:
    def test_win_raises_factor_loss_lowers(self):
        tuner = ReplanTuner(initial=0.5, step=0.2)
        tuner.observe(_event(new_bound=50.0))  # beat the observed bound
        assert tuner.factor == pytest.approx(0.6)
        tuner.observe(_event(new_bound=100.0))  # no improvement: loss
        assert tuner.factor == pytest.approx(0.5)
        stats = tuner.stats()
        assert (stats.wins, stats.losses) == (1, 1)

    def test_factor_clamped_at_bounds(self):
        tuner = ReplanTuner(initial=0.9, step=1.0, minimum=0.1, maximum=0.95)
        tuner.observe(_event(new_bound=1.0))
        assert tuner.factor == 0.95
        for _ in range(10):
            tuner.observe(_event(new_bound=500.0))
        assert tuner.factor == 0.1

    def test_legacy_events_without_new_bound_unscored(self):
        tuner = ReplanTuner(initial=0.5)
        tuner.observe(_event(new_bound=None))
        assert tuner.factor == 0.5
        assert tuner.stats().unscored == 1

    def test_event_won_property(self):
        assert _event(new_bound=50.0).won
        assert not _event(new_bound=100.0).won
        assert not _event(new_bound=None).won
        described = _event(new_bound=50.0).describe()
        assert described["won"] is True and described["new_bound"] == 50.0

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            ReplanTuner(minimum=0.0)
        with pytest.raises(ConfigurationError):
            ReplanTuner(initial=0.99, maximum=0.9)
        with pytest.raises(ConfigurationError):
            ReplanTuner(step=0.0)


# ----------------------------------------------------------------------
# QueryService end to end
# ----------------------------------------------------------------------
class TestQueryService:
    def test_identical_queries_share_every_round(self, chain3):
        """The satellite contract: a common sub-tree is materialized once
        (asserted via store counters) and every query's outputs are
        bit-identical to running it alone."""
        result, records, oracle = chain3
        plan = result.cascades()[0]
        solo = plan.execute(records)
        copies = 4
        with QueryService(capacity=10_000.0) as service:
            handles = [service.submit(plan, records) for _ in range(copies)]
            runs = [handle.result(timeout=120) for handle in handles]
            stats = service.store.stats()
            # Every cascade round materialized exactly once...
            assert stats.materialized == len(plan.rounds)
            # ...and every other occurrence served from the store.
            assert stats.reused == (copies - 1) * len(plan.rounds)
        for run in runs:
            assert run.outputs == solo.outputs  # bit-identical, order included
            assert sorted(run.outputs) == sorted(oracle)
            reused_rounds = [r for r in run.executed if r.reused]
            executed_rounds = [r for r in run.executed if not r.reused]
            assert len(reused_rounds) + len(executed_rounds) == len(run.executed)
        total_reused = sum(
            1 for run in runs for r in run.executed if r.reused
        )
        assert total_reused == (copies - 1) * len(plan.rounds)

    def test_shared_prefix_across_different_cascades(self):
        """Two 4-relation cascade shapes that agree only on the (R1*R2)
        prefix share exactly that one intermediate."""
        result, records, oracle = _chain_setup(num_relations=4, q=400.0)
        cascades = result.cascades()
        left_deep = next(
            p for p in cascades if p.name == "cascade(((R1*R2)*R3)*R4)"
        )
        bushy = next(
            p for p in cascades if p.name == "cascade((R1*R2)*(R3*R4))"
        )
        solo_left = left_deep.execute(records)
        solo_bushy = bushy.execute(records)
        with QueryService(capacity=10_000.0) as service:
            h1 = service.submit(left_deep, records)
            h2 = service.submit(bushy, records)
            run_left = h1.result(timeout=120)
            run_bushy = h2.result(timeout=120)
            stats = service.store.stats()
            # 3 + 3 rounds total, of which only (R1*R2) can be shared:
            # at most 5 distinct materializations, at least one reuse *if*
            # the physical plans for the prefix coincide.  The planner is
            # deterministic, so they do — pin it.
            assert stats.materialized == 5
            assert stats.reused == 1
        assert run_left.outputs == solo_left.outputs
        assert run_bushy.outputs == solo_bushy.outputs
        assert sorted(run_left.outputs) == sorted(oracle)
        assert sorted(run_bushy.outputs) == sorted(oracle)

    def test_capacity_never_exceeded_and_deferrals_recorded(self, hold_rounds):
        """Distinct queries (nothing shareable) under a tight capacity:
        rounds serialize, the peak in-flight load stays within q, and at
        least one round had to wait."""
        plans = []
        for seed in (7, 11, 13, 17):
            result, records, _ = _chain_setup(seed=seed)
            plans.append((result.cascades()[0], records))
        max_load = max(
            r.certified_load or plan.q_budget
            for plan, _ in plans
            for r in plan.rounds
        )
        capacity = max_load * 1.25  # roomy enough for one round, not two big ones
        with QueryService(capacity=capacity) as service:
            # The cheap first rounds all fit at once; no two second rounds
            # do, so the first one admitted holds its reservation on the
            # gate until another has queued behind it.
            gate = hold_rounds(from_index=1)
            try:
                handles = [service.submit(p, r) for p, r in plans]
                _wait_until(lambda: service.describe()["rounds"]["queued"] >= 1)
            finally:
                gate.set()
            for handle in handles:
                handle.result(timeout=120)
            admission = service.admission.stats()
            store = service.store.stats()
        assert admission.peak_in_flight <= capacity
        assert admission.deferrals > 0
        assert store.reused == 0  # different seeds: nothing shareable

    def test_over_capacity_submission_rejected(self, chain3):
        result, records, _ = chain3
        plan = result.cascades()[0]
        min_load = min(r.certified_load or plan.q_budget for r in plan.rounds)
        with QueryService(capacity=min_load / 2) as service:
            with pytest.raises(AdmissionError, match="never be admitted"):
                service.submit(plan, records)

    def test_submit_after_close_rejected(self, chain3):
        result, records, _ = chain3
        plan = result.cascades()[0]
        service = QueryService(capacity=10_000.0)
        service.close()
        with pytest.raises(AdmissionError, match="closed"):
            service.submit(plan, records)

    def test_failed_query_surfaces_through_handle(self, chain3):
        result, _, _ = chain3
        plan = result.cascades()[0]

        class ExplodingRecords:
            def __iter__(self):
                raise RuntimeError("records unavailable")

        with QueryService(capacity=10_000.0) as service:
            handle = service.submit(plan, ExplodingRecords())
            with pytest.raises(RuntimeError, match="records unavailable"):
                handle.result(timeout=60)
            assert handle.done()
            snapshot = service.describe()
        assert snapshot["queries"]["failed"] == 1
        assert snapshot["queries"]["active"] == 0

    def test_failed_round_after_a_spill_leaves_no_files(
        self, chain3, tmp_path, monkeypatch
    ):
        """The failed query's spilled intermediate is gone when ``result()``
        raises, while the caller still holds the handle (whose stored
        exception keeps the coroutine's frames reachable)."""
        import tempfile

        from repro.exceptions import ExecutionError
        from repro.mapreduce.engine import MapReduceEngine

        result, records, _ = chain3
        plan = result.cascades()[0]
        run_job = MapReduceEngine.run
        rounds = []

        def failing_second_round(engine, job, inputs, **kwargs):
            rounds.append(job.name)
            if len(rounds) == 2:
                # Round 1's intermediate is on disk by now.
                assert len(list(tmp_path.iterdir())) == 1
                raise ExecutionError("round 2 failed")
            return run_job(engine, job, inputs, **kwargs)

        monkeypatch.setattr(MapReduceEngine, "run", failing_second_round)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with QueryService(
            capacity=1e9, executor="serial", spill_threshold=1
        ) as service:
            handle = service.submit(plan, records)
            with pytest.raises(ExecutionError, match="round 2 failed"):
                handle.result(timeout=60)
            assert list(tmp_path.iterdir()) == []
        assert len(rounds) == 2

    def test_closed_pool_spawn_after_a_spill_leaves_no_files(
        self, chain3, tmp_path, monkeypatch
    ):
        """``close(wait=False)`` while round 1 runs: round 2's spawn meets
        the closed pool and fails the query, whose coroutine is suspended
        with round 1's output spilled."""
        import tempfile

        from repro.mapreduce.engine import MapReduceEngine

        result, records, _ = chain3
        plan = result.cascades()[0]
        run_job = MapReduceEngine.run
        gate = threading.Event()

        def gated_run(engine, job, inputs, **kwargs):
            assert gate.wait(timeout=60), "round gate never released"
            return run_job(engine, job, inputs, **kwargs)

        monkeypatch.setattr(MapReduceEngine, "run", gated_run)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        service = QueryService(capacity=1e9, executor="serial", spill_threshold=1)
        try:
            handle = service.submit(plan, records)
            _wait_until(lambda: service.describe()["rounds"]["running"] == 1)
            service.close(wait=False)
            gate.set()
            with pytest.raises(AdmissionError, match="finished"):
                handle.result(timeout=60)
            assert list(tmp_path.iterdir()) == []
        finally:
            gate.set()
            service.close(wait=False)

    def test_close_sweeping_a_queued_round_after_a_spill_leaves_no_files(
        self, chain3, tmp_path, monkeypatch
    ):
        """``close(wait=False)`` with round 2 queued: the queue sweep fails
        the query, whose coroutine is suspended with round 1's output
        spilled."""
        import tempfile

        result, records, _ = chain3
        plan = result.cascades()[0]
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        service = QueryService(capacity=1e9, executor="serial", spill_threshold=1)
        try:
            reserve = service.admission.try_reserve
            admitted = []

            def admit_the_first_round_only(load):
                if admitted:
                    return False
                admitted.append(load)
                return reserve(load)

            monkeypatch.setattr(
                service.admission, "try_reserve", admit_the_first_round_only
            )
            handle = service.submit(plan, records)
            _wait_until(lambda: service.describe()["rounds"]["queued"] == 1)
            assert len(list(tmp_path.iterdir())) == 1
            service.close(wait=False)
            with pytest.raises(AdmissionError, match="scheduled"):
                handle.result(timeout=60)
            assert list(tmp_path.iterdir()) == []
        finally:
            service.close(wait=False)

    def test_failed_recertification_after_a_spill_leaves_no_files(
        self, chain3, tmp_path, monkeypatch
    ):
        """A failure inside the coroutine (re-certifying round 2 on round
        1's observed output) finishes it; closing the finished coroutine
        again is harmless and the handle settles."""
        import tempfile

        from repro.exceptions import ExecutionError
        from repro.pipeline import execute

        result, records, _ = chain3
        plan = result.cascades()[0]

        def failing_certification(round_, profile):
            # Round 1's intermediate is on disk by now.
            assert len(list(tmp_path.iterdir())) == 1
            raise ExecutionError("re-certification failed")

        monkeypatch.setattr(
            execute, "_fingerprinted_certification", failing_certification
        )
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with QueryService(
            capacity=1e9, executor="serial", spill_threshold=1
        ) as service:
            handle = service.submit(plan, records)
            with pytest.raises(ExecutionError, match="re-certification failed"):
                handle.result(timeout=60)
            assert list(tmp_path.iterdir()) == []
            assert service.describe()["queries"]["failed"] == 1

    def test_mixed_workload_matmul_and_join(self, chain3):
        import numpy as np

        from repro.datagen.matrices import (
            integer_matrix,
            multiplication_records,
            records_to_matrix,
        )
        from repro.problems.matmul import MatrixMultiplicationProblem

        join_result, join_records, join_oracle = chain3
        join_plan = join_result.cascades()[0]
        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        mm_result = planner.plan(MatrixMultiplicationProblem(8), q=64)
        mm_plan = [p for p in mm_result if p.op.phases == 2][0]
        left = integer_matrix(8, seed=71, low=1, high=5)
        right = integer_matrix(8, seed=72, low=1, high=5)
        mm_records = multiplication_records(left, right)
        with QueryService(capacity=10_000.0) as service:
            join_handle = service.submit(join_plan, join_records)
            mm_handle = service.submit(mm_plan, mm_records)
            join_run = join_handle.result(timeout=120)
            mm_run = mm_handle.result(timeout=120)
        assert sorted(join_run.outputs) == sorted(join_oracle)
        assert np.allclose(
            records_to_matrix(mm_run.outputs, 8, 8), left @ right
        )

    def test_describe_snapshot_shape(self, chain3):
        """The observability hook future PRs build on: every advertised
        section is present with consistent numbers."""
        result, records, _ = chain3
        plan = result.cascades()[0]
        default_schema_cache.clear()
        with QueryService(capacity=10_000.0) as service:
            before = service.describe()
            assert before["queries"] == {
                "submitted": 0,
                "active": 0,
                "finished": 0,
                "failed": 0,
            }
            handles = [service.submit(plan, records) for _ in range(2)]
            for handle in handles:
                handle.result(timeout=120)
            snapshot = service.describe()
        assert snapshot["queries"]["submitted"] == 2
        assert snapshot["queries"]["finished"] == 2
        assert snapshot["rounds"]["queued"] == 0
        assert snapshot["rounds"]["running"] == 0
        assert snapshot["rounds"]["parked"] == 0
        admission = snapshot["admission"]
        assert admission["capacity"] == 10_000.0
        assert admission["in_flight_load"] == 0.0
        assert 0 < admission["peak_in_flight_load"] <= 10_000.0
        assert admission["admitted"] >= len(plan.rounds)
        # Every admitted round went through a pass that found it queued.
        assert admission["dispatch_passes"] > 0
        assert admission["attempts"] == admission["admitted"] + admission["deferrals"]
        intermediates = snapshot["intermediates"]
        assert intermediates["materialized"] == len(plan.rounds)
        assert intermediates["reused"] == len(plan.rounds)
        assert set(snapshot["tuner"]) == {
            "factor",
            "wins",
            "losses",
            "unscored",
        }
        cache = snapshot["schema_cache"]
        assert cache["hits"] + cache["misses"] > 0

    def test_tuner_feedback_moves_factor_across_queries(self, chain3):
        """Re-plan outcomes observed by the service move the factor new
        submissions start with."""
        result, records, _ = chain3
        plan = result.cascades()[0]
        tuner = ReplanTuner(initial=0.5)
        with QueryService(capacity=10_000.0, tuner=tuner) as service:
            service.submit(plan, records).result(timeout=120)
            first_factor = tuner.factor
            service.submit(plan, records).result(timeout=120)
        stats = tuner.stats()
        # The cascade re-certifies its second round on this data; whether
        # it wins or loses, any observation must have moved the factor.
        if stats.observations > 0:
            assert first_factor != 0.5 or tuner.factor != first_factor

    def test_priority_and_drain(self, chain3):
        result, records, _ = chain3
        plan = result.cascades()[0]
        with QueryService(capacity=10_000.0) as service:
            low = service.submit(plan, records, priority=0.5)
            high = service.submit(plan, records, priority=2.0)
            service.drain(timeout=120)
            assert low.done() and high.done()
            assert low.result().outputs == high.result().outputs

    def test_max_workers_validation(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            QueryService(capacity=10.0, max_workers=0)


# ----------------------------------------------------------------------
# Scheduler edge cases (scripted rounds)
# ----------------------------------------------------------------------
# Real plans cannot pin down the interleavings below deterministically —
# the hazards live in the scheduler's lock-step ordering, so these tests
# drive QueryService with scripted RoundWork sequences instead: the plan
# stand-in carries the works, pipeline_rounds is patched to replay them,
# and gates (threading.Event) hold a round mid-execution until the
# service has reached the state under test.
class _ScriptedPlan:
    """Plan stand-in whose 'pipeline' replays a scripted list of works."""

    def __init__(self, name, works):
        self.name = name
        self.rounds = ()  # skips submit()'s per-round price check
        self.cluster = None
        self.q_budget = 1.0
        self._works = works

    def make_gen(self):
        def gen():
            for work in self._works:
                yield work
            return f"{self.name}-done"

        return gen()


def _scripted_work(load, key=None, gate=None, index=0):
    from repro.pipeline.execute import RoundWork

    def runner():
        if gate is not None:
            assert gate.wait(timeout=60), "round gate never released"
        return "job-rows"

    return RoundWork(
        index=index,
        label=f"round-{index}",
        plan_name="scripted",
        certification=None,
        admission_load=load,
        reuse_key=key,
        _runner=runner,
    )


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("service never reached the expected state")


@pytest.fixture
def scripted(monkeypatch):
    from repro.service import service as service_module

    monkeypatch.setattr(
        service_module,
        "pipeline_rounds",
        lambda plan, records, **kwargs: plan.make_gen(),
    )
    monkeypatch.setattr(
        service_module, "MapReduceEngine", lambda cluster: None
    )


class TestSchedulerScripted:
    def test_release_reaches_queued_producer_when_consumer_parks(
        self, scripted
    ):
        """Regression: a finished round's freed reservation must be
        re-dispatched even when its successor parks on a pending
        producer — the offer's wait branch used to skip the dispatch
        pass, leaving the queued producer unadmitted and deadlocking
        both queries (result() hung forever)."""
        gate = threading.Event()
        key = ("shared-intermediate", "scripted-key")
        qa = _ScriptedPlan(
            "qa",
            [
                _scripted_work(2.0, gate=gate),
                _scripted_work(60.0, key=key, index=1),
            ],
        )
        qb = _ScriptedPlan("qb", [_scripted_work(60.0, key=key)])
        # No context manager: a regression deadlocks the queries, and
        # close()'s drain would then hang the test run instead of letting
        # the result(timeout=...) assertions below fail it.
        service = QueryService(capacity=60.0)
        try:
            ha = service.submit(qa, [])
            _wait_until(
                lambda: service.describe()["rounds"]["running"] == 1
            )
            # qb's round claims the key (becoming its producer) but cannot
            # be admitted while qa holds 2.0 of the 60.0 capacity.
            hb = service.submit(qb, [])
            _wait_until(lambda: service.describe()["rounds"]["queued"] == 1)
            gate.set()
            # qa's next round parks on qb's queued producer; qa's release
            # must admit qb or neither ever finishes.
            assert ha.result(timeout=30) == "qa-done"
            assert hb.result(timeout=30) == "qb-done"
            snapshot = service.describe()
            store = service.store.stats()
        finally:
            service.close(wait=False)
        assert snapshot["rounds"]["queued"] == 0
        assert snapshot["rounds"]["parked"] == 0
        assert snapshot["rounds"]["running"] == 0
        assert snapshot["admission"]["in_flight_load"] == 0.0
        assert (store.materialized, store.reused, store.waited) == (1, 1, 1)

    def test_overcapacity_round_clamp_counted_once(self, scripted):
        """Regression: a round whose (mid-run re-certified) load exceeds
        capacity is counted as clamped once — when admitted — not on
        every dispatch pass it sits out in the queue."""
        gate = threading.Event()
        q_small = _ScriptedPlan("small", [_scripted_work(2.0, gate=gate)])
        q_big = _ScriptedPlan("big", [_scripted_work(100.0)])
        with QueryService(capacity=60.0) as service:
            h_small = service.submit(q_small, [])
            _wait_until(
                lambda: service.describe()["rounds"]["running"] == 1
            )
            h_big = service.submit(q_big, [])
            _wait_until(lambda: service.describe()["rounds"]["queued"] == 1)
            gate.set()
            assert h_small.result(timeout=30) == "small-done"
            assert h_big.result(timeout=30) == "big-done"
            snapshot = service.describe()
        assert snapshot["rounds"]["overcapacity_clamped"] == 1
        assert snapshot["admission"]["peak_in_flight_load"] <= 60.0

    def test_close_without_wait_completes_all_handles(self, scripted):
        """Regression: close(wait=False) used to strand handles — the
        queued round was never scheduled again and a running round's
        next submission hit the shut-down pool, its RuntimeError
        swallowed inside the worker.  Every handle must now complete."""
        gate = threading.Event()
        q_running = _ScriptedPlan(
            "running",
            [_scripted_work(60.0, gate=gate), _scripted_work(1.0, index=1)],
        )
        q_queued = _ScriptedPlan("queued", [_scripted_work(60.0)])
        service = QueryService(capacity=60.0)
        try:
            h_running = service.submit(q_running, [])
            _wait_until(
                lambda: service.describe()["rounds"]["running"] == 1
            )
            h_queued = service.submit(q_queued, [])
            _wait_until(lambda: service.describe()["rounds"]["queued"] == 1)
            service.close(wait=False)
            # The queued query fails right away; the running one keeps
            # running, then fails when its next round meets the closed
            # pool.
            with pytest.raises(AdmissionError, match="closed"):
                h_queued.result(timeout=30)
            gate.set()
            with pytest.raises(AdmissionError, match="closed"):
                h_running.result(timeout=30)
            snapshot = service.describe()
            assert snapshot["queries"]["failed"] == 2
            assert snapshot["queries"]["active"] == 0
            assert snapshot["rounds"]["queued"] == 0
            assert snapshot["rounds"]["running"] == 0
            assert snapshot["admission"]["in_flight_load"] == 0.0
        finally:
            gate.set()
            service.close(wait=False)


def _full_walk(states, capacity, in_flight, aging, now):
    """The pre-skip dispatch pass, verbatim: try every queued round in
    order, stop at an aged round that does not fit.  The reference for
    :meth:`QueryService._dispatch_locked`'s skipping walk."""
    ledger = AdmissionLedger(capacity)
    if in_flight:
        assert ledger.try_reserve(in_flight)

    def effective(state):
        if aging is None or state.queued_at is None:
            return state.priority
        return state.priority + int((now - state.queued_at) / aging)

    admitted = []
    for state in sorted(
        states,
        key=lambda s: (-effective(s), s.pending_work.admission_load, s.seq),
    ):
        load = state.pending_work.admission_load
        if load <= 0:
            load = 1e-9
        if load > capacity:
            load = capacity
        if ledger.try_reserve(load):
            admitted.append(state.seq)
        elif (
            aging is not None
            and state.queued_at is not None
            and now - state.queued_at >= aging
        ):
            break
    return admitted, ledger.stats()


def _queued_state(seq, priority, load, queued_at):
    from repro.service.service import QueryHandle, _QueryState

    return _QueryState(
        query_id=seq,
        plan=None,
        handle=QueryHandle(seq, "scripted"),
        gen=None,
        priority=priority,
        replan_factor=0.5,
        seq=seq,
        pending_work=_scripted_work(load),
        queued_at=queued_at,
    )


def _random_queue(rng, now):
    """Up to 24 queued rounds: ties in load, degenerate (<= 0) and
    over-capacity loads, and a few rounds aged one or two whole classes
    (far from a class boundary) — an aged round that does not fit is a
    barrier, also when the walk would have skipped it."""
    size = rng.randint(1, 24)
    aged = set(rng.sample(range(size), k=min(size, rng.choice([0, 1, 1, 2, 3]))))
    return [
        _queued_state(
            seq,
            priority=rng.choice([0.5, 1.0, 2.0, 3.0]),
            load=rng.choice([0.0, 2.0, 5.0, 5.0, 12.0, 30.0, 58.0, 75.0]),
            queued_at=now - (rng.choice([1500.0, 2500.0]) if seq in aged else 0.0),
        )
        for seq in range(size)
    ]


class TestDispatchWalk:
    """The dispatch pass does not ask the ledger about a round at least as
    expensive as one already refused this pass (in effect: the first
    refusal ends its priority class); it must admit exactly what trying
    every round admits, and raise the aging barrier at the same round."""

    CAPACITY = 60.0

    def _check(self, states, in_flight, aging, now):
        expected, full = _full_walk(states, self.CAPACITY, in_flight, aging, now)
        classes = {
            state.priority + (int((now - state.queued_at) / aging) if aging else 0)
            for state in states
        }
        service = QueryService(capacity=self.CAPACITY, aging_seconds=aging)
        spawned = []
        service._spawn_locked = lambda fn, state, *args: spawned.append(state.seq)
        try:
            if in_flight:
                assert service.admission.try_reserve(in_flight)
            with service._lock:
                for state in states:
                    service._enqueue_locked(state)
                service._dispatch_locked()
                queued = sorted(state.seq for state in service._ready)
                service._ready = []
            admission = service.describe()["admission"]
        finally:
            service.close(wait=False)
        assert spawned == expected
        assert queued == sorted(set(range(len(states))) - set(expected))
        assert admission["in_flight_load"] == full.in_flight
        assert admission["dispatch_passes"] == 1
        # Each refusal is cheaper than the one before: at most one per
        # priority class, never more than the full walk's.
        assert admission["deferrals"] <= min(full.deferrals, len(classes))
        return expected

    @pytest.mark.parametrize("aging", [None, 1000.0])
    def test_same_admitted_set_as_the_full_walk(self, aging):
        import random

        now = time.perf_counter()
        admitted_something = 0
        for seed in range(200):
            rng = random.Random(seed)
            in_flight = rng.choice([0.0, 10.0, 35.0, 55.0])
            admitted_something += bool(
                self._check(_random_queue(rng, now), in_flight, aging, now)
            )
        assert admitted_something > 100

    def test_skipped_aged_round_still_raises_the_barrier(self):
        """Fresh priority-2 and once-aged priority-1 rounds share class 2.
        The fresh one is cheaper, is tried first and does not fit, so the
        aged one is skipped — and must still stop the backfill that would
        otherwise admit the cheap priority-0.5 round behind it."""
        now = time.perf_counter()
        states = [
            _queued_state(0, priority=2.0, load=30.0, queued_at=now),
            _queued_state(1, priority=1.0, load=31.0, queued_at=now - 1500.0),
            _queued_state(2, priority=0.5, load=2.0, queued_at=now),
        ]
        assert self._check(states, 35.0, 1000.0, now) == []
        # Without aging the same queue backfills the cheap round.
        assert self._check(states, 35.0, None, now) == [2]


# The dispatch pass before the admission queue was kept in order on
# insert, verbatim: it re-sorts the whole queue by effective priority on
# every pass.  The reference for the insertion-ordered queue.
def _sort_every_pass_dispatch(self) -> None:
    """Admit every queued round that fits, best-priced first.

    Queued waits age a round's *effective* priority by one whole
    class per ``aging_seconds`` (see the constructor), and a round
    that has aged at least one class acts as a barrier when it cannot
    fit: no round sorted behind it is admitted this pass, so the
    in-flight load drains until the starved round runs.  Together the
    two bound every round's wait by roughly the priority spread times
    ``aging_seconds`` plus one drain.

    Headroom only shrinks inside a pass, so a round at least as
    expensive as one the ledger already refused this pass cannot fit
    either and is passed over without asking (an aged one still raises
    the barrier).  The queue is walked cheapest-first within a
    priority class, so in effect the first refusal ends its class and
    the walk resumes at the cheaper rounds of the next.  Same admitted
    set as trying every round; the ledger's ``deferrals`` counts the
    reservations actually attempted and refused.
    """
    if not self._ready:
        return
    self._dispatch_passes += 1
    aging = self.aging_seconds
    now = time.perf_counter() if aging is not None else 0.0

    def effective(state: _QueryState) -> float:
        if aging is None or state.queued_at is None:
            return state.priority
        # Whole classes only: sub-threshold waits must not perturb
        # the cheapest-certified-load-first order within a class.
        return state.priority + int((now - state.queued_at) / aging)

    self._ready.sort(
        key=lambda s: (-effective(s), s.pending_work.admission_load, s.seq)
    )
    admitted: List[_QueryState] = []
    refused = math.inf  # smallest load the ledger refused this pass
    for state in self._ready:
        load = state.pending_work.admission_load
        clamped = False
        if load <= 0:
            # Degenerate certificate (empty inputs certify to zero):
            # admit at a nominal price so the ledger stays strict.
            load = 1e-9
        if load > self.admission.capacity:
            # A mid-run re-certification exceeded capacity (possible
            # only with non-exact profiles).  Clamp so the round runs
            # alone rather than deadlocking; the counter records that
            # the invariant was capacity-limited, not load-limited.
            load = self.admission.capacity
            clamped = True
        if load < refused:
            if self.admission.try_reserve(load):
                state.reserved_load = load
                if clamped:
                    # Count once, when the clamped round is actually
                    # admitted — not on every dispatch pass it waits out.
                    self._overcapacity_rounds += 1
                admitted.append(state)
                continue
            self._m_deferrals.inc()
            refused = load
        if (
            aging is not None
            and state.queued_at is not None
            and now - state.queued_at >= aging
        ):
            # Starvation barrier: stop backfilling behind an aged
            # round so released capacity reaches it next pass.
            break
    # Unqueue every admitted round before spawning any: a spawn
    # failure fails the query, whose cleanup re-enters dispatch and
    # must not re-admit rounds this pass already holds reservations
    # for.
    for state in admitted:
        self._ready.remove(state)
        self._note_admitted_locked(state)
    for state in admitted:
        self._running_rounds += 1
        self._spawn_locked(self._run_round, state)
    if self._metrics.enabled:
        self._m_queue_depth.set(float(len(self._ready)))
        self._m_in_flight.set(self.admission.stats().in_flight)
        self._m_parked.set(float(self._parked_rounds))



class TestQueueKeptInOrder:
    """Inserting each round in order and re-sorting only once a round may
    have aged must admit exactly what sorting on every pass admits, in the
    same order, with the same ledger refusals — over random timed
    sequences of submissions, completions and follow-up rounds, on a
    clock that ages some rounds past ``aging_seconds`` and not others.
    A query's follow-up round keeps its submission ``seq`` but arrives
    after later submissions, so ties in (priority, load) are broken
    against arrival order."""

    AGING = 10.0
    CAPACITY = 60.0
    LOADS = (2.0, 5.0, 5.0, 12.0, 30.0, 58.0)

    def _service(self, oracle):
        service = QueryService(capacity=self.CAPACITY, aging_seconds=self.AGING)
        admitted = []
        service._spawn_locked = lambda fn, state, *args: admitted.append(state.seq)
        if oracle:
            service._enqueue_locked = service._ready.append
            service._dispatch_locked = types.MethodType(
                _sort_every_pass_dispatch, service
            )
        return service, admitted

    def _run_sequence(self, rng, clock):
        (new, new_admitted), (old, old_admitted) = pair = [
            self._service(oracle) for oracle in (False, True)
        ]
        #: seq -> [follow-up rounds left, (state in new, state in old)]
        queries = {}
        try:
            for seq in range(rng.randint(5, 60)):
                clock[0] += rng.choice([0.0, 0.0, 0.5, 2.0, 6.0, 11.0, 25.0])
                running = [
                    key for key, (_, states) in queries.items()
                    if states[0].reserved_load is not None
                ]
                if running and rng.random() < 0.45:
                    # A round finishes: its load is released, then the query
                    # offers its next round or ends (as ``_advance`` does).
                    key = rng.choice(running)
                    left, states = queries[key]
                    load = rng.choice(self.LOADS)
                    for (service, _), state in zip(pair, states):
                        with service._lock:
                            service._release_locked(state)
                            if left:
                                service._offer_locked(state, _scripted_work(load))
                            else:
                                service._dispatch_locked()
                    if left:
                        queries[key][0] -= 1
                    else:
                        del queries[key]
                else:
                    priority = rng.choice([0.5, 1.0, 2.0])
                    load = rng.choice(self.LOADS)
                    states = tuple(
                        _QueryState(
                            query_id=seq,
                            plan=None,
                            handle=QueryHandle(seq, "scripted"),
                            gen=None,
                            priority=priority,
                            replan_factor=0.5,
                            seq=seq,
                        )
                        for _ in pair
                    )
                    queries[seq] = [rng.randint(0, 2), states]
                    for (service, _), state in zip(pair, states):
                        with service._lock:
                            service._offer_locked(state, _scripted_work(load))
                assert new_admitted == old_admitted
                assert {s.seq for s in new._ready} == {s.seq for s in old._ready}
                assert new.admission.stats() == old.admission.stats()
                assert new._dispatch_passes == old._dispatch_passes
        finally:
            for service, _ in pair:
                service.close(wait=False)
        return len(new_admitted)

    def test_same_admissions_as_sorting_every_pass(self, monkeypatch, request):
        clock = [1000.0]
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        sequences = 5000 if request.config.getoption("--full-sweep") else 200
        admitted = sum(
            self._run_sequence(random.Random(seed), clock)
            for seed in range(sequences)
        )
        assert admitted > 10 * sequences


class TestStarvationAging:
    """Queued-wait aging: deferred rounds gain whole priority classes as
    they wait, and an aged round raises a dispatch barrier so constant
    small-round backfill cannot starve it indefinitely."""

    @staticmethod
    def _setup(service):
        """Two gated load-4.0 priority-2 rounds running, one gated
        load-10.0 priority-0.5 round queued behind them."""
        g1, g2, gbig = (threading.Event() for _ in range(3))
        h1 = service.submit(_ScriptedPlan("s1", [_scripted_work(4.0, gate=g1)]), [], priority=2.0)
        h2 = service.submit(_ScriptedPlan("s2", [_scripted_work(4.0, gate=g2)]), [], priority=2.0)
        _wait_until(lambda: service.describe()["rounds"]["running"] == 2)
        hbig = service.submit(
            _ScriptedPlan("big", [_scripted_work(10.0, gate=gbig)]), [], priority=0.5
        )
        _wait_until(lambda: service.describe()["rounds"]["queued"] == 1)
        return (g1, g2, gbig), (h1, h2, hbig)

    def test_aged_round_barrier_bounds_wait_under_backfill(self, scripted):
        aging = 0.4
        service = QueryService(capacity=10.0, max_workers=4, aging_seconds=aging)
        g3 = threading.Event()
        try:
            (g1, g2, gbig), (h1, h2, hbig) = self._setup(service)
            # Let the big round age two classes: effective 0.5 + 2 = 2.5,
            # above the fresh backfill's priority 2.
            time.sleep(2.5 * aging)
            h3 = service.submit(
                _ScriptedPlan("s3", [_scripted_work(4.0, gate=g3)]), [], priority=2.0
            )
            g1.set()
            # s1's release frees 4.0 — enough for s3 but not for big.
            # Without the barrier s3 would backfill past the aged big
            # round (and any stream of such rounds would starve it);
            # with it, dispatch stops and the remaining load drains.
            _wait_until(
                lambda: service.describe()["rounds"]["running"] == 1
                and service.describe()["rounds"]["queued"] == 2
            )
            assert h1.result(timeout=30) == "s1-done"
            assert service.describe()["admission"]["in_flight_load"] == 4.0
            g2.set()
            # Full drain: the aged round is admitted first, alone.
            _wait_until(
                lambda: service.describe()["admission"]["in_flight_load"] == 10.0
            )
            assert service.describe()["rounds"]["queued"] == 1  # s3 still waits
            gbig.set()
            assert hbig.result(timeout=30) == "big-done"
            g3.set()
            assert h2.result(timeout=30) == "s2-done"
            assert h3.result(timeout=30) == "s3-done"
            snapshot = service.describe()
        finally:
            for gate in (g1, g2, g3, gbig):
                gate.set()
            service.close(wait=False)
        # The low-priority round waited roughly its aging ramp plus one
        # drain of the in-flight load — bounded, and recorded per class.
        waits = snapshot["rounds"]["max_queued_wait_by_priority"]
        assert waits["0.5"] == pytest.approx(2.5 * aging, abs=2.0)
        assert snapshot["admission"]["deferrals"] >= 1

    def test_aging_disabled_keeps_backfill_order(self, scripted):
        service = QueryService(capacity=10.0, max_workers=4, aging_seconds=None)
        g3 = threading.Event()
        try:
            (g1, g2, gbig), (h1, h2, hbig) = self._setup(service)
            time.sleep(0.6)  # would age two classes were aging enabled
            h3 = service.submit(
                _ScriptedPlan("s3", [_scripted_work(4.0, gate=g3)]), [], priority=2.0
            )
            g1.set()
            # No aging: priority-2 backfill keeps passing the big round.
            _wait_until(lambda: service.describe()["rounds"]["running"] == 2)
            assert service.describe()["rounds"]["queued"] == 1
            g2.set(), g3.set()
            assert h2.result(timeout=30) == "s2-done"
            assert h3.result(timeout=30) == "s3-done"
            gbig.set()
            assert h1.result(timeout=30) == "s1-done"
            assert hbig.result(timeout=30) == "big-done"
        finally:
            for gate in (g1, g2, g3, gbig):
                gate.set()
            service.close(wait=False)

    def test_aging_seconds_validated(self):
        with pytest.raises(ConfigurationError, match="aging_seconds"):
            QueryService(capacity=10.0, aging_seconds=0.0)
        with pytest.raises(ConfigurationError, match="aging_seconds"):
            QueryService(capacity=10.0, aging_seconds=-1.0)


class TestPlaneConformance:
    """The query service's rounds give the same answer on either plane.

    ``service-burst``'s mix — a skewed 3-chain cascade, a two-phase matrix
    product and a group-by-sum — is planned once under the oracle plane
    (``data_plane="records"``) and once under the default, and submitted
    twice through a ``QueryService`` each time.  Every query's outputs and
    every round's ``JobMetrics.summary()`` must agree, the join and matmul
    rounds must take the batch plane, and group-by (no batch kernel) must
    decline as ``no-kernel``.  ``--full-sweep`` runs the benchmark-sized
    templates: 3-chain(60, 24) at seeds 7, 11 and 13, and n = 8.
    """

    @staticmethod
    def _templates(data_plane, full):
        def cluster():
            # One registry per template, so each decline is attributable.
            config = {} if data_plane is None else {"data_plane": data_plane}
            return ClusterConfig(metrics=MetricsRegistry(), **config)

        planner = PipelinePlanner(CostBasedPlanner.min_replication())
        size, domain, seeds = (60, 24, (7, 11, 13)) if full else (30, 12, (7,))
        templates = []
        for seed in seeds:
            relations = skewed_chain_join_instance(3, size, domain, skew=1.2, seed=seed)
            planned = planner.plan(
                MultiwayJoinProblem(JoinQuery.chain(3), domain_size=domain),
                cluster(),
                q=4.0 * size,
                profile=profile_relations(relations),
            )
            templates.append(
                ("join", planned.cascades()[0], SharesSchema.input_records(relations))
            )
        n = 8 if full else 4
        products = planner.plan(MatrixMultiplicationProblem(n), cluster(), q=float(n * n))
        records = multiplication_records(
            integer_matrix(n, seed=1, low=1, high=5),
            integer_matrix(n, seed=2, low=1, high=5),
        )
        templates.append(
            ("matmul", next(plan for plan in products if plan.op.phases == 2), records)
        )
        rng = random.Random(5)
        grouped = [(rng.randrange(8), rng.randrange(50)) for _ in range(300)]
        group_by = planner.plan(GroupByAggregationProblem(8, 50), cluster(), q=450.0)
        templates.append(("group-by", group_by.best, grouped))
        return templates

    @staticmethod
    def _burst(templates):
        capacity = 1.5 * max(
            round_.certified_load if round_.certified_load is not None else plan.q_budget
            for _, plan, _ in templates
            for round_ in plan.rounds
        )
        # A pinned replan factor: every query re-plans by the same rule
        # whatever order the rounds finish in.
        tuner = ReplanTuner(initial=0.5, minimum=0.5, maximum=0.5)
        with QueryService(capacity, executor="serial", max_workers=2, tuner=tuner) as service:
            handles = [
                service.submit(plan, records)
                for _ in range(2)
                for _, plan, records in templates
            ]
            runs = [handle.result(timeout=120) for handle in handles]
        return [
            (run.outputs, [job.metrics.summary() for job in run.result.round_results])
            for run in runs
        ]

    @staticmethod
    def _declines(plan):
        series = plan.cluster.metrics.snapshot().get("plane_declined_total")
        return {} if series is None else {
            row["labels"]["reason"]: row["value"] for row in series["series"]
        }

    def test_default_plane_matches_the_record_oracle(self, request):
        full = request.config.getoption("--full-sweep")
        oracle_templates = self._templates("records", full)
        default_templates = self._templates(None, full)
        assert all(plan.cluster.data_plane == "columnar" for _, plan, _ in default_templates)
        assert self._burst(default_templates) == self._burst(oracle_templates)
        for _, plan, _ in oracle_templates:
            assert self._declines(plan) == {}
        for kind, plan, _ in default_templates:
            declines = self._declines(plan)
            if kind == "group-by":
                assert set(declines) == {"no-kernel"} and declines["no-kernel"] >= 1
            else:
                assert declines == {}
