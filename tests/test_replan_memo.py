"""The re-plan memo: each mid-flight re-plan of a plan is decided once.

A re-plan is a pure function of (round, budget, observed profile), and all
but the last are fields of the :class:`~repro.pipeline.PipelinePlan`, so
the plan memoizes the planner's verdict per ``(round index, observed
profile fingerprint)``.  What the memo shares is the *planner call* only:
every execution still emits its own :class:`~repro.pipeline.ReplanEvent`,
feeds the tuner and runs the re-planned round.  The oracle throughout is a
memo-free run — a fresh plan object (``dataclasses.replace`` starts with an
empty memo) per execution.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.core.cost import ClusterCostModel
from repro.datagen.relations import (
    multiway_join_oracle,
    skewed_chain_join_instance,
)
from repro.exceptions import PlanningError
from repro.pipeline import PipelinePlanner
from repro.pipeline.execute import execute_pipeline
from repro.planner import CostBasedPlanner
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.schemas import SharesSchema
from repro.service import QueryService, ReplanTuner
from repro.stats.profile import (
    AttributeProfile,
    DatasetProfile,
    RelationProfile,
    profile_relations,
)

COPIES = 6


class PlannerSpy:
    """Counts (and optionally rewrites) calls to one planner's ``plan``."""

    def __init__(self, planner, rewrite=None):
        self.calls = 0
        self._plan = planner.plan
        self._rewrite = rewrite
        self._lock = threading.Lock()
        planner.plan = self

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            call = self.calls
        if self._rewrite is not None:
            return self._rewrite(call, self._plan, *args, **kwargs)
        return self._plan(*args, **kwargs)


@pytest.fixture
def replanning():
    """A cascade whose second round re-plans on this data, with a planner
    of its own (so a spy on it sees this plan's re-plans only)."""
    relations = skewed_chain_join_instance(3, 60, 24, skew=1.2, seed=7)
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=24)
    planned = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
        problem, q=240.0, profile=profile_relations(relations)
    )
    plan = planned.cascades()[0]
    records = SharesSchema.input_records(relations)
    _, oracle = multiway_join_oracle(relations)
    return plan, records, sorted(oracle)


def observable(run):
    """Everything an execution shows: events, per-round plans and
    certificates, outputs."""
    return (
        run.replan_events,
        [(e.plan_name, e.certification, e.replanned) for e in run.executed],
        run.outputs,
    )


def fresh_run(plan, records, **kwargs):
    return execute_pipeline(dataclasses.replace(plan), records, **kwargs)


# ----------------------------------------------------------------------
# One planner call, N independent observations
# ----------------------------------------------------------------------
class TestPlannerCalledOnce:
    def test_execute_pipeline_copies(self, replanning):
        plan, records, oracle = replanning
        expected = observable(fresh_run(plan, records))
        assert len(expected[0]) == 1 and expected[1][1][2]  # it does re-plan
        spy = PlannerSpy(plan.planner)
        observed_events = []
        runs = [
            execute_pipeline(plan, records, replan_observer=observed_events.append)
            for _ in range(COPIES)
        ]
        assert spy.calls == 1
        assert len(plan._replan_memo) == 1
        for run in runs:
            assert observable(run) == expected
            assert sorted(run.outputs) == oracle
        assert observed_events == list(expected[0]) * COPIES

    def test_service_copies(self, replanning):
        plan, records, oracle = replanning
        spy = PlannerSpy(plan.planner)
        with QueryService(capacity=10_000.0, tuner=ReplanTuner()) as service:
            handles = [service.submit(plan, records) for _ in range(COPIES)]
            runs = [handle.result(timeout=120) for handle in handles]
            stats = service.tuner.stats()
        assert spy.calls == 1
        wins = losses = 0
        for handle, run in zip(handles, runs):
            # The oracle replays the query one-shot on a fresh plan object
            # under the factor the service admitted it with.
            expected = observable(
                fresh_run(plan, records, replan_factor=handle.replan_factor)
            )
            assert observable(run) == expected
            assert sorted(run.outputs) == oracle
            wins += sum(event.won for event in expected[0])
            losses += sum(not event.won for event in expected[0])
        assert losses + wins >= COPIES
        assert (stats.wins, stats.losses) == (wins, losses)

    def test_nothing_fits_is_memoized_and_still_a_loss_each_time(self, replanning):
        plan, records, oracle = replanning

        def refuse(call, plan_fn, *args, **kwargs):
            raise PlanningError("nothing fits (scripted)")

        spy = PlannerSpy(plan.planner, rewrite=refuse)
        events = []
        runs = [
            execute_pipeline(plan, records, replan_observer=events.append)
            for _ in range(COPIES)
        ]
        assert spy.calls == 1
        assert list(plan._replan_memo.values()) == [None]
        for run in runs:
            (event,) = run.replan_events
            # Certified no better: the running plan under its observed bound.
            assert event.new_plan == event.old_plan
            assert event.new_bound == event.observed_bound and not event.won
            assert not run.executed[1].replanned
            assert run.executed[1].plan_name == plan.rounds[1].name
            assert sorted(run.outputs) == oracle
        assert len(events) == COPIES
        tuner = ReplanTuner()
        for event in events:
            tuner.observe(event)
        assert (tuner.stats().wins, tuner.stats().losses) == (0, COPIES)


# ----------------------------------------------------------------------
# What the key must tell apart
# ----------------------------------------------------------------------
class TestMemoKey:
    def test_different_observed_profile_misses(self, replanning):
        plan, records, _ = replanning
        # Drop a third of R2: round 0's intermediate, and with it the
        # profile round 1 is re-planned against, changes.
        r2 = [record for record in records if record[0] == "R2"]
        thinner = [r for r in records if r[0] != "R2"] + r2[: 2 * len(r2) // 3]
        spy = PlannerSpy(plan.planner)
        # replan_factor=1.0: any observed certificate triggers a re-plan.
        for data in (records, thinner, records, thinner):
            run = execute_pipeline(plan, data, replan_factor=1.0)
            assert observable(run) == observable(
                fresh_run(plan, data, replan_factor=1.0)
            )
        memo_calls = spy.calls - 4  # the four fresh oracle runs plan too
        assert memo_calls == 2
        keys = list(plan._replan_memo)
        assert len(keys) == 2 and {index for index, _ in keys} == {1}

    def test_budget_or_cost_model_never_share_an_entry(self, replanning):
        plan, records, _ = replanning
        priced = CostBasedPlanner(
            cost_model=ClusterCostModel(communication_rate=1.0, processing_rate=5.0)
        )
        variants = [
            plan,
            dataclasses.replace(plan, q_budget=plan.q_budget * 4),
            dataclasses.replace(plan, planner=priced),
        ]
        spies = [PlannerSpy(plan.planner), PlannerSpy(priced)]
        for variant in variants:
            assert variant._replan_memo == {}
            run = execute_pipeline(variant, records)
            assert observable(run) == observable(
                execute_pipeline(dataclasses.replace(variant), records)
            )
        memos = [variant._replan_memo for variant in variants]
        assert all(len(memo) == 1 for memo in memos)
        assert len({id(memo) for memo in memos}) == 3
        # Each variant and each of its oracle runs planned for itself.
        assert [spy.calls for spy in spies] == [4, 2]

    def test_racing_first_occurrences_agree(self, replanning):
        """Racing executions may each plan; they must all run one verdict.

        Every thread is held inside the planner call until all have
        missed the memo, and each is handed a *different* feasible plan
        (the ranking rotated by its call number), so only ``setdefault``
        can make them agree.
        """
        plan, records, oracle = replanning
        threads = 6  # more than the cores of the CI boxes
        barrier = threading.Barrier(threads, timeout=60)

        def rotated(call, plan_fn, *args, **kwargs):
            result = plan_fn(*args, **kwargs)
            barrier.wait()
            shift = call % len(result.plans)
            return dataclasses.replace(
                result, plans=result.plans[shift:] + result.plans[:shift]
            )

        spy = PlannerSpy(plan.planner, rewrite=rotated)
        runs, errors = [], []

        def work():
            try:
                runs.append(execute_pipeline(plan, records))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(w.is_alive() for w in workers)
        assert spy.calls == threads and len(runs) == threads
        (verdict,) = plan._replan_memo.values()
        for run in runs:
            assert run.executed[1].plan_name == verdict.name
            assert run.replan_events == runs[0].replan_events
            assert sorted(run.outputs) == oracle
        # ... and the verdict stands: no later execution plans again.
        assert execute_pipeline(plan, records).executed[1].plan_name == verdict.name
        assert spy.calls == threads


# ----------------------------------------------------------------------
# Per-relation fingerprints: the memo's (and the re-certify cache's) key
# ----------------------------------------------------------------------
def _relation(name="R", histogram=None, rows=None) -> RelationProfile:
    histogram = {1: 3, 2: 1} if histogram is None else histogram
    total = sum(histogram.values())
    return RelationProfile(
        name=name,
        total_rows=total if rows is None else rows,
        attributes={
            "A": AttributeProfile(
                attribute="A",
                total_count=total,
                distinct_estimate=float(len(histogram)),
                histogram=histogram,
            )
        },
    )


class TestRelationFingerprints:
    def test_equal_content_equal_fingerprint(self):
        first, second = _relation(), _relation(histogram={2: 1, 1: 3})
        assert first is not second and first == second
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() == first.fingerprint()  # memoized
        assert (
            DatasetProfile({"R": first}).fingerprint()
            == DatasetProfile({"R": second}).fingerprint()
        )

    @pytest.mark.parametrize(
        "changed",
        [
            _relation(histogram={1: 3, 2: 2}),  # one count
            _relation(histogram={1: 3, 3: 1}),  # one value
            _relation(histogram={1: 3}),  # one value gone
            _relation(rows=5),
            _relation(name="S"),
        ],
    )
    def test_any_change_changes_it(self, changed):
        base = _relation()
        assert changed.fingerprint() != base.fingerprint()
        assert (
            DatasetProfile({"R": changed, "T": _relation("T")}).fingerprint()
            != DatasetProfile({"R": base, "T": _relation("T")}).fingerprint()
        )

    def test_dataset_fingerprint_names_its_relations(self):
        relation = _relation()
        assert (
            DatasetProfile({"R": relation}).fingerprint()
            != DatasetProfile({"S": relation}).fingerprint()
        )

    def test_matches_profiled_and_streamed_content(self):
        relations = skewed_chain_join_instance(2, 40, 12, skew=1.2, seed=3)
        first, second = profile_relations(relations), profile_relations(relations)
        assert first.fingerprint() == second.fingerprint()
        for name in first.relations:
            assert (
                first.relation(name).fingerprint()
                == second.relation(name).fingerprint()
            )
        other = profile_relations(
            skewed_chain_join_instance(2, 40, 12, skew=1.2, seed=4)
        )
        assert first.fingerprint() != other.fingerprint()
