"""Tests for the observability layer: tracer, metrics, exporters, wiring.

Covers the three contracts the layer makes:

* **Thread safety** — `Tracer` and `MetricsRegistry` accept concurrent
  writers without losing or duplicating anything.
* **Zero-overhead default** — runs observed by the null objects are
  bit-identical (outputs *and* full `JobMetrics`) to runs with nothing
  wired at all.
* **Deterministic exporters** — the Chrome-trace and Prometheus
  documents for a fixed span/series layout are pinned by golden files.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.datagen.relations import skewed_chain_join_instance
from repro.exceptions import AdmissionError, ConfigurationError
from repro.mapreduce import (
    ClusterConfig,
    MapReduceEngine,
    MapReduceJob,
    PartitionedShuffle,
)
from repro.obs import (
    NULL_METRICS,
    NULL_OBSERVABILITY,
    NULL_TRACER,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
    chrome_trace,
    latency_breakdown,
    prometheus_text,
    query_phase_rows,
    walk,
    write_chrome_trace,
)
from repro.pipeline import PipelinePlanner
from repro.planner import CostBasedPlanner
from repro.problems import JoinQuery, MultiwayJoinProblem
from repro.schemas import SharesSchema
from repro.service import QueryService
from repro.stats import profile_relations

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def word_count_job() -> MapReduceJob:
    def mapper(document: str):
        for word in document.split():
            yield (word, 1)

    def reducer(word: str, counts):
        yield (word, sum(counts))

    return MapReduceJob(mapper=mapper, reducer=reducer, name="wc")


DOCUMENTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "the five boxing wizards jump quickly",
] * 40


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_follows_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
                assert inner.parent_id == outer.span_id
            assert tracer.current() is outer
        assert tracer.current() is None
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert all(s.end is not None for s in spans)

    def test_explicit_parent_beats_stack(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("outer"):
            with tracer.span("child", parent=root) as child:
                assert child.parent_id == root.span_id
        root.finish()

    def test_start_span_does_not_join_stack(self):
        tracer = Tracer()
        detached = tracer.start_span("detached")
        assert tracer.current() is None
        with tracer.span("managed") as managed:
            assert managed.parent_id is None
        detached.finish()
        detached.finish()  # idempotent
        assert sum(1 for s in tracer.spans() if s.name == "detached") == 1

    def test_record_span_clamps_negative_duration(self):
        tracer = Tracer()
        span = tracer.record_span("derived", start=tracer.epoch, duration=-5.0)
        assert span.duration == 0.0
        assert tracer.spans() == [span]

    def test_attributes_and_error_marking(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing", round=3) as span:
                span.set(plan="p1")
                raise ValueError("boom")
        (recorded,) = tracer.spans()
        assert recorded.attributes == {
            "round": 3,
            "plan": "p1",
            "error": "ValueError",
        }

    def test_generator_control_flow_is_not_an_error(self):
        tracer = Tracer()

        def gen():
            yield

        advancing = gen()
        next(advancing)
        with pytest.raises(StopIteration):
            with tracer.span("planning"):
                advancing.send(None)
        (recorded,) = tracer.spans()
        assert "error" not in recorded.attributes

    def test_concurrent_spans_unique_and_complete(self):
        tracer = Tracer()
        threads, per_thread = 8, 50
        barrier = threading.Barrier(threads)

        def worker(index: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                with tracer.span("work", thread=index, i=i):
                    with tracer.span("nested"):
                        pass

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == threads * per_thread * 2
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)
        # Every nested span parents under a "work" span from its own thread.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name == "nested":
                parent = by_id[span.parent_id]
                assert parent.name == "work"
                assert parent.thread_id == span.thread_id

    def test_walk_groups_children_in_time_order(self):
        tracer = Tracer()
        root = tracer.record_span("root", start=0.0, duration=10.0)
        late = tracer.record_span("late", start=5.0, duration=1.0, parent=root)
        early = tracer.record_span("early", start=1.0, duration=1.0, parent=root)
        tree = {span.name: children for span, children in walk(tracer.spans())}
        assert [c.name for c in tree["root"]] == ["early", "late"]
        assert tree["early"] == () and tree["late"] == ()

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.clear()
        assert tracer.spans() == []


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_factories_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("jobs_total")

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h2", buckets=())

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("phase_seconds_total")
        counter.inc(2.5, phase="map")
        counter.inc(1.5, phase="reduce")
        assert counter.value(phase="map") == 2.5
        assert counter.value(phase="reduce") == 1.5
        assert counter.value(phase="shuffle") == 0.0

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        series = hist.series()
        assert series["buckets"] == {1.0: 1, 2.0: 2, 4.0: 3}
        assert series["count"] == 4  # 100.0 lands only in the +Inf bucket
        assert series["sum"] == pytest.approx(105.0)

    def test_concurrent_updates_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        gauge = registry.gauge("level")
        hist = registry.histogram("latency", buckets=(0.5, 1.0))
        threads, per_thread = 8, 200
        barrier = threading.Barrier(threads)

        def worker(index: int) -> None:
            barrier.wait()
            for _ in range(per_thread):
                counter.inc(kind="a")
                counter.inc(2.0, kind="b")
                gauge.inc()
                gauge.dec()
                hist.observe(0.25)

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = threads * per_thread
        assert counter.value(kind="a") == total
        assert counter.value(kind="b") == 2.0 * total
        assert gauge.value() == 0.0
        series = hist.series()
        assert series["count"] == total
        assert series["buckets"][0.5] == total

    def test_snapshot_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("zz", "last").inc()
        registry.gauge("aa", "first").set(3)
        snap = registry.snapshot()
        assert list(snap) == ["aa", "zz"]
        assert snap["aa"]["kind"] == "gauge"
        assert snap["aa"]["series"] == [{"labels": {}, "value": 3.0}]


# ----------------------------------------------------------------------
# Null objects and the bit-identity regression
# ----------------------------------------------------------------------
class TestNullObjects:
    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", round=1)
        assert span is NULL_TRACER.start_span("other")
        assert span is NULL_TRACER.record_span("derived", 0.0, 1.0)
        with span as entered:
            assert entered is span
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.spans() == []
        assert not NULL_TRACER.enabled
        assert span.set(key="value") is span
        assert span.attributes == {}

    def test_null_metrics_is_inert(self):
        instrument = NULL_METRICS.counter("anything")
        assert instrument is NULL_METRICS.gauge("other")
        assert instrument is NULL_METRICS.histogram("third")
        instrument.inc()
        instrument.set(5)
        instrument.observe(1.0)
        assert instrument.value() == 0.0
        assert NULL_METRICS.snapshot() == {}
        assert not NULL_METRICS.enabled

    def test_observability_defaults(self):
        assert NULL_OBSERVABILITY.tracer is NULL_TRACER
        assert NULL_OBSERVABILITY.metrics is NULL_METRICS
        assert not NULL_OBSERVABILITY.enabled
        collecting = Observability.collecting()
        assert collecting.enabled
        assert isinstance(collecting.tracer, Tracer)
        assert isinstance(collecting.metrics, MetricsRegistry)

    def test_cluster_config_resolves_and_validates(self):
        config = ClusterConfig()
        assert config.tracer is NULL_TRACER
        assert config.metrics is NULL_METRICS
        obs = Observability.collecting()
        wired = ClusterConfig(tracer=obs.tracer, metrics=obs.metrics)
        assert wired.tracer is obs.tracer
        with pytest.raises(ConfigurationError):
            ClusterConfig(tracer="not a tracer")
        with pytest.raises(ConfigurationError):
            ClusterConfig(metrics="not a registry")

    def test_null_observed_engine_run_is_bit_identical(self):
        job = word_count_job()
        untraced = MapReduceEngine().run(job, DOCUMENTS)
        nulled = MapReduceEngine(
            ClusterConfig(tracer=NullTracer(), metrics=NullMetricsRegistry())
        ).run(job, DOCUMENTS)
        obs = Observability.collecting()
        traced = MapReduceEngine(
            ClusterConfig(tracer=obs.tracer, metrics=obs.metrics)
        ).run(job, DOCUMENTS)
        assert untraced.outputs == nulled.outputs == traced.outputs
        # Full JobMetrics equality: observation must not perturb any
        # recorded number (timings/spill volume are compare=False).
        assert untraced.metrics == nulled.metrics == traced.metrics
        assert obs.tracer.spans()  # ...while the traced run did record

    def test_traced_job_records_phase_spans_and_metrics(self):
        obs = Observability.collecting()
        config = ClusterConfig(tracer=obs.tracer, metrics=obs.metrics)
        result = MapReduceEngine(config).run(word_count_job(), DOCUMENTS)
        tree = {span.name: children for span, children in walk(obs.tracer.spans())}
        assert set(tree) == {"job", "map", "shuffle", "reduce"}
        assert sorted(c.name for c in tree["job"]) == ["map", "reduce", "shuffle"]
        job_span = next(s for s in obs.tracer.spans() if s.name == "job")
        assert job_span.attributes["job"] == "wc"
        assert job_span.attributes["inputs"] == len(DOCUMENTS)
        assert job_span.attributes["replication_rate"] == pytest.approx(
            result.metrics.shuffle.replication_rate, abs=1e-6
        )
        snap = obs.metrics.snapshot()
        assert snap["engine_jobs_total"]["series"][0]["value"] == 1.0
        assert snap["engine_replication_rate"]["series"]
        phases = {
            s["labels"]["phase"]
            for s in snap["engine_phase_seconds_total"]["series"]
        }
        assert phases == {"map", "shuffle", "reduce"}


# ----------------------------------------------------------------------
# ShuffleStats.bytes_shuffled (satellite b)
# ----------------------------------------------------------------------
class TestBytesShuffled:
    def test_partitioned_shuffle_reports_spill_volume(self):
        job = word_count_job()
        spilling = MapReduceEngine(
            shuffle_factory=lambda: PartitionedShuffle(
                num_partitions=4, buffer_size=8
            )
        ).run(job, DOCUMENTS)
        in_memory = MapReduceEngine().run(job, DOCUMENTS)
        assert spilling.metrics.shuffle.bytes_shuffled is not None
        assert spilling.metrics.shuffle.bytes_shuffled > 0
        assert in_memory.metrics.shuffle.bytes_shuffled is None
        # Spill volume is a backend property, not a semantic one: full
        # metrics equality across backends must survive the new field.
        assert spilling.metrics == in_memory.metrics

    def test_spill_metrics_reach_the_registry(self):
        obs = Observability.collecting()
        MapReduceEngine(
            ClusterConfig(tracer=obs.tracer, metrics=obs.metrics),
            shuffle_factory=lambda: PartitionedShuffle(
                num_partitions=4, buffer_size=8
            ),
        ).run(word_count_job(), DOCUMENTS)
        snap = obs.metrics.snapshot()
        assert snap["shuffle_spill_bytes_total"]["series"][0]["value"] > 0
        assert snap["shuffle_spill_chunks_total"]["series"][0]["value"] > 0


# ----------------------------------------------------------------------
# Exporters (golden files)
# ----------------------------------------------------------------------
def _golden_tracer() -> Tracer:
    """A deterministic span layout: fixed offsets from the epoch."""
    tracer = Tracer()
    query = tracer.record_span(
        "query", tracer.epoch, 0.010, query=1, label="chain-join-3", status="ok"
    )
    tracer.record_span(
        "admission-wait", tracer.epoch, 0.001, parent=query, priority=1.0
    )
    planning = tracer.record_span(
        "planning", tracer.epoch + 0.001, 0.002, parent=query
    )
    tracer.record_span(
        "re-certify", tracer.epoch + 0.0015, 0.001, parent=planning, round=0
    )
    job = tracer.record_span(
        "round-execute", tracer.epoch + 0.003, 0.006, parent=query, round=0
    )
    tracer.record_span("map", tracer.epoch + 0.003, 0.002, parent=job)
    tracer.record_span("shuffle", tracer.epoch + 0.005, 0.001, parent=job)
    tracer.record_span("reduce", tracer.epoch + 0.006, 0.003, parent=job)
    return tracer


def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    jobs = registry.counter("engine_jobs_total", "Jobs executed by the engine.")
    jobs.inc(3)
    phase = registry.counter("engine_phase_seconds_total", "Seconds per phase.")
    phase.inc(0.25, phase="map")
    phase.inc(0.5, phase="reduce")
    depth = registry.gauge("service_queue_depth", "Rounds waiting on admission.")
    depth.set(2)
    waits = registry.histogram(
        "service_admission_wait_seconds",
        "Queued time before admission.",
        buckets=(0.001, 0.01, 0.1),
    )
    for value in (0.0005, 0.004, 0.05, 2.0):
        waits.observe(value, priority="1")
    return registry


class TestExporters:
    def test_chrome_trace_matches_golden(self):
        document = chrome_trace(_golden_tracer())
        with open(os.path.join(GOLDEN_DIR, "chrome_trace.json")) as handle:
            golden = json.load(handle)
        assert document == golden

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = write_chrome_trace(_golden_tracer(), str(tmp_path / "trace.json"))
        with open(path) as handle:
            document = json.load(handle)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        spans = [e for e in events if e["ph"] == "X"]
        assert all(
            {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(e)
            for e in spans
        )
        # ts/dur are microseconds since epoch: the query span starts at 0.
        root = next(e for e in spans if e["name"] == "query")
        assert root["ts"] == 0.0 and root["dur"] == 10000.0

    def test_prometheus_text_matches_golden(self):
        text = prometheus_text(_golden_registry())
        with open(os.path.join(GOLDEN_DIR, "prometheus.txt")) as handle:
            golden = handle.read()
        assert text == golden

    def test_query_phase_rows_attribute_whole_subtrees(self):
        (row,) = query_phase_rows(_golden_tracer())
        assert row["query"] == 1
        assert row["status"] == "ok"
        assert row["total_s"] == pytest.approx(0.010)
        assert row["admission_wait_s"] == pytest.approx(0.001)
        # re-certify nests under planning: counted once, not twice.
        assert row["planning_s"] == pytest.approx(0.002)
        assert row["map_s"] == pytest.approx(0.002)
        assert row["shuffle_s"] == pytest.approx(0.001)
        assert row["reduce_s"] == pytest.approx(0.003)
        assert row["parked_s"] == 0.0
        assert row["other_s"] == pytest.approx(0.001)

    def test_latency_breakdown_renders_all_queries(self):
        report = latency_breakdown(_golden_tracer())
        lines = report.splitlines()
        assert "admission-wait" in lines[0]
        assert lines[-1].startswith("  all")
        assert "(1 queries)" in lines[-1]
        assert latency_breakdown(Tracer()).startswith("latency breakdown: no")


# ----------------------------------------------------------------------
# Service wiring (observer=..., starvation metric)
# ----------------------------------------------------------------------
def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "service never reached the state"
        time.sleep(0.005)


def _chain_plan(q: float = 200.0):
    relations = skewed_chain_join_instance(3, 60, 24, skew=1.2, seed=7)
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=24)
    result = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
        problem, q=q, profile=profile_relations(relations)
    )
    return result.best, SharesSchema.input_records(relations)


class TestServiceObservability:
    def test_default_observer_is_null_and_identical(self):
        plan, records = _chain_plan()
        service = QueryService(capacity=400.0)
        try:
            assert service.observer is NULL_OBSERVABILITY
            observed = service.submit(plan, records).result(60)
        finally:
            service.close()
        obs = Observability.collecting()
        traced_service = QueryService(capacity=400.0, observer=obs)
        try:
            traced = traced_service.submit(plan, records).result(60)
        finally:
            traced_service.close()
        assert observed.outputs == traced.outputs

    def test_traced_run_exports_phase_breakdown_and_metrics(self):
        plan, records = _chain_plan()
        obs = Observability.collecting()
        service = QueryService(capacity=400.0, observer=obs)
        try:
            handles = [service.submit(plan, records) for _ in range(3)]
            for handle in handles:
                handle.result(60)
            described = service.describe()
        finally:
            service.close()

        spans = obs.tracer.spans()
        roots = [s for s in spans if s.name == "query"]
        assert len(roots) == 3
        assert all(s.attributes["status"] == "ok" for s in roots)
        root_ids = {s.span_id for s in roots}
        executes = [s for s in spans if s.name == "round-execute"]
        assert executes and all(s.parent_id in root_ids for s in executes)
        assert any(s.name == "admission-wait" for s in spans)

        rows = query_phase_rows(obs.tracer)
        assert len(rows) == 3
        for row in rows:
            assert row["total_s"] > 0
            assert row["map_s"] > 0 and row["reduce_s"] > 0
        report = latency_breakdown(obs.tracer)
        assert "(3 queries)" in report

        document = chrome_trace(obs.tracer, process_name="service-test")
        json.dumps(document)  # Perfetto-loadable: valid JSON
        assert document["traceEvents"][0]["args"]["name"] == "service-test"

        snap = obs.metrics.snapshot()
        assert snap["service_queries_total"]["series"] == [
            {"labels": {"status": "ok"}, "value": 3.0}
        ]
        assert snap["service_query_seconds"]["series"][0]["count"] == 3
        assert snap["engine_jobs_total"]["series"][0]["value"] == 3.0
        assert "max_queued_wait_by_priority" in described["rounds"]

    def test_starvation_metric_under_tight_capacity(self, hold_rounds):
        # Capacity fits one round at a time: later queries must queue
        # (the first round holds on the gate until one has), and the
        # max-queued-wait gauge has to witness the wait.
        plan, records = _chain_plan()
        price = max(
            r.certified_load
            if r.certified_load is not None
            else plan.q_budget
            for r in plan.rounds
        )
        gate = hold_rounds()
        obs = Observability.collecting()
        service = QueryService(capacity=price * 1.05, observer=obs)
        try:
            handles = [
                service.submit(plan, records, priority=1.0) for _ in range(4)
            ]
            _wait_until(lambda: service.describe()["rounds"]["queued"] >= 1)
            gate.set()
            for handle in handles:
                handle.result(120)
            described = service.describe()
        finally:
            gate.set()
            service.close()
        waits = described["rounds"]["max_queued_wait_by_priority"]
        assert waits.get("1", 0.0) > 0.0
        snap = obs.metrics.snapshot()
        gauge = snap["service_max_queued_wait_seconds"]["series"]
        assert any(
            s["labels"] == {"priority": "1"} and s["value"] > 0.0 for s in gauge
        )
        deferrals = snap["service_deferrals_total"]["series"]
        assert deferrals and deferrals[0]["value"] > 0


class TestQueryOutcomeBreakdowns:
    """Non-ok outcomes must still land in the phase breakdown: rejected
    submissions (AdmissionError before any round), queries that fail
    mid-pipeline, and queries swept by ``close(wait=False)`` all record
    a root ``query`` span, so `query_phase_rows`/`latency_breakdown`
    report every submission, not just the happy path."""

    def test_rejected_submission_recorded(self):
        plan, records = _chain_plan()
        price = max(
            r.certified_load if r.certified_load is not None else plan.q_budget
            for r in plan.rounds
        )
        obs = Observability.collecting()
        service = QueryService(capacity=price * 0.5, observer=obs)
        try:
            with pytest.raises(AdmissionError, match="never be admitted"):
                service.submit(plan, records, priority=3.0)
        finally:
            service.close()
        (row,) = query_phase_rows(obs.tracer)
        assert row["status"] == "rejected"
        assert row["total_s"] == 0.0  # rejected before any phase ran
        assert row["other_s"] == 0.0
        assert "(1 queries)" in latency_breakdown(obs.tracer)
        snap = obs.metrics.snapshot()
        assert snap["service_queries_total"]["series"] == [
            {"labels": {"status": "rejected"}, "value": 1.0}
        ]

    def test_failed_query_recorded_with_status(self):
        plan, records = _chain_plan()
        obs = Observability.collecting()
        service = QueryService(capacity=400.0, observer=obs)
        try:
            ok = service.submit(plan, records)
            # Records naming a relation outside the query fail planning.
            bad = service.submit(plan, [("NOPE", (1, 2))])
            with pytest.raises(ConfigurationError, match="NOPE"):
                bad.result(60)
            ok.result(60)
        finally:
            service.close()
        rows = query_phase_rows(obs.tracer)
        status_by_query = {row["query"]: row["status"] for row in rows}
        assert sorted(status_by_query.values()) == ["failed", "ok"]
        for row in rows:
            assert row["total_s"] >= 0.0
        assert "(2 queries)" in latency_breakdown(obs.tracer)
        snap = obs.metrics.snapshot()
        statuses = {
            tuple(s["labels"].items()): s["value"]
            for s in snap["service_queries_total"]["series"]
        }
        assert statuses[(("status", "failed"),)] == 1.0
        assert statuses[(("status", "ok"),)] == 1.0

    def test_close_mid_flight_queries_recorded(self, hold_rounds):
        plan, records = _chain_plan()
        price = max(
            r.certified_load if r.certified_load is not None else plan.q_budget
            for r in plan.rounds
        )
        gate = hold_rounds()
        obs = Observability.collecting()
        # Capacity fits one round: later submissions queue behind the gated
        # first round, so the close lands mid-flight however fast planning
        # is, and sweeps them.
        service = QueryService(capacity=price * 1.05, observer=obs)
        try:
            handles = [service.submit(plan, records) for _ in range(3)]
            _wait_until(lambda: service.describe()["rounds"]["queued"] == 2)
            service.close(wait=False)
        finally:
            gate.set()
        outcomes = []
        for handle in handles:
            try:
                handle.result(60)
                outcomes.append("ok")
            except AdmissionError:
                outcomes.append("failed")
        # The running round completes; the two queued behind it cannot.
        assert sorted(outcomes) == ["failed", "failed", "ok"]
        rows = query_phase_rows(obs.tracer)
        assert len(rows) == 3
        assert sorted(row["status"] for row in rows) == sorted(outcomes)
        assert all(row["total_s"] >= 0.0 for row in rows)
        assert "(3 queries)" in latency_breakdown(obs.tracer)
