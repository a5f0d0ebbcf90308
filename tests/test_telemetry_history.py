"""Run records and calibration: what the service exports at run time.

* :class:`PredictionRecord` / :class:`RunRecord` round-trip losslessly
  through JSON and derive q-error / violation facts correctly;
* :meth:`QueryService.run_record` exports real prediction pairs and
  headline metrics;
* the calibration probe records all four registered bound methods per
  join node with degree-constraint ≤ AGM and a zero observed
  certificate-violation rate, and its CLI prints the report without
  writing anything.
"""

from __future__ import annotations

import pytest

from repro.datagen.relations import skewed_chain_join_instance
from repro.obs.calibrate import (
    calibration_metrics,
    calibration_report,
    main as calibrate_main,
    run_calibration_probe,
    summarize_q_errors,
)
from repro.obs.record import (
    PredictionRecord,
    RunRecord,
    make_run_record,
    run_fingerprint,
)
from repro.pipeline import PipelinePlanner
from repro.planner import CostBasedPlanner
from repro.problems.joins import JoinQuery, MultiwayJoinProblem
from repro.schemas import SharesSchema
from repro.service import QueryService
from repro.stats.profile import profile_relations


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _prediction(**overrides):
    base = dict(
        query="q1",
        round_index=0,
        op="R1*R2",
        plan="shares",
        method="agm",
        kind="exact",
        estimated_rows=120.0,
        observed_rows=40.0,
        certified_load=30.0,
        observed_max_load=25.0,
        admission_price=30.0,
        replanned=False,
        reused=False,
        seconds=0.5,
    )
    base.update(overrides)
    return PredictionRecord(**base)


class TestPredictionRecord:
    def test_q_error_is_symmetric_ratio(self):
        assert _prediction(estimated_rows=120.0, observed_rows=40.0).q_error == 3.0
        assert _prediction(estimated_rows=40.0, observed_rows=120.0).q_error == 3.0
        assert _prediction(estimated_rows=50.0, observed_rows=50.0).q_error == 1.0
        assert _prediction(estimated_rows=None).q_error is None
        # Empty observations stay finite (clamped at one row).
        assert _prediction(estimated_rows=8.0, observed_rows=0.0).q_error == 8.0
        assert _prediction(estimated_rows=0.0, observed_rows=0.0).q_error == 1.0

    def test_violation_requires_bounding_kind(self):
        assert _prediction(observed_max_load=31.0).violated
        assert not _prediction(observed_max_load=30.0).violated
        assert not _prediction(observed_max_load=31.0, kind="expected").violated
        assert not _prediction(certified_load=None, observed_max_load=31.0).violated

    def test_round_trip(self):
        record = _prediction()
        assert PredictionRecord.from_dict(record.to_dict()) == record
        sparse = PredictionRecord(query="q", round_index=1, op="o", plan="p")
        assert PredictionRecord.from_dict(sparse.to_dict()) == sparse


class TestRunRecord:
    def test_json_round_trip(self):
        record = make_run_record(
            "unit",
            quick=True,
            metrics={"queries_per_second": 12.5, "deferrals": 3.0},
            meta={"note": "hello"},
            predictions=[_prediction()],
            fingerprint_extra={"workload": "chain3"},
        )
        restored = RunRecord.from_json(record.to_json())
        assert restored == record
        assert restored.git_rev == record.git_rev
        assert restored.env["cpu_count"] >= 1

    def test_fingerprint_is_identity_stable(self):
        a = run_fingerprint("b", quick=False, size=60, seed=7)
        b = run_fingerprint("b", quick=False, seed=7, size=60)
        assert a == b  # key order canonicalized
        assert a != run_fingerprint("b", quick=True, size=60, seed=7)
        assert a != run_fingerprint("b", quick=False, size=61, seed=7)


# ----------------------------------------------------------------------
# Producers: pipeline + service
# ----------------------------------------------------------------------
DOMAIN = 24
SIZE = 60


def _chain_plan(q: float = 200.0):
    relations = skewed_chain_join_instance(3, SIZE, DOMAIN, skew=1.2, seed=7)
    problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=DOMAIN)
    result = PipelinePlanner(CostBasedPlanner.min_replication()).plan(
        problem, q=q, profile=profile_relations(relations)
    )
    return result.best, SharesSchema.input_records(relations)


@pytest.fixture(scope="module")
def chain_plan():
    return _chain_plan()


def _run_service_workload(chain_plan, bench="svc-e2e", copies=3, **service_kwargs):
    plan, records = chain_plan
    service = QueryService(capacity=400.0, **service_kwargs)
    try:
        for _ in range(copies):
            service.submit(plan, records).result(timeout=120)
        record = service.run_record(
            bench, quick=True, fingerprint_extra={"copies": copies}
        )
    finally:
        service.close()
    return record


class TestServiceRunRecord:
    def test_exports_predictions_and_headlines(self, chain_plan):
        record = _run_service_workload(chain_plan)
        assert record.bench == "svc-e2e"
        assert record.metrics["queries_finished"] == 3.0
        assert record.metrics["queries_per_second"] > 0
        assert record.metrics["deferrals"] >= 0.0
        assert record.predictions, "telemetry-on service must pair predictions"
        for prediction in record.predictions:
            assert prediction.estimated_rows >= prediction.observed_rows
            assert prediction.admission_price is not None
            assert not prediction.violated
            if not prediction.reused:
                assert prediction.seconds > 0
        # Round-trips through JSON unchanged.
        assert RunRecord.from_json(record.to_json()) == record
        snapshot = record.meta["snapshot"]
        assert snapshot["telemetry"]["predictions"] == len(record.predictions)

    def test_telemetry_flag_disables_accumulation(self, chain_plan):
        record = _run_service_workload(chain_plan, copies=1, telemetry=False)
        assert record.predictions == ()
        assert record.metrics["queries_finished"] == 1.0


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
EXPECTED_METHODS = {
    "per-value-histogram",
    "agm",
    "degree-constraint",
    "top-k-frequency",
}


@pytest.fixture(scope="module")
def probe_record():
    return run_calibration_probe(quick=True)


class TestCalibration:
    def test_probe_records_all_four_methods(self, probe_record):
        stats = summarize_q_errors(probe_record.predictions)
        assert EXPECTED_METHODS <= set(stats)
        # Sound bounds: every q-error comes from bound >= observed.
        for prediction in probe_record.predictions:
            if prediction.method in EXPECTED_METHODS:
                assert prediction.estimated_rows >= prediction.observed_rows

    def test_degree_constraint_at_most_agm_per_node(self, probe_record):
        by_node = {}
        for prediction in probe_record.predictions:
            by_node.setdefault(
                (prediction.query, prediction.round_index), {}
            )[prediction.method] = prediction.estimated_rows
        compared = 0
        for bounds in by_node.values():
            if "degree-constraint" in bounds and "agm" in bounds:
                assert bounds["degree-constraint"] <= bounds["agm"]
                compared += 1
        assert compared > 0

    def test_violation_rate_zero_and_metrics_flattened(self, probe_record):
        metrics = probe_record.metrics
        assert metrics["certificate_violation_rate"] == 0.0
        assert metrics["certificates_checked"] > 0
        assert metrics["mean_q_error"] >= 1.0
        for method in EXPECTED_METHODS:
            assert f"q_error_mean.{method}" in metrics

    def test_report_renders_tables(self, probe_record):
        report = calibration_report([probe_record])
        assert "Size-bound q-error by method" in report
        assert "degree-constraint" in report
        assert "violation rate" in report

    def test_cli_prints_report_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert calibrate_main(["--quick"]) == 0
        out = capsys.readouterr().out
        for method in EXPECTED_METHODS:
            assert method in out
        assert list(tmp_path.iterdir()) == []


def test_calibration_metrics_from_mixed_predictions():
    predictions = [
        _prediction(method="agm", estimated_rows=100.0, observed_rows=50.0),
        _prediction(
            method="degree-constraint", estimated_rows=60.0, observed_rows=50.0
        ),
        _prediction(
            method="",
            estimated_rows=None,
            observed_rows=None,
            certified_load=None,
            observed_max_load=None,
            admission_price=None,
        ),
    ]
    metrics = calibration_metrics(predictions)
    assert metrics["q_error_mean.agm"] == 2.0
    assert metrics["q_error_mean.degree-constraint"] == 1.2
    assert metrics["certificates_checked"] == 2.0
    assert metrics["certificate_violation_rate"] == 0.0
