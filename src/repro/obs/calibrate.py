"""Prediction-accuracy reports: planning-time bounds against executed runs.

Every :class:`~repro.obs.record.PredictionRecord` pairs a planning-time
claim with a run-time observation; this module aggregates them into the
accountability numbers the paper's tradeoff story needs:

* **q-error** per bound method — ``max(bound/observed, observed/bound)``
  for size bounds; sound bounds never sit below 1, and the gap above 1
  is exactly how much replication the planner over-bought;
* **certificate-violation rate** — how often a non-expected certified
  max-reducer-load was exceeded (must be ~0; sampled-profile EXPECTED
  certificates are excluded by construction);
* **pricing error** — admission price vs. realized max load (what the
  service's ledger over-reserved);
* **replan win rate** from run metrics.

Tables render via :func:`repro.reports.render_table`.  The module also
ships a *calibration probe* — seeded FK-chain and Zipf chain workloads
planned with a recording registry that captures **every** registered
bound method's candidate per join node (not just the winner), executed,
and paired with the observed intermediate sizes — and a CLI that runs
the probe and prints its report::

    PYTHONPATH=src python -m repro.obs.calibrate --quick
"""

from __future__ import annotations

import argparse
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.record import (
    PredictionRecord,
    RunRecord,
    make_run_record,
)
from repro.reports import render_table

#: Fingerprint identity for the probe workloads (bump on workload edits).
PROBE_VERSION = 1


class RecordingBoundRegistry:
    """A delegating registry that remembers every decision it made.

    Wraps a real :class:`~repro.bounds.base.BoundRegistry` and stores
    each join-context :class:`~repro.bounds.base.BoundDecision` keyed by
    the induced sub-query's base-relation set — enough to line a
    planning-time decision (with *all* candidates, not just the winner)
    back up with the executed round that realized it.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.decisions: Dict[Tuple[str, ...], Any] = {}

    def names(self):
        return self.inner.names()

    @property
    def estimators(self):
        return self.inner.estimators

    def evaluate(self, context):
        decision = self.inner.evaluate(context)
        if context.is_join:
            key = tuple(sorted(relation.name for relation in context.query.relations))
            # First write wins: repeated evaluations of the same node see
            # the same context and produce the same decision.
            self.decisions.setdefault(key, decision)
        return decision


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def summarize_q_errors(
    predictions: Iterable[PredictionRecord],
) -> Dict[str, Dict[str, float]]:
    """Per-method q-error statistics over size predictions."""
    by_method: Dict[str, List[float]] = defaultdict(list)
    for record in predictions:
        q = record.q_error
        if q is not None and record.method:
            by_method[record.method].append(q)
    out: Dict[str, Dict[str, float]] = {}
    for method, values in by_method.items():
        out[method] = {
            "count": float(len(values)),
            "mean": sum(values) / len(values),
            "median": statistics.median(values),
            "max": max(values),
        }
    return out


def certificate_violation_rate(
    predictions: Iterable[PredictionRecord],
) -> Tuple[float, int]:
    """(violation rate, #checked) over non-expected certificates."""
    checked = violated = 0
    for record in predictions:
        if record.certified_load is None or record.observed_max_load is None:
            continue
        if record.kind == "expected":
            continue
        checked += 1
        if record.violated:
            violated += 1
    return (violated / checked if checked else 0.0), checked


def pricing_error(predictions: Iterable[PredictionRecord]) -> Optional[float]:
    """Mean admission-price q-error vs. the realized max reducer load."""
    ratios: List[float] = []
    for record in predictions:
        if record.admission_price is None or record.observed_max_load is None:
            continue
        price = max(record.admission_price, 1.0)
        observed = max(record.observed_max_load, 1.0)
        ratios.append(max(price / observed, observed / price))
    return sum(ratios) / len(ratios) if ratios else None


def calibration_metrics(
    predictions: Sequence[PredictionRecord],
) -> Dict[str, float]:
    """Flat headline metrics for a :class:`RunRecord`."""
    metrics: Dict[str, float] = {}
    stats = summarize_q_errors(predictions)
    all_means = [entry["mean"] for entry in stats.values()]
    if all_means:
        metrics["mean_q_error"] = sum(all_means) / len(all_means)
        metrics["max_q_error"] = max(entry["max"] for entry in stats.values())
    for method, entry in stats.items():
        metrics[f"q_error_mean.{method}"] = entry["mean"]
    rate, checked = certificate_violation_rate(predictions)
    metrics["certificate_violation_rate"] = rate
    metrics["certificates_checked"] = float(checked)
    price_err = pricing_error(predictions)
    if price_err is not None:
        metrics["pricing_error"] = price_err
    return metrics


def calibration_report(records: Sequence[RunRecord]) -> str:
    """Accuracy tables over run records, à la :mod:`repro.reports`."""
    q_rows: List[List[object]] = []
    run_rows: List[List[object]] = []
    for record in records:
        stats = summarize_q_errors(record.predictions)
        for method in sorted(stats):
            entry = stats[method]
            q_rows.append(
                [
                    record.bench,
                    method,
                    int(entry["count"]),
                    entry["mean"],
                    entry["median"],
                    entry["max"],
                ]
            )
        rate, checked = certificate_violation_rate(record.predictions)
        metrics = record.metrics
        run_rows.append(
            [
                record.bench,
                record.git_rev,
                len(record.predictions),
                checked,
                rate,
                metrics.get("pricing_error", float("nan")),
                metrics.get("replan_win_rate", float("nan")),
            ]
        )
    sections = []
    if q_rows:
        sections.append(
            render_table(
                "Size-bound q-error by method (bound/observed; 1.0 = exact)",
                ["run", "method", "n", "mean", "median", "max"],
                q_rows,
            )
        )
    sections.append(
        render_table(
            "Certificates, pricing, adaptation",
            [
                "run",
                "rev",
                "predictions",
                "certs checked",
                "violation rate",
                "pricing err",
                "replan wins",
            ],
            run_rows,
        )
    )
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# The calibration probe: seeded workloads, every method recorded
# ---------------------------------------------------------------------------

def run_calibration_probe(quick: bool = False) -> RunRecord:
    """Plan + execute the FK-chain and Zipf probe workloads.

    Each cascade is planned through a :class:`RecordingBoundRegistry`
    so the decision at every join node retains all four registered
    methods' candidates; after execution, each candidate is paired with
    the node's observed output size as a :class:`PredictionRecord`
    (method = the candidate's estimator, not just the winner's).
    """
    # Heavyweight planner/engine imports stay local so importing
    # ``repro.obs`` never drags the pipeline stack in.
    from repro.bounds import default_bound_registry
    from repro.datagen.relations import (
        fk_chain_join_instance,
        skewed_chain_join_instance,
    )
    from repro.mapreduce import MapReduceEngine
    from repro.pipeline import PipelinePlanner
    from repro.planner import CostBasedPlanner
    from repro.problems import JoinQuery, MultiwayJoinProblem
    from repro.schemas import SharesSchema
    from repro.stats import profile_relations

    size = 60 if quick else 220
    domain = 120 if quick else 400
    budget = 2000.0
    workloads = [
        (
            "fk-chain",
            fk_chain_join_instance(
                3, size, domain, degree_cap=2, fk_skew=0.6, seed=5
            ),
        ),
        (
            "zipf-chain",
            skewed_chain_join_instance(3, size, domain, skew=1.2, seed=7),
        ),
    ]

    engine = MapReduceEngine()
    predictions: List[PredictionRecord] = []
    for name, relations in workloads:
        recorder = RecordingBoundRegistry(default_bound_registry)
        problem = MultiwayJoinProblem(JoinQuery.chain(3), domain_size=domain)
        profile = profile_relations(relations)
        planner = PipelinePlanner(
            CostBasedPlanner.min_replication(), bound_registry=recorder
        )
        result = planner.plan(problem, q=budget, profile=profile)
        cascades = result.cascades()
        if not cascades:  # pragma: no cover - probe workloads always cascade
            continue
        cascade = cascades[0]
        run = cascade.execute(SharesSchema.input_records(relations), engine=engine)
        predictions.extend(_pair_cascade(name, cascade, run, recorder))

    return make_run_record(
        "calibration",
        quick=quick,
        metrics=calibration_metrics(predictions),
        meta={"workloads": [name for name, _ in workloads]},
        predictions=predictions,
        fingerprint_extra={
            "probe": PROBE_VERSION,
            "size": size,
            "domain": domain,
        },
    )


def _pair_cascade(workload, cascade, run, recorder) -> List[PredictionRecord]:
    from repro.pipeline.logical import BinaryJoinOp

    paired: List[PredictionRecord] = []
    for index, executed in enumerate(run.executed):
        if index >= len(cascade.rounds):
            break
        op = cascade.rounds[index].op
        if not isinstance(op, BinaryJoinOp):
            continue
        key = tuple(sorted(set(op.base_relations)))
        decision = recorder.decisions.get(key)
        if decision is None:
            continue
        kind = (
            executed.certification.kind.value
            if executed.certification is not None
            else ""
        )
        for candidate in decision.candidates:
            winner = candidate.method == decision.method
            paired.append(
                PredictionRecord(
                    query=workload,
                    round_index=index,
                    op=executed.op_label,
                    plan=executed.plan_name,
                    method=candidate.method,
                    kind=kind if winner else "",
                    estimated_rows=candidate.value,
                    observed_rows=float(executed.observed_output),
                    # Certificate pairing only on the winning method's row
                    # so violation rates count each round once.
                    certified_load=executed.certified_load if winner else None,
                    observed_max_load=(
                        float(executed.observed_max_load) if winner else None
                    ),
                    replanned=executed.replanned,
                    reused=executed.reused,
                    seconds=executed.seconds,
                )
            )
    return paired


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.calibrate",
        description=(
            "Run the bound-calibration probe workloads and print the "
            "accuracy report."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="small probe instances (CI smoke)"
    )
    args = parser.parse_args(argv)
    print(calibration_report([run_calibration_probe(quick=args.quick)]))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
