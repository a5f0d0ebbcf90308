"""Canonical run records: predictions paired with observations.

The planner, the certifier and the admission controller all *predict* —
estimated intermediate sizes, certified max-reducer loads, admission
prices, replan decisions.  The engine then *observes* — actual rows,
actual max loads, wall-clock.  A :class:`PredictionRecord` pairs one
prediction with its observation; a :class:`RunRecord` bundles a whole
run's worth (plus headline metrics, environment and a workload
fingerprint) into a canonical JSON document that round-trips losslessly
through :meth:`RunRecord.to_dict` / :meth:`RunRecord.from_dict`.

Records are what :meth:`QueryService.run_record` exports and what
:mod:`repro.obs.calibrate` aggregates into accuracy reports.  This
module is deliberately leaf-level: it imports nothing from the pipeline,
service or bounds layers, so any of them can emit records without import
cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Bump when the serialized shape changes incompatibly.
RECORD_SCHEMA = 1

#: Certification kinds whose bound is an *expectation*, not a sound
#: bound — excluded from certificate-violation accounting.  Mirrors
#: ``CertificationKind.EXPECTED.value`` without importing the planner.
EXPECTED_KIND = "expected"


@dataclass(frozen=True)
class PredictionRecord:
    """One prediction paired with what actually happened.

    ``estimated_rows`` is the planning-time size bound for the round's
    output (``method`` names the bound estimator that won); ``certified_
    load`` / ``observed_max_load`` pair the admission certificate with
    the realized max reducer load; ``admission_price`` is what the
    service's ledger charged.  Optional fields are ``None`` when the
    producing layer had nothing to say (e.g. calibration probes record
    per-method size bounds with no admission price).
    """

    query: str
    round_index: int
    op: str
    plan: str
    method: str = ""
    kind: str = ""
    estimated_rows: Optional[float] = None
    observed_rows: Optional[float] = None
    certified_load: Optional[float] = None
    observed_max_load: Optional[float] = None
    admission_price: Optional[float] = None
    replanned: bool = False
    reused: bool = False
    seconds: float = 0.0

    @property
    def q_error(self) -> Optional[float]:
        """max(bound/observed, observed/bound), or ``None`` if undefined.

        Empty observations (0 rows) against a positive bound are treated
        as the bound itself being the q-error denominator-free ratio —
        conventionally reported as the bound vs. 1 row to stay finite.
        """
        if self.estimated_rows is None or self.observed_rows is None:
            return None
        if self.estimated_rows <= 0 and self.observed_rows <= 0:
            return 1.0
        bound = max(self.estimated_rows, 1.0)
        observed = max(self.observed_rows, 1.0)
        return max(bound / observed, observed / bound)

    @property
    def violated(self) -> bool:
        """True when a non-expected certificate was exceeded at run time."""
        if self.certified_load is None or self.observed_max_load is None:
            return False
        if self.kind == EXPECTED_KIND:
            return False
        return self.observed_max_load > self.certified_load

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "round_index": self.round_index,
            "op": self.op,
            "plan": self.plan,
            "method": self.method,
            "kind": self.kind,
            "estimated_rows": self.estimated_rows,
            "observed_rows": self.observed_rows,
            "certified_load": self.certified_load,
            "observed_max_load": self.observed_max_load,
            "admission_price": self.admission_price,
            "replanned": self.replanned,
            "reused": self.reused,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PredictionRecord":
        return cls(
            query=str(payload.get("query", "")),
            round_index=int(payload.get("round_index", 0)),
            op=str(payload.get("op", "")),
            plan=str(payload.get("plan", "")),
            method=str(payload.get("method", "")),
            kind=str(payload.get("kind", "")),
            estimated_rows=_opt_float(payload.get("estimated_rows")),
            observed_rows=_opt_float(payload.get("observed_rows")),
            certified_load=_opt_float(payload.get("certified_load")),
            observed_max_load=_opt_float(payload.get("observed_max_load")),
            admission_price=_opt_float(payload.get("admission_price")),
            replanned=bool(payload.get("replanned", False)),
            reused=bool(payload.get("reused", False)),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class RunRecord:
    """One run of one benchmark/workload, canonically serialized.

    ``fingerprint`` identifies the *workload shape* (bench name, quick
    flag, query mix...) so only like runs are compared; ``metrics`` holds
    scalar headlines (throughput, deferrals, q-errors); ``predictions``
    the per-round prediction/observation pairs; ``meta`` free-form
    context (the service snapshot, probe workloads).
    """

    bench: str
    fingerprint: str
    created_unix: float
    git_rev: str = "unknown"
    quick: bool = False
    env: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    predictions: Tuple[PredictionRecord, ...] = ()
    schema: int = RECORD_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "bench": self.bench,
            "fingerprint": self.fingerprint,
            "created_unix": self.created_unix,
            "git_rev": self.git_rev,
            "quick": self.quick,
            "env": dict(self.env),
            "metrics": {key: float(value) for key, value in self.metrics.items()},
            "meta": dict(self.meta),
            "predictions": [record.to_dict() for record in self.predictions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            bench=str(payload.get("bench", "")),
            fingerprint=str(payload.get("fingerprint", "")),
            created_unix=float(payload.get("created_unix", 0.0)),
            git_rev=str(payload.get("git_rev", "unknown")),
            quick=bool(payload.get("quick", False)),
            env=dict(payload.get("env", {})),
            metrics={
                key: float(value)
                for key, value in dict(payload.get("metrics", {})).items()
            },
            meta=dict(payload.get("meta", {})),
            predictions=tuple(
                PredictionRecord.from_dict(item)
                for item in payload.get("predictions", [])
            ),
            schema=int(payload.get("schema", RECORD_SCHEMA)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def run_fingerprint(bench: str, *, quick: bool = False, **identity: Any) -> str:
    """A stable hex id for a workload shape.

    Everything that makes two runs *comparable* goes into ``identity``
    (query counts, sizes, seeds); everything that merely varies between
    runs (timings, host) stays out.
    """
    canonical = json.dumps(
        {"bench": bench, "quick": quick, **identity},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def capture_env() -> Dict[str, Any]:
    """The environment facts worth attaching to a run record."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


_GIT_REV_CACHE: Optional[str] = None


def current_git_rev() -> str:
    """The short git revision of the working tree, cached per process.

    Falls back to ``GITHUB_SHA`` (CI) and then ``"unknown"`` — records
    must be writable from environments without git.
    """
    global _GIT_REV_CACHE
    if _GIT_REV_CACHE is not None:
        return _GIT_REV_CACHE
    rev = ""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    if not rev:
        rev = os.environ.get("GITHUB_SHA", "")[:12] or "unknown"
    _GIT_REV_CACHE = rev
    return rev


def make_run_record(
    bench: str,
    *,
    fingerprint: Optional[str] = None,
    quick: bool = False,
    metrics: Optional[Mapping[str, float]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    predictions: Sequence[PredictionRecord] = (),
    fingerprint_extra: Optional[Mapping[str, Any]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` with env/git/time filled in."""
    if fingerprint is None:
        fingerprint = run_fingerprint(bench, quick=quick, **(fingerprint_extra or {}))
    return RunRecord(
        bench=bench,
        fingerprint=fingerprint,
        created_unix=time.time(),
        git_rev=current_git_rev(),
        quick=quick,
        env=capture_env(),
        metrics=dict(metrics or {}),
        meta=dict(meta or {}),
        predictions=tuple(predictions),
    )


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)
