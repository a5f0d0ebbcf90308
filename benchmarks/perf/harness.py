"""Child-side measuring loop, span recorder and environment fingerprint.

One child process measures one workload.  The loop is closed (one client
thread: the next op starts when the previous one returns), ``gc.collect()``
runs un-timed before each op, every op's output is checked un-timed, and
the program under test is only ever reached through its public functions.
Per-layer numbers come from the traced run: spans this file records around
the outside calls, the spans the program's own tracer emits when handed a
collecting ``Observability``, and counters the program already returns.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Set by the parent just before it spawns the child, on the system-wide
#: monotonic clock, so ``setup_s`` includes interpreter start and imports.
SPAWNED_AT_ENV = "PERFBENCH_SPAWNED_AT"


def seconds_since_spawn() -> float:
    """``setup_s``: from the parent's spawn of this process until now."""
    return time.monotonic() - float(os.environ.get(SPAWNED_AT_ENV, time.monotonic()))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class RecordedSpan:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class SpanRecorder:
    """Benchmark-side spans: name, start, end, parent, one id per op.

    Kept in memory and written once by the parent.  The client is a single
    thread, so nesting is one stack.  Spans the program's tracer collected
    during an op are adopted under that op's span, prefixed ``repro.``, so
    one tree holds both and self time is computed the same way for both.
    """

    def __init__(self) -> None:
        self.spans: List[RecordedSpan] = []
        self._stack: List[RecordedSpan] = []
        self._op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[RecordedSpan]:
        parent = self._stack[-1].span_id if self._stack else None
        recorded = RecordedSpan(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(recorded)
        self._stack.append(recorded)
        try:
            yield recorded
        finally:
            recorded.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int) -> Iterator[RecordedSpan]:
        self._op = op_id
        with self.span("op") as recorded:
            yield recorded

    def adopt(self, program_spans: Sequence[Any], under: RecordedSpan) -> None:
        """Graft the program tracer's finished spans below ``under``."""
        ids = {span.span_id: len(self.spans) + offset for offset, span in enumerate(program_spans)}
        for span in program_spans:
            self.spans.append(
                RecordedSpan(
                    ids[span.span_id],
                    "repro." + span.name,
                    span.start,
                    span.end if span.end is not None else span.start,
                    ids.get(span.parent_id, under.span_id),
                    under.op,
                )
            )

    def op_totals(self, op_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name within one op: count, summed duration and self time.

        Self time is a span's duration minus its children's, floored at
        zero (derived phase spans are laid out sequentially by the engine
        and may overhang their parent by rounding).
        """
        mine = [span for span in self.spans if span.op == op_id]
        child_seconds: Dict[int, float] = {}
        for span in mine:
            if span.parent is not None:
                child_seconds[span.parent] = child_seconds.get(span.parent, 0.0) + (span.end - span.start)
        totals: Dict[str, Dict[str, float]] = {}
        for span in mine:
            duration = span.end - span.start
            entry = totals.setdefault(span.name, {"count": 0.0, "seconds": 0.0, "self_seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += max(0.0, duration - child_seconds.get(span.span_id, 0.0))
        return totals

    def dump(self) -> List[Dict[str, Any]]:
        return [vars(span) for span in self.spans]


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


NULL_RECORDER = NullRecorder()


# ----------------------------------------------------------------------
# Workload contract
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    """What one op hands back: its outputs and every job it executed."""

    payload: Any
    #: ``JobMetrics`` of every engine job the op ran (reused service rounds
    #: excluded: nothing executed for them).
    jobs: List[Any]
    #: Layer counters the op read from the program (cache stats, describe()).
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One benchmark workload.  Subclasses live in ``workloads.py``."""

    name = ""
    #: Compute threads one op keeps busy; the runner refuses the workload
    #: when the machine has fewer cores.
    threads = 1
    #: Ops every run completes whatever the window; the paper's count
    #: metrics are taken over exactly these, so they do not depend on how
    #: many ops a faster or slower build fits into the window.
    min_ops = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self, rec: Any) -> None:
        """Generate inputs and references; ends with the discarded warm-up op."""
        raise NotImplementedError

    def op(self, index: int, rec: Any, obs: Any) -> OpResult:
        raise NotImplementedError

    def check(self, index: int, result: OpResult) -> bool:
        raise NotImplementedError

    def corrupt_reference(self) -> None:
        """Damage the reference output (``--selftest`` only)."""
        raise NotImplementedError

    def probes(self, index: int, rec: Any, result: OpResult) -> Dict[str, float]:
        """Direct calls into single layers on the op's inputs (traced run)."""
        return {}


# ----------------------------------------------------------------------
# The measuring loop
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed_op(workload: Workload, index: int, rec: Any, obs: Any) -> Dict[str, Any]:
    gc.collect()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    try:
        result: Optional[OpResult] = workload.op(index, rec, obs)
    except Exception as error:  # an op that raises is a failed op, not a crash
        print(f"# op {index} raised {type(error).__name__}: {error}", flush=True)
        result = None
    seconds = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_start
    try:
        ok = result is not None and workload.check(index, result)
    except Exception as error:  # output too malformed to compare: a failed op
        print(f"# check {index} raised {type(error).__name__}: {error}", flush=True)
        ok = False
    return {"seconds": seconds, "cpu": cpu, "ok": ok, "result": result}


def _quantile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 4 samples)."""
    if len(values) < 4:
        return 0.0
    low, mid, high = statistics.quantiles(values, n=4)
    return (high - low) / mid if mid else 0.0


def _job_counts(jobs: Sequence[Any]) -> Dict[str, float]:
    return {
        "inputs": float(sum(job.shuffle.num_inputs for job in jobs)),
        "pairs": float(sum(job.communication_cost for job in jobs)),
        "reducers": float(sum(job.shuffle.num_reducers for job in jobs)),
        "max_reducer_size": float(max((job.shuffle.max_reducer_size for job in jobs), default=0)),
        "outputs": float(sum(job.num_outputs for job in jobs)),
        "jobs": float(len(jobs)),
    }


def _next_fits(durations: Sequence[float], done: int, min_ops: int, deadline: float) -> bool:
    """Whether to start another iteration: always below ``min_ops``, then
    only when a median-length one still ends inside the window."""
    if done < min_ops:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def measure(workload: Workload, seconds: float, corrupt: bool = False) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric except ``setup_s``."""
    workload.setup(NULL_RECORDER)
    if corrupt:
        workload.corrupt_reference()
    setup_s = seconds_since_spawn()
    ops: List[Dict[str, Any]] = []
    iterations: List[float] = []
    deadline = time.perf_counter() + seconds
    while _next_fits(iterations, len(ops), workload.min_ops, deadline):
        started = time.perf_counter()
        op = _timed_op(workload, len(ops), NULL_RECORDER, None)
        result = op.pop("result")  # outputs are large: keep only the job metrics
        op["jobs"] = result.jobs if result is not None else []
        ops.append(op)
        iterations.append(time.perf_counter() - started)
    times = [op["seconds"] for op in ops]
    counted = ops[: workload.min_ops]
    counts = _job_counts([job for op in counted for job in op["jobs"]])
    metrics = {
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(ops) / sum(times),
        "cpu_s_per_op": statistics.median(op["cpu"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replication_rate": counts["pairs"] / counts["inputs"] if counts["inputs"] else 0.0,
        "comm_pairs_per_op": counts["pairs"] / len(counted),
        "max_reducer_load": counts["max_reducer_size"],
    }
    notes = {}
    if len(times) >= 100:  # a p90 needs at least ten samples beyond it
        notes["op_s_p90"] = f"{_quantile(times, 0.9):.6g} s (n={len(times)})"
    return {
        "setup_s": setup_s,
        "notes": notes,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "window_s": sum(iterations),
        "metrics": metrics,
    }


#: Program span name -> per-layer metric fed by its summed duration.
_SPAN_SECONDS = {
    "repro.job": "mapreduce.run_s",
    "repro.map": "mapreduce.map_s",
    "repro.shuffle": "mapreduce.shuffle_s",
    "repro.reduce": "mapreduce.reduce_s",
    "repro.admission-wait": "service.admission_wait_s",
    "repro.parked": "service.parked_s",
    "repro.planning": "service.planning_s",
    "repro.replan": "service.replan_s",
    "repro.re-certify": "service.recertify_s",
    "repro.round-execute": "service.round_execute_s",
}
_SPAN_COUNTS = {
    "repro.planning": "service.planning_spans",
    "repro.re-certify": "service.recertify_spans",
}


def _op_layer(workload: Workload, rec: SpanRecorder, index: int, outcome: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer number of one traced op: probes, counters, span sums."""
    result: Optional[OpResult] = outcome["result"]
    layer: Dict[str, float] = {}
    if result is not None:
        with rec.op(index):
            layer.update(workload.probes(index, rec, result))
        layer.update(result.layer)
        for key, value in _job_counts(result.jobs).items():
            layer["mapreduce." + ("jobs_per_op" if key == "jobs" else key)] = value
    totals = rec.op_totals(index)
    for name, entry in totals.items():
        if name in _SPAN_SECONDS:
            layer[_SPAN_SECONDS[name]] = entry["seconds"]
        if name in _SPAN_COUNTS:
            layer[_SPAN_COUNTS[name]] = entry["count"]
        if not name.startswith("repro.") and name != "op":
            layer[name + "_s"] = entry["seconds"]
    layer["mapreduce.engine_other_s"] = totals.get("repro.job", {}).get("self_seconds", 0.0)
    layer["obs.spans_per_op"] = sum(
        entry["count"] for name, entry in totals.items() if name.startswith("repro.")
    )
    if "pipeline.plan_s" in layer and outcome["seconds"]:
        layer["pipeline.control_share"] = layer["pipeline.plan_s"] / outcome["seconds"]
    return layer


def measure_traced(workload: Workload, seconds: float, layer_names: Sequence[str]) -> Dict[str, Any]:
    """The traced run: every per-layer metric, as a median over traced ops.

    Each iteration runs the op once untraced and once under a collecting
    ``Observability`` (order alternating), so the tracing overhead is
    measured inside the run that reports it, then calls the layer probes.
    """
    from repro.obs import Observability

    rec = SpanRecorder()
    with rec.span("setup"):
        workload.setup(rec)
    setup_totals = rec.op_totals(-1)
    plain: List[float] = []
    traced: List[float] = []
    failed = 0
    per_op: List[Dict[str, float]] = []
    iterations: List[float] = []
    deadline = time.perf_counter() + seconds
    traced_min = max(2, workload.min_ops // 2)
    while _next_fits(iterations, len(per_op), traced_min, deadline):
        started = time.perf_counter()
        index = len(per_op)
        obs = Observability.collecting()
        outcomes: Dict[bool, Dict[str, Any]] = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with rec.op(index) as op_span:
                    outcomes[True] = _timed_op(workload, index, rec, obs)
                rec.adopt(obs.tracer.spans(), op_span)
            else:
                outcomes[False] = _timed_op(workload, index, NULL_RECORDER, None)
        plain.append(outcomes[False]["seconds"])
        traced.append(outcomes[True]["seconds"])
        failed += sum(1 for outcome in outcomes.values() if not outcome["ok"])
        per_op.append(_op_layer(workload, rec, index, outcomes[True]))
        iterations.append(time.perf_counter() - started)

    metrics = {
        name: statistics.median([layer.get(name, 0.0) for layer in per_op])
        for name in layer_names
    }
    # Set-up spans happen once per run, not once per op.
    for name, entry in setup_totals.items():
        if name + "_s" in metrics and not metrics[name + "_s"]:
            metrics[name + "_s"] = entry["seconds"]
    lookups = metrics["planner.schema_cache_hits"] + metrics["planner.schema_cache_misses"]
    metrics["planner.schema_cache_hit_ratio"] = metrics["planner.schema_cache_hits"] / lookups if lookups else 0.0
    served = metrics["service.reused"] + metrics["service.materialized"]
    metrics["service.reuse_ratio"] = metrics["service.reused"] / served if served else 0.0
    admitted = metrics["service.rounds_admitted"]
    metrics["service.deferrals_per_admitted"] = metrics["service.deferrals"] / admitted if admitted else 0.0
    band = _spread(plain)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["obs.trace_noise_band"] = band
    # Inside the run's own noise band the overhead is not resolved; the
    # report prints "< band" and the number is floored at zero, never negative.
    metrics["obs.trace_overhead_ratio"] = max(0.0, overhead)
    metrics["obs.op_s_p50_untraced"] = statistics.median(plain)
    metrics["obs.op_s_p50_traced"] = statistics.median(traced)
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "window_s": sum(iterations),
        "metrics": metrics,
        "spans": rec.dump(),
    }


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev(root: Path) -> str:
    """Short revision read from ``root/.git`` (no subprocess; a driver
    checkout is not a repository and reports ``unknown``)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            head = (root / ".git" / head.split(None, 1)[1]).read_text().strip()
        return head[:12]
    except OSError:
        return "unknown"


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def fingerprint(root: Path) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": available_cores(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(root),
    }
