#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics and a layer ledger.

Driver contract (one workload, machine-readable last line)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Human use, from the repository root::

    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--trace]   # all workloads
    python3 benchmarks/perf/run.py --aa [K]                             # K back-to-back sets
    python3 benchmarks/perf/run.py --selftest

Each workload is measured in a fresh child process (``PYTHONHASHSEED=0``),
one after another.  Nothing under ``src/`` is touched: the runner puts
``src/`` on the path and calls the program's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None

#: Set-ups per untraced run (the measuring child's own plus set-up-only
#: children); ``setup_s`` is their median.
SETUP_REPEATS = 2
#: End-to-end metrics that count the paper's costs; two runs of one build
#: on one seed must agree on them exactly.
EXACT = ("replication_rate", "comm_pairs_per_op", "max_reducer_load")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
CHILD_TIMEOUT_S = 170


def _require_program() -> None:
    if SPEC is None or not (SRC / "repro" / "__init__.py").exists():
        sys.exit(f"perfbench: needs BENCHMARK.json and src/repro under {ROOT}; nothing to measure")


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_only:
        workload.setup(harness.NULL_RECORDER)
        outcome: Dict[str, Any] = {"setup_s": harness.seconds_since_spawn()}
    elif args.trace:
        layer_names = [metric["name"] for metric in SPEC["per_layer"]]
        outcome = harness.measure_traced(workload, args.seconds, layer_names)
    else:
        outcome = harness.measure(workload, args.seconds, corrupt=args.corrupt)
    outcome["env"] = harness.fingerprint(ROOT)
    print(json.dumps(outcome))
    return 0


# ----------------------------------------------------------------------
# Parent side: one workload
# ----------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, flags: Sequence[str]) -> Dict[str, Any]:
    env = {**os.environ, "PYTHONHASHSEED": "0", harness.SPAWNED_AT_ENV: repr(time.monotonic())}
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *flags,
    ]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: {workload} child exited {done.returncode}")
    return json.loads(lines[-1])


def _units(kind: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, tiny: bool = False, corrupt: bool = False
) -> Dict[str, Any]:
    """Measure one workload; returns the contract's result object plus extras."""
    import workloads

    cls = workloads.WORKLOADS[workload]
    cores = harness.available_cores()
    if cls.threads > cores:
        sys.exit(
            f"perfbench: {workload} keeps {cls.threads} threads busy but only {cores} "
            f"core(s) are available; refusing to oversubscribe"
        )
    flags = (["--tiny"] if tiny else []) + (["--corrupt"] if corrupt else [])
    setups: List[float] = []
    if not trace:
        for _ in range(0 if tiny else SETUP_REPEATS - 1):
            setups.append(_spawn(workload, seed, seconds, 0, [*flags, "--setup-only"])["setup_s"])
    outcome = _spawn(workload, seed, seconds, trace, flags)
    values = dict(outcome["metrics"])
    if not trace:
        setups.append(outcome["setup_s"])
        values["setup_s"] = statistics.median(setups)
    units = _units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        sys.exit(f"perfbench: {workload} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    stored = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": outcome["env"], "window_s": outcome["window_s"], "setups_s": setups,
        "result": result, "spans": outcome.get("spans", []),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(stored))
    result["extras"] = {
        "env": outcome["env"], "window_s": outcome["window_s"], "stored": str(path.relative_to(ROOT)),
        "notes": outcome.get("notes", {}), "threads": cls.threads,
    }
    return result


def _print_result(workload: str, seed: int, trace: int, result: Dict[str, Any]) -> None:
    extras = result["extras"]
    print(f"# {workload} seed={seed} trace={trace} ops={result['attempted']} failed={result['failed']} "
          f"fail_rate={result['failed'] / result['attempted']:.4f} window_s={extras['window_s']:.2f}")
    print(f"# env {json.dumps(extras['env'], sort_keys=True)}")
    print(f"# stored {extras['stored']}")
    metrics = result["metrics"]
    for name, entry in metrics.items():
        shown = f"{entry['value']:.6g}"
        if name == "obs.trace_overhead_ratio" and entry["value"] <= metrics["obs.trace_noise_band"]["value"]:
            shown = f"< band ({metrics['obs.trace_noise_band']['value']:.4f})"
        print(f"#   {workload}/{name} = {shown} {entry['unit']}")
    for name, note in extras["notes"].items():
        print(f"#   {workload}/{name} = {note}")
    if trace:
        run_s = metrics["mapreduce.run_s"]["value"]
        if run_s:
            print(f"#   base: mapreduce.reduce_s / mapreduce.run_s = {metrics['mapreduce.reduce_s']['value'] / run_s:.3f}")
        thread_s = extras["threads"] * metrics["obs.op_s_p50_traced"]["value"]
        print(f"#   base: mapreduce.run_s / thread-seconds per op = {run_s / thread_s:.3f} ({run_s:.4g} / {thread_s:.4g})")
    elif workload == "service-burst":
        print(f"#   {workload}/queries_per_s = {160 * metrics['ops_per_s']['value']:.6g} 1/s (160 x ops_per_s)")


def driver_main(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny, corrupt=args.corrupt)
    _print_result(args.workload, args.seed, args.trace, result)
    del result["extras"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Parent side: whole benchmark, A/A, self-test
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Dict[str, Dict[int, Dict[str, Any]]]:
    results: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        results[name] = {}
        for mode in (0, 1) if trace else (0,):
            results[name][mode] = run_workload(name, seed, seconds, mode, tiny=tiny)
            _print_result(name, seed, mode, results[name][mode])
    records = results["tri-records"][0]["metrics"]["op_s_p50"]["value"]
    columnar = results["tri-columnar"][0]["metrics"]["op_s_p50"]["value"]
    print(f"# mapreduce.plane_speedup = {records / columnar:.3f} x "
          f"(tri-records/op_s_p50 {records:.4f} s / tri-columnar/op_s_p50 {columnar:.4f} s)")
    return results


def full_main(args: argparse.Namespace) -> int:
    results = run_all(args.seed, args.seconds, bool(args.trace))
    failed = sum(result["failed"] for modes in results.values() for result in modes.values())
    print(f"# total failed ops: {failed}")
    return 1 if failed else 0


def aa_main(args: argparse.Namespace) -> int:
    """Run the whole benchmark K times; same code must agree with itself."""
    sets = [run_all(args.seed, args.seconds, trace=False) for _ in range(args.aa)]
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    flagged = 0
    print(f"# A/A over {args.aa} sets, seed {args.seed}")
    print("# workload/metric | values | rel.diff | bound | verdict")
    for workload in sets[0]:
        flagged += sum(run[workload][0]["failed"] for run in sets)
        for name, bound in bounds.items():
            values = [run[workload][0]["metrics"][name]["value"] for run in sets]
            difference = (max(values) - min(values)) / min(values)
            if name in EXACT:
                bad = difference != 0.0
                rule = "exact"
            else:
                bad = difference > bound / 2
                rule = f"{bound / 2:.3f} (half of {bound})"
            flagged += bad
            shown = " ".join(f"{value:.6g}" for value in values)
            print(f"# {workload}/{name} | {shown} | {difference:.4f} | {rule} | {'FLAG' if bad else 'ok'}")
    print(f"# flagged: {flagged}")
    return 1 if flagged else 0


def selftest_main(args: argparse.Namespace) -> int:
    """Tiny sizes: names, caps and units match BENCHMARK.json; checks bite."""
    import workloads
    from repro.datagen.graphs import enumerate_triangles_oracle, gnm_random_graph

    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in SPEC[kind]]
    assert all(NAME_RE.match(name) for name in names), "name outside the allowed charset"
    assert len(names) == len(set(names)), "a name is used twice"
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert {entry["name"] for entry in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(entry["unit"] for kind in ("end_to_end", "per_layer") for entry in SPEC[kind]), "metric without unit"
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"]) <= 0.25

    edges = gnm_random_graph(40, 300, args.seed)
    assert workloads.triangles_by_intersection(edges) == enumerate_triangles_oracle(edges), "own oracle is wrong"

    # run_workload itself exits when printed names differ from BENCHMARK.json.
    results = run_all(args.seed, seconds=0.5, trace=True, tiny=True)
    assert all(result["failed"] == 0 for modes in results.values() for result in modes.values())

    for workload in workloads.WORKLOADS:
        corrupted = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", "0.5", "--trace", "0", "--tiny", "--corrupt"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        verdict = json.loads(corrupted.stdout.strip().splitlines()[-1])
        assert corrupted.returncode != 0 and verdict["failed"] > 0 and not verdict["correct"], (
            f"{workload}: a corrupted reference went unnoticed"
        )
    print("# selftest ok")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    _require_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1203)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="timed window per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (or, with --workload, instead) run the traced per-layer pass")
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0, metavar="K",
                        help="run the benchmark K times back to back and compare the sets")
    parser.add_argument("--selftest", action="store_true")
    for internal in ("--child", "--setup-only", "--tiny", "--corrupt"):
        parser.add_argument(internal, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The parent imports the program too (to read the workloads' thread
    # needs), which also warms the page cache before the first child starts.
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)
    if args.selftest:
        return selftest_main(args)
    if args.aa:
        return aa_main(args)
    if args.workload:
        return driver_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
