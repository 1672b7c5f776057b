#!/usr/bin/env python3
"""The canonical live benchmark.  See README.md beside this file.

One workload, as the driver runs it (last stdout line is one JSON object)::

    python3 benchmarks/live/run.py --workload b_r4 --seed 1 --seconds 20 --trace 0

The whole matrix, by name, with units, sample counts and every check::

    python3 benchmarks/live/run.py              # end-to-end metrics
    python3 benchmarks/live/run.py --layers     # per-layer metrics
    python3 benchmarks/live/run.py --repeat 3   # noise: spread vs bound
    python3 benchmarks/live/run.py --smoke      # 2 s windows, < 40 s
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from livebench import drivers, live, settings, stats, tracing
except ImportError as error:  # no program to measure beside the benchmark
    sys.exit(f"run.py: cannot import the program under src/: {error}")

Metrics = live.Metrics
#: Share of ``--seconds`` a ``--trace 1`` run gives the live cluster;
#: the untraced and traced in-process runs get INPROC_SHARE each.
LIVE_SHARE = 0.5
INPROC_SHARE = 0.15
INPROC_WARMUP_S = 1.0


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload ------------------------------------------------------------


class Outcome(NamedTuple):
    metrics: Metrics
    attempted: int
    failed: int
    problems: List[str]
    notes: List[str]


def measure(
    defn: settings.WorkloadDef,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
) -> Outcome:
    window = settings.SMOKE_WINDOW_S if smoke else settings.WINDOW_S
    warmup = 1.0 if smoke else settings.WARMUP_S
    if not trace:
        result = asyncio.run(live.run_live(
            defn, seed, seconds, window, warmup,
            boots=1 if smoke else settings.BOOTS,
        ))
        return Outcome(
            result.end_to_end(), result.attempted, result.failed,
            result.problems, notes_of(result),
        )
    live_seconds = max(1, int(seconds * LIVE_SHARE // window)) * window
    result = asyncio.run(
        live.run_live(defn, seed, live_seconds, window, warmup, boots=1)
    )
    inproc_seconds = seconds * INPROC_SHARE
    control, traced = (
        asyncio.run(tracing.run_inproc(
            defn, seed, inproc_seconds, INPROC_WARMUP_S, inproc_seconds,
            traced=on,
        ))
        for on in (False, True)
    )
    assert traced.trace is not None and traced.recipe is not None
    path = tracing.write_spans(traced.trace, f"trace-{defn.name}-seed{seed}")
    return Outcome(
        compose_layers(
            result, control, traced,
            drivers.run_drivers(defn, seed, traced.recipe),
        ),
        result.attempted + control.attempted + traced.attempted,
        result.failed + control.failed + traced.failed,
        result.problems + control.problems + traced.problems,
        notes_of(result) + [f"{len(traced.trace.spans)} spans in {path}"],
    )


def compose_layers(
    result: live.LiveResult,
    control: tracing.InprocResult,
    traced: tracing.InprocResult,
    driver_metrics: Metrics,
) -> Metrics:
    """Every per-layer metric of one ``--trace 1`` run, by name."""
    assert traced.trace is not None
    metrics = result.layers()
    metrics.update(tracing.summarise(traced.trace))
    metrics["inproc.ops_per_s"] = (control.phase.ops_per_s, "ops/s")
    metrics["trace.overhead_ratio"] = (
        control.phase.ops_per_s / max(1e-9, traced.phase.ops_per_s), "ratio"
    )
    metrics.update(driver_metrics)
    return metrics


LIMIT_KEYS = ("cores", "total.cpu_share", "loadgen.cpu_share", "harness_limited")
LIMITS = "limits: "


def notes_of(result: live.LiveResult) -> List[str]:
    """Sample counts and the harness limits every row carries."""
    phase = result.phase
    layers = result.layers()
    limits = {key: layers[key][0] for key in LIMIT_KEYS}
    notes = [
        f"samples: {len(phase.reads)} reads, {len(phase.writes)} writes, "
        f"{len(phase.windows)} windows of {phase.window:g} s "
        f"({', '.join(str(len(w)) for w in phase.windows)} ops)",
        "cpu_ms_per_op %.4f ms = proxy + storage + loadgen + manager terms"
        % result.end_to_end()["cpu_ms_per_op"][0],
        "op_p99_ms %.4f ms (median window; reported, not bounded)"
        % layers["op_p99_ms"][0],
        LIMITS + json.dumps(limits),
    ]
    if limits["harness_limited"]:
        notes.append(
            "HARNESS LIMIT: the loadgen or the box, not the cluster, "
            "bounds this row"
        )
    return notes


def run_single(args: argparse.Namespace) -> int:
    defn = settings.BY_NAME[args.workload[0]]
    outcome = measure(
        defn, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(f"{defn.name} seed={args.seed} seconds={args.seconds:g}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 1 if outcome.problems else 0


# -- the matrix --------------------------------------------------------------


def run_child(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """One workload in a process of its own, exactly as the driver runs
    it, so a matrix row is the number a later PR is judged against."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    row = json.loads(lines[-1])
    row["correct"] = row["correct"] and done.returncode == 0
    row["limits"] = next(
        (
            json.loads(line.strip()[len(LIMITS):])
            for line in lines
            if line.strip().startswith(LIMITS)
        ),
        {},
    )
    return row


def run_matrix(args: argparse.Namespace) -> int:
    names = args.workload or [defn.name for defn in settings.WORKLOADS]
    bounds = {
        metric["name"]: metric for metric in declared()["end_to_end"]
    }
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(args.repeat):
        for name in names:
            runs[name].append(run_child(
                name, args.seed + repeat, args.seconds, args.layers,
                args.smoke,
            ))
    ok = True
    summary: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "mode": "layers" if args.layers else "end_to_end",
        "workloads": {},
    }
    print()
    for name, rows in runs.items():
        attempted = sum(row["attempted"] for row in rows)
        failed = sum(row["failed"] for row in rows)
        correct = all(row["correct"] for row in rows)
        ok = ok and correct and failed == 0
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for row in rows:
            for metric, entry in row["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        print(
            f"{name}: correct={correct} failed_op_share="
            f"{failed / max(1, attempted):.6f} ({failed}/{attempted})"
        )
        entry: Dict[str, Any] = {
            "correct": correct,
            "failed_op_share": failed / max(1, attempted),
            "limits": [row["limits"] for row in rows],
            "metrics": {},
        }
        for metric, samples in values.items():
            middle = statistics.median(samples)
            line = f"  {metric:34s} {middle:14.4f} {units[metric]}"
            cell: Dict[str, Any] = {"median": middle, "unit": units[metric]}
            if args.repeat > 1:
                spread = stats.range_spread(samples)
                cell["spread"] = spread
                line += f"  spread {spread:6.3f}"
                bound = bounds.get(metric, {}).get("bound")
                # setup_s is gated on its medians only: one cold boot in
                # three runs would otherwise decide the verdict.
                if bound is not None and metric != "setup_s":
                    verdict = "ok" if spread <= bound else "EXCEEDS"
                    line += f"  bound {bound:g} {verdict}"
                    ok = ok and spread <= bound
            print(line)
            entry["metrics"][metric] = cell
        summary["workloads"][name] = entry
    summary["ok"] = ok
    summary["claim"] = None
    os.makedirs(tracing.RESULTS_DIR, exist_ok=True)
    path = os.path.join(tracing.RESULTS_DIR, f"summary-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(json.dumps(summary))
    return 0 if ok else 1


def main() -> int:
    run_seconds = declared()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(settings.BY_NAME),
        help="one workload: driver mode; none: the whole matrix",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2 * settings.SMOKE_WINDOW_S if args.smoke else run_seconds
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace goes with exactly one --workload")
        return run_single(args)
    return run_matrix(args)


if __name__ == "__main__":
    sys.exit(main())
