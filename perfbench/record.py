"""Record the benchmark's reference results and its baseline trajectory entry.

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline --runs 10 --label "seed baseline"

``reference`` runs every workload once per scenario seed, untraced and
traced, requires both result tables to agree (tracing must not change
results) and every ``stream_replay`` scheme to read ``identical = yes``,
and writes ``perfbench/reference/<workload>.json``: the result rows the
driver checks against and the number of windows each run classifies.

``baseline`` runs ``run.py`` exactly as a benchmark harness does: ``--runs``
times per workload with seeds ``0..runs-1`` and ``--trace 0``, plus one
``--trace 1`` run at seed 0.  It prints each end-to-end metric's median
and quartile spread (``(q3 - q1) / median``) and appends an entry to
``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = bench.HERE / "trajectory.json"


def record_reference() -> None:
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    work_dir = bench.WORK_ROOT / f"record-{os.getpid()}"
    try:
        for workload in bench.WORKLOAD_NAMES:
            seeds = {}
            for scenario_seed in bench.SCENARIO_SEEDS:
                plain = bench.run_rep(workload, scenario_seed, False, 600.0, work_dir)
                traced = bench.run_rep(workload, scenario_seed, True, 600.0, work_dir)
                if plain is None or traced is None:
                    raise SystemExit(f"{workload} seed {scenario_seed}: a repetition failed")
                if (plain["headers"], plain["rows"]) != (traced["headers"], traced["rows"]):
                    raise SystemExit(f"{workload} seed {scenario_seed}: tracing changed the result")
                if workload == "stream_replay" and any(row[-1] != "yes" for row in plain["rows"]):
                    raise SystemExit(f"stream_replay seed {scenario_seed}: streaming != batch")
                layers = traced["layers"]
                seeds[str(scenario_seed)] = {
                    "headers": plain["headers"],
                    "rows": plain["rows"],
                    "windows": layers["attack.windows_classified"] + layers["stream.windows_closed"],
                }
                print(f"{workload} seed {scenario_seed}: wall {plain['wall_s']:.2f} s, "
                      f"{seeds[str(scenario_seed)]['windows']} windows", flush=True)
            path = bench.REFERENCE_DIR / f"{workload}.json"
            path.write_text(json.dumps({"workload": workload, "scenario_seeds": seeds}, indent=1) + "\n")
    finally:
        shutil.rmtree(bench.WORK_ROOT, ignore_errors=True)


def _run_driver(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(bench.HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=bench.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - started
    return result


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_baseline(runs: int, label: str) -> None:
    entry = {
        "label": label,
        "recorded": time.strftime("%Y-%m-%d"),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": {},
    }
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    for workload in bench.WORKLOAD_NAMES:
        results = [_run_driver(workload, seed, 0) for seed in range(runs)]
        if not all(result["correct"] for result in results):
            raise SystemExit(f"{workload}: a run failed its output check")
        end_to_end = {}
        for name in bench.END_TO_END:
            values = [result["metrics"][name]["value"] for result in results]
            end_to_end[name] = {
                "median": statistics.median(values),
                "spread": _spread(values),
                "values": values,
            }
            flag = "" if name == "setup_s" or end_to_end[name]["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:14s} {name:14s} median {end_to_end[name]['median']:10.4f} "
                  f"spread {end_to_end[name]['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        traced = _run_driver(workload, 0, 1)
        per_layer = {name: metric["value"] for name, metric in traced["metrics"].items()}
        entry["workloads"][workload] = {
            "runs": runs,
            "run_s": [result["run_s"] for result in results] + [traced["run_s"]],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        print(f"{workload}: run seconds {[round(r['run_s'], 1) for r in results]}, "
              f"traced {traced['run_s']:.1f}", flush=True)
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    baseline = sub.add_parser("baseline")
    baseline.add_argument("--runs", type=int, default=10)
    baseline.add_argument("--label", required=True)
    args = parser.parse_args()
    if args.command == "reference":
        record_reference()
    else:
        record_baseline(args.runs, args.label)


if __name__ == "__main__":
    main()
