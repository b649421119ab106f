"""Benchmark driver: three cold-run workloads of ``repro`` experiments.

    python3 perfbench/run.py --workload table2_j2 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh
interpreter (``perfbench/workload.py``) with cold per-process caches;
repetitions run one at a time until ``--seconds`` have passed.  Every
repetition's result table is compared cell by cell with the recorded
reference in ``perfbench/reference/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
count result cells, and ``metrics`` holds the end-to-end medians
(``--trace 0``) or the per-layer breakdown of one traced repetition
(``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".perfbench_work"

#: Scenario seeds whose corpora hold near-equal work (packets, training
#: windows) at the default scale; ``--seed`` picks one, so runs with
#: different seeds measure different traffic of the same size.
SCENARIO_SEEDS = (0, 128, 753, 1395)

#: Every repetition, and so the whole run, ends well inside 180 s.
HARD_LIMIT_S = 170.0
MAX_REP_TIMEOUT_S = 120.0

#: Workload and metric names, with units, come from the benchmark spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def result_cells(workload: str, headers: list, rows: list) -> dict[str, object]:
    """A result table split into the experiment's cells.

    ``table2`` has one cell per scheme, which is a column; the other
    experiments have one cell per row, keyed by its leading text columns.
    """
    if workload == "table2_j2":
        return {
            header: [[row[0], row[index]] for row in rows]
            for index, header in enumerate(headers)
            if index
        }
    cells = {}
    for row in rows:
        key = "/".join(str(value) for value in row if isinstance(value, str))
        cells[key] = row
    return cells


def check_cells(workload: str, reference: dict, out: dict | None) -> tuple[int, int]:
    """``(attempted, failed)`` cells of one repetition against the reference.

    A repetition that raised or was killed has no cells: every
    reference cell counts as failed.
    """
    expected = result_cells(workload, reference["headers"], reference["rows"])
    if out is None or out.get("headers") != reference["headers"]:
        return len(expected), len(expected)
    got = result_cells(workload, out["headers"], out["rows"])
    # stream_replay must also match its own batch pipeline on every scheme.
    self_checked = workload == "stream_replay"
    failed = sum(
        1
        for key, value in expected.items()
        if got.get(key) != value or (self_checked and got[key][-1] != "yes")
    )
    return len(expected), failed


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(
    workload: str, scenario_seed: int, trace: bool, timeout: float, work_dir: Path
) -> dict | None:
    """One fresh-interpreter repetition; ``None`` if it failed or timed out."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload,
        "--scenario-seed", str(scenario_seed),
        "--work-dir", str(work_dir),
    ] + (["--trace"] if trace else [])
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        print(f"perfbench: {workload} repetition killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        _stop_group(proc.pid)
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: {workload} repetition exited {proc.returncode}:\n{stderr[-4000:]}",
              file=sys.stderr)
        return None
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: {workload} repetition printed no result", file=sys.stderr)
        return None
    out["setup_s"] = out["ready_monotonic"] - started
    return out


def load_reference(workload: str, scenario_seed: int) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as handle:
        return json.load(handle)["scenario_seeds"][str(scenario_seed)]


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    scenario_seed = SCENARIO_SEEDS[seed % len(SCENARIO_SEEDS)]
    reference = load_reference(workload, scenario_seed)
    start = time.monotonic()
    attempted = failed = 0
    timed: list[dict] = []
    traced: dict | None = None
    while True:
        elapsed = time.monotonic() - start
        want_trace = trace and traced is None
        if elapsed >= seconds and not want_trace and timed:
            break
        timeout = min(MAX_REP_TIMEOUT_S, HARD_LIMIT_S - elapsed)
        if timeout < 5.0:
            break
        out = run_rep(workload, scenario_seed, want_trace, timeout, work_dir)
        cells, bad = check_cells(workload, reference, out)
        attempted += cells
        failed += bad
        if out is None:
            if want_trace:
                traced = {}
            continue
        if want_trace:
            traced = out
            # Window counts are fixed by the workload; a traced run that
            # classified a different number disagrees with the reference.
            layers = out["layers"]
            attempted += 1
            if layers["attack.windows_classified"] + layers["stream.windows_closed"] != reference["windows"]:
                failed += 1
        elif bad == 0:
            timed.append(out)

    metrics: dict[str, dict] = {}
    if trace and traced:
        layers = dict(traced["layers"])
        walls = [out["wall_s"] for out in timed]
        layers["trace_overhead_s"] = traced["wall_s"] - statistics.median(walls) if walls else 0.0
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    elif not trace and timed:
        for out in timed:
            out["windows_per_s"] = reference["windows"] / out["wall_s"]
        metrics = {
            name: {"value": statistics.median(out[name] for out in timed), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if metrics else max(attempted, 1),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
