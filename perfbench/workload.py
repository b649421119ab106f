"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workload.py --workload NAME \
        --scenario-seed S --work-dir DIR [--trace]

Sets the workload up, times one ``run_experiment_result`` call and
prints a single JSON line: the monotonic clock reading when the call
began (the driver turns it into ``setup_s``), the call's wall and CPU
seconds, the peak resident set of every process, the result table, and
with ``--trace`` the per-layer breakdown of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import time

#: name -> (registered experiment, jobs, start method, runs over a stored corpus)
WORKLOADS = {
    "table2_j2": ("table2", 2, "fork", False),
    "stream_replay": ("stream_replay", 1, None, False),
    "grid_corpus": ("combined_grid", 1, None, True),
}


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest
    # reaped child (the pool workers, joined when the pool closes).
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run(
    workload: str,
    scenario_seed: int,
    work_dir: str,
    tracer=None,
    scale: dict | None = None,
) -> dict:
    """Set up and time one call, traced when a :class:`tracer.Tracer` is given.

    ``scale`` overrides the scenario size (the tests run small scenarios).
    """
    experiment, jobs, start_method, stored = WORKLOADS[workload]
    scale = scale or {}
    patches = None
    if tracer is not None:
        from tracer import install

        tracer.export_dir = os.path.join(work_dir, "trace")
        shutil.rmtree(tracer.export_dir, ignore_errors=True)
        os.makedirs(tracer.export_dir)
        patches = install(tracer)
    try:
        return _timed_call(
            experiment, jobs, start_method, stored, scenario_seed, work_dir, tracer, scale
        )
    finally:
        if patches is not None:
            patches.undo()


def _timed_call(experiment, jobs, start_method, stored, scenario_seed, work_dir, tracer, scale):
    from repro.experiments.parallel import run_experiment_result
    from repro.experiments.registry import ScenarioParams
    from repro.util.results import json_safe

    if stored:
        from repro.experiments.scenarios import EvaluationScenario

        path = os.path.join(work_dir, "corpus")
        EvaluationScenario(seed=scenario_seed, **scale).save_corpus(path, overwrite=True)
        params = ScenarioParams.for_corpus(path)
    else:
        params = ScenarioParams(seed=scenario_seed, **scale)

    booked_before = sum(tracer.self_s.values()) if tracer else 0.0
    ready = time.monotonic()
    cpu_before = _cpu_seconds()
    if tracer:
        tracer.begin_interval()
    start = time.perf_counter()
    result = run_experiment_result(experiment, params, jobs=jobs, start_method=start_method)
    wall = time.perf_counter() - start
    if tracer:
        tracer.end_interval()
    cpu = _cpu_seconds() - cpu_before

    out = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "headers": list(result.headers),
        "rows": json_safe(result.rows),
    }
    if tracer:
        from tracer import layer_metrics, merge_snapshots

        workers = []
        for name in sorted(glob.glob(os.path.join(tracer.export_dir, "worker-*.json"))):
            with open(name) as handle:
                workers.append(json.load(handle))
        merged = merge_snapshots(tracer.snapshot(), workers)
        out["layers"] = layer_metrics(merged, jobs)
        out["layers"]["traced_wall_s"] = tracer.interval_s
        out["self_s"] = merged["self_s"]
        out["processes"] = merged["processes"]
        # The parent's own books for the timed call: booked self time
        # plus the unbooked gap add up to the call's traced wall time.
        out["parent_check"] = {
            "interval_s": tracer.interval_s,
            "booked_s": sum(tracer.self_s.values()) - booked_before,
            "gap_s": tracer.gap_s,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    out = run(args.workload, args.scenario_seed, args.work_dir, tracer)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
