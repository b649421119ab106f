"""ARMS RACE: the columnar defender↔attacker loop vs the per-packet oracle.

``arms_race`` is not a perfbench workload, so this bench is its
before/after.  At ``ScenarioParams(seed=0)`` (the default scale) and the
registered experiment's default options, it runs both defender modes
twice on the same trained pipeline and evaluation corpus:

* columnar — :func:`repro.stream.adaptive.run_arms_race`: each trace's
  interface column from ``assign_columns``, observed in chunks that end
  where the defender's trigger may fire;
* per-packet — the oracle in ``tests/oracles/stream.py``: schedule,
  observe and notify one packet at a time, the loop the columnar one
  replaced.

It asserts:

* equal outcomes in both modes: confusion matrix, windows, flows seen,
  reallocations and handshake bytes;
* the columnar loop is at least ``MIN_SPEEDUP`` times faster than the
  oracle over the two modes (the measured ratio is recorded).

Results persist to ``results/arms_race.txt`` + ``results/arms_race.json``
via ``save_table``.
"""

import os
import sys
import time

import numpy as np

from repro.experiments import parallel, registry
from repro.experiments.registry import ScenarioParams
from repro.schemes import build_raw, legacy_scheme_spec
from repro.stream.adaptive import run_arms_race

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from oracles.stream import run_arms_race_per_event

PARAMS = ScenarioParams(seed=0)

#: The columnar loop must beat the per-packet oracle by at least this
#: factor over both modes (about 6x measured on 2 vCPUs).
MIN_SPEEDUP = 3.0


def assert_same_outcome(ours, reference):
    assert ours.reallocations == reference.reallocations
    assert ours.config_overhead_bytes == reference.config_overhead_bytes
    assert ours.windows == reference.windows > 0
    assert ours.flows_observed == reference.flows_observed
    np.testing.assert_array_equal(
        ours.report.confusion.matrix, reference.report.confusion.matrix
    )


def test_arms_race_columnar_equals_per_packet(benchmark, save_table):
    options = registry.get("arms_race").resolve_options()
    runner = parallel.shared_runner(PARAMS)
    pipeline = runner.pipeline(float(options["window"]))
    evaluation = runner.scenario.evaluation_by_label()
    spec = legacy_scheme_spec(
        str(options["scheme"]).lower(), int(options["interfaces"])
    )

    def race(loop, adaptive):
        start = time.perf_counter()
        outcome = loop(
            evaluation,
            pipeline,
            lambda: build_raw(spec, PARAMS.seed),
            adaptive=adaptive,
            confidence_threshold=float(options["threshold"]),
            cooldown=float(options["cooldown"]),
            seed=PARAMS.seed,
        )
        return outcome, time.perf_counter() - start

    rows = []
    for mode in ("static", "adaptive"):
        adaptive = mode == "adaptive"
        ours, columnar_s = race(run_arms_race, adaptive)
        (reference, _), per_packet_s = race(run_arms_race_per_event, adaptive)
        assert_same_outcome(ours, reference)
        rows.append(
            [
                mode,
                ours.windows,
                ours.flows_observed,
                ours.reallocations,
                ours.report.mean_accuracy,
                columnar_s,
                per_packet_s,
                per_packet_s / columnar_s,
            ]
        )
    columnar_total = sum(row[5] for row in rows)
    per_packet_total = sum(row[6] for row in rows)
    speedup = per_packet_total / columnar_total
    rows.append(
        ["both", "", "", "", "", columnar_total, per_packet_total, speedup]
    )
    save_table(
        "arms_race",
        [
            "defender", "windows", "flows seen", "reallocations", "mean acc %",
            "columnar s", "per-packet s", "speedup",
        ],
        rows,
        title=(
            "Arms race cells at ScenarioParams(seed=0): columnar loop vs "
            "per-packet oracle (equal outcomes)"
        ),
    )
    assert speedup >= MIN_SPEEDUP, f"columnar loop only {speedup:.1f}x"

    # pytest-benchmark history: the adaptive cell, columnar.
    benchmark.pedantic(race, args=(run_arms_race, True), rounds=1, iterations=1)
