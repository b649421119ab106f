"""The benchmark's own machinery: self-time books, counts, output check.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
Workloads run in-process at a small scenario scale (see conftest.py).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from tracer import Tracer, install

WORKLOADS = ("table2_j2", "stream_replay", "grid_corpus")

#: Counts that are a pure function of the workload's inputs.
DETERMINISTIC = (
    "traffic.packets_generated",
    "batch.windows",
    "stream.events",
    "attack.windows_classified",
    "classifiers.fits",
)


class Ticks:
    """A clock that advances one unit per reading: exact, repeatable sums."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> float:
        self.now += 1
        return float(self.now)


def test_nested_frames_book_self_time_once():
    tracer = Tracer(clock=Ticks())
    inner = tracer.timed("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.timed("outer", body)
    tracer.begin_interval()  # t=1
    outer()  # frame 2..7, inner frames 3..4 and 5..6
    tracer.end_interval()  # t=8
    assert dict(tracer.self_s) == {"inner": 2.0, "outer": 3.0}
    assert tracer.gap_s == 2.0
    assert tracer.interval_s == 7.0
    assert sum(tracer.self_s.values()) + tracer.gap_s == tracer.interval_s


def test_outermost_frames_skip_nested_calls_of_their_layer():
    tracer = Tracer(clock=Ticks())
    frames = []

    def descend(depth):
        return descend_traced(depth - 1) if depth else "leaf"

    descend_traced = tracer.timed(
        "apply", descend, outermost=True, after=lambda *_: frames.append(1)
    )
    assert descend_traced(3) == "leaf"
    assert frames == [1]
    assert dict(tracer.self_s) == {"apply": 1.0}


def test_install_undo_restores_every_layer():
    from repro.analysis import attack, batch
    from repro.experiments import registry
    from repro.schemes.base import SchemeStack

    before = (
        attack.AttackPipeline.train,
        attack.flow_feature_matrix,
        batch.flow_feature_matrix,
        SchemeStack.apply,
        registry.get("table2"),
    )
    patches = install(Tracer())
    assert attack.flow_feature_matrix is not before[1]
    assert registry.get("table2") is not before[4]
    patches.undo()
    after = (
        attack.AttackPipeline.train,
        attack.flow_feature_matrix,
        batch.flow_feature_matrix,
        SchemeStack.apply,
        registry.get("table2"),
    )
    assert after == before


@pytest.mark.parametrize("name", ["stream_replay", "grid_corpus"])
def test_serial_layers_plus_untimed_equal_traced_wall(run_small, name):
    out = run_small(name, Tracer(clock=Ticks()))
    layers = out["layers"]
    # Setup bookings (corpus build on grid_corpus) are outside the call.
    check = out["parent_check"]
    assert check["booked_s"] + check["gap_s"] == check["interval_s"]
    assert layers["untimed_s"] == check["gap_s"]
    assert layers["traced_wall_s"] == check["interval_s"]
    if name == "stream_replay":
        assert sum(out["self_s"].values()) + layers["untimed_s"] == layers["traced_wall_s"]


def test_forked_workers_book_their_own_time(run_small):
    out = run_small("table2_j2", Tracer(clock=Ticks()))
    parent, *workers = out["processes"]
    assert len(workers) == 2
    check = out["parent_check"]
    assert check["booked_s"] + check["gap_s"] == check["interval_s"]
    for worker in workers:
        assert worker["busy_s"] > 0
        assert worker["gap_s"] == 0.0
    # Per-worker duplication is visible: each worker trains its own pipeline.
    assert out["layers"]["attack.pipelines_trained"] == 2
    assert out["layers"]["attack.train_dup_ratio"] == 2.0
    assert out["layers"]["traffic.dup_ratio"] == 2.0


def test_stack_stages_are_not_counted_as_outer_applies(run_small):
    out = run_small("grid_corpus", Tracer())
    flows = {row[0]: row[-1] for row in out["rows"]}  # composition -> flows
    assert out["layers"]["schemes.flows_materialized"] == sum(flows.values())


def test_fits_inside_classifier_selection_are_counted_once(run_small):
    out = run_small("stream_replay", Tracer())
    # best_classifier fits svm and nn on a split, then refits the winner.
    assert out["layers"]["classifiers.fits"] == 3
    assert out["layers"]["attack.pipelines_trained"] == 1
    assert out["layers"]["traffic.dup_ratio"] == 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_deterministic_counts_repeat_and_tracing_changes_no_result(run_small, name):
    plain = run_small(name)
    first = run_small(name, Tracer())
    second = run_small(name, Tracer())
    assert first["rows"] == plain["rows"] == second["rows"]
    for count in DETERMINISTIC:
        assert first["layers"][count] == second["layers"][count], count
    assert first["layers"]["traffic.packets_generated"] > 0
    assert first["layers"]["batch.windows"] > 0
    assert (first["layers"]["stream.events"] > 0) == (name == "stream_replay")


def test_output_check_counts_bad_and_missing_cells():
    reference = {
        "headers": ["scheme", "windows", "identical"],
        "rows": [["Original", 3, "yes"], ["OR", 4, "yes"]],
    }
    good = {"headers": reference["headers"], "rows": [list(r) for r in reference["rows"]]}
    assert bench.check_cells("stream_replay", reference, good) == (2, 0)
    wrong = {"headers": reference["headers"], "rows": [["Original", 3, "yes"], ["OR", 5, "yes"]]}
    assert bench.check_cells("stream_replay", reference, wrong) == (2, 1)
    assert bench.check_cells("stream_replay", reference, None) == (2, 2)
    table = {"headers": ["app", "Original", "OR"], "rows": [["video", 1.0, 2.0], ["Mean", 1.0, 2.0]]}
    changed = {"headers": table["headers"], "rows": [["video", 1.0, 2.5], ["Mean", 1.0, 2.0]]}
    assert bench.check_cells("table2_j2", table, changed) == (2, 1)


def test_driver_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
