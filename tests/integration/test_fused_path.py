"""Integration: the fused evaluation path end to end.

Three claims ride on the fused kernels at runner level.  Reports are
bit-identical to the materializing oracle (apply → featurize → score,
:mod:`oracles.materializing`) for every legacy scheme and morphing.
Telemetry proves the route taken: every run records
``batch.fused_plans`` and no ``batch.fallback_flows``, morphing
included.
And the CLI profile carries the counters out, so CI can assert the
fused path stayed live from a profile JSON alone.
"""

import json

import numpy as np
import pytest

from oracles import materializing
from repro import obs
from repro.cli import main
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import LEGACY_SCHEME_SPECS

pytestmark = pytest.mark.smoke

TINY_FLAGS = [
    "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
]


@pytest.fixture(scope="module")
def scenario():
    return EvaluationScenario(
        seed=5,
        train_duration=30.0,
        eval_duration=20.0,
        train_sessions=1,
        eval_sessions=1,
    )


def legacy_report(runner, spec, window):
    """The materializing oracle's report for ``spec``."""
    return materializing.evaluate_scheme(
        runner.pipeline(window),
        runner.scheme(spec),
        runner.scenario.evaluation_by_label(),
    )


def assert_reports_equal(fused, reference):
    assert fused.confusion.classes == reference.confusion.classes
    np.testing.assert_array_equal(
        fused.confusion.matrix, reference.confusion.matrix
    )


class TestRunnerParity:
    @pytest.mark.parametrize("spec", [canonical for _, canonical in LEGACY_SCHEME_SPECS])
    def test_reports_match_materializing_loop(self, scenario, spec):
        fused_runner = ExperimentRunner(scenario)
        legacy_runner = ExperimentRunner(scenario)
        fused = fused_runner.evaluate_scheme(spec, 5.0)
        reference = legacy_report(legacy_runner, spec, window=5.0)
        assert_reports_equal(fused, reference)

    def test_morphing_plans_and_still_matches(self, scenario):
        fused_runner = ExperimentRunner(scenario)
        legacy_runner = ExperimentRunner(scenario)
        fused = fused_runner.evaluate_scheme("morphing", 5.0)
        reference = legacy_report(legacy_runner, "morphing", window=5.0)
        assert_reports_equal(fused, reference)


class TestRouteTelemetry:
    def _evaluate(self, scenario, spec):
        runner = ExperimentRunner(scenario)
        _, sub = obs.captured(lambda: runner.evaluate_scheme(spec, 5.0))
        return sub.metrics.counters

    def test_fusable_scheme_never_falls_back(self, scenario):
        counters = self._evaluate(scenario, "padding+or")
        assert counters["batch.fused_plans"] > 0
        assert counters["batch.fused_flows"] > 0
        assert "batch.fallback_flows" not in counters

    @pytest.mark.parametrize("spec", ["morphing", "morphing+or"])
    def test_morphing_records_no_fallback(self, scenario, spec):
        counters = self._evaluate(scenario, spec)
        assert counters["batch.fused_plans"] > 0
        assert counters["batch.fused_flows"] > 0
        assert "batch.fallback_flows" not in counters

    def test_second_window_hits_the_plan_cache(self, scenario):
        runner = ExperimentRunner(scenario)
        runner.evaluate_scheme("or", 5.0)
        _, sub = obs.captured(lambda: runner.evaluate_scheme("or", 7.0))
        counters = sub.metrics.counters
        # Plans are window-independent: the second window replans nothing.
        assert counters["proc.window_cache.plan_hits"] > 0
        assert "proc.window_cache.plan_misses" not in counters
        # But fused matrices are per-window, so they are fresh misses.
        assert counters["proc.window_cache.matrices_misses"] > 0


class TestProfileSurface:
    """What CI's fused-path smoke asserts, exercised in-process."""

    def _profile(self, capsys, tmp_path, *extra):
        path = tmp_path / "profile.json"
        assert (
            main(["run", "table2", *TINY_FLAGS, *extra,
                  "--profile-output", str(path)])
            == 0
        )
        capsys.readouterr()
        return json.loads(path.read_text(encoding="utf-8"))

    def test_table2_runs_fully_fused(self, capsys, tmp_path):
        payload = self._profile(capsys, tmp_path)
        counters = payload["counters"]
        assert counters["batch.fused_plans"] > 0
        assert counters["batch.fused_flows"] > 0
        assert counters.get("batch.fallback_flows", 0) == 0
        assert payload["gauges"]["batch.bytes_materialized"] > 0

    def test_parallel_profile_matches_serial(self, capsys, tmp_path):
        serial = self._profile(capsys, tmp_path)
        parallel = self._profile(capsys, tmp_path, "--jobs", "2")
        for key in (
            "batch.fused_plans",
            "batch.fused_flows",
            "batch.fused_windows",
        ):
            assert serial["counters"][key] == parallel["counters"][key]
        assert (
            serial["gauges"]["batch.bytes_materialized"]
            == parallel["gauges"]["batch.bytes_materialized"]
        )
