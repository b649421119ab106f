"""Integration: one evaluation path, held to the materializing oracle.

``combined_grid``, ``table6``, ``combined`` and ``population_scale``
featurize only through ``ExperimentRunner.flow_feature_matrices`` — every
scheme planned, morphing and the combined defense as gathers — and read
their byte accounting from that same cached plan.  At smoke scale their
rows, accounting and flow counts must equal :mod:`oracles.materializing`,
which applies every scheme for real and featurizes flow by flow, and
their profiles carry no counter of an apply route.
"""

import pytest

from oracles.materializing import (
    combined_grid_oracle,
    combined_oracle,
    population_oracle,
    table6_oracle,
)
from repro.experiments import parallel
from repro.experiments.combined_grid import DEFAULT_COMPOSITIONS
from repro.experiments.parallel import run_experiment_result
from repro.experiments.registry import ScenarioParams

pytestmark = pytest.mark.smoke

PARAMS = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)

#: Counter prefixes only an apply → featurize route would record.
APPLY_ROUTE_COUNTERS = (
    "batch.fallback_flows",
    "proc.window_cache.applied_",
    "proc.window_cache.flow_",
    "proc.window_cache.reapplies",
)


def apply_route_counters(profile):
    """Counters of ``profile`` (cells and process) an apply route recorded."""
    counters = [*profile["counters"], *profile["process"]["counters"]]
    return [key for key in counters if key.startswith(APPLY_ROUTE_COUNTERS)]


GRID_OPTIONS = {
    "window": 5.0,
    "schemes": ",".join(DEFAULT_COMPOSITIONS),
    "classifiers": "svm,bayes",
}


@pytest.fixture(autouse=True)
def cold_process_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


@pytest.fixture(scope="module")
def grid_oracle():
    return combined_grid_oracle(PARAMS, GRID_OPTIONS)


@pytest.fixture(scope="module")
def grid_result():
    parallel.clear_worker_state()
    return run_experiment_result("combined_grid", PARAMS, profile=True)


class TestCombinedGrid:
    def test_rows_match_oracle(self, grid_result, grid_oracle):
        rows, _ = grid_oracle
        assert [row[:2] for row in grid_result.rows] == [
            (composition, classifier)
            for composition in DEFAULT_COMPOSITIONS
            for classifier in ("svm", "bayes")
        ]
        assert list(grid_result.rows) == rows

    def test_stage_overhead_matches_oracle(self, grid_result, grid_oracle):
        _, stage_overhead = grid_oracle
        assert grid_result.extras["stage_overhead"] == stage_overhead

    def test_every_composition_takes_the_fused_route(self, grid_result):
        profile = grid_result.meta["profile"]
        assert apply_route_counters(profile) == []
        # Every flow of every cell, morphing ones included, went through
        # the fused kernel.
        assert profile["counters"]["batch.fused_flows"] == sum(
            row[5] for row in grid_result.rows
        )
        assert profile["process"]["counters"]["proc.window_cache.plan_misses"] == (
            len(DEFAULT_COMPOSITIONS) * 7
        )

    def test_parallel_matches_serial(self, grid_result):
        parallel_result = run_experiment_result(
            "combined_grid", PARAMS, jobs=2, profile=True
        )
        assert parallel_result.rows == grid_result.rows
        assert parallel_result.extras == grid_result.extras
        serial, fanned = (
            {
                key: value
                for key, value in result.meta["profile"]["counters"].items()
                if not key.startswith("proc.")
            }
            for result in (grid_result, parallel_result)
        )
        assert fanned == serial


class TestTable6:
    def test_rows_match_oracle(self):
        result = run_experiment_result("table6", PARAMS, profile=True)
        assert list(result.rows) == [tuple(row) for row in table6_oracle(PARAMS)]
        assert apply_route_counters(result.meta["profile"]) == []


class TestCombined:
    def test_rows_and_overhead_match_oracle(self):
        result = run_experiment_result("combined", PARAMS, profile=True)
        rows, overhead = combined_oracle(PARAMS)
        assert list(result.rows) == rows
        assert result.extras["combined_overhead_percent"] == overhead
        assert apply_route_counters(result.meta["profile"]) == []


class TestPopulationScale:
    @pytest.mark.parametrize("scheme", ["padding+or", "morphing"])
    def test_rows_match_oracle(self, scheme):
        options = {
            "populations": "6,12", "shards": 2,
            "station_duration": 5.0, "scheme": scheme,
        }
        result = run_experiment_result("population_scale", PARAMS, options)
        assert list(result.rows) == population_oracle(
            PARAMS, (6, 12), scheme, station_duration=5.0
        )
