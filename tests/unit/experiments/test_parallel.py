"""Tests for the parallel executor's worker-state sharing and serial path."""

import pickle

import pytest

from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentSpec,
    ScenarioParams,
    make_cell,
    take_only,
)
from repro.experiments.runner import ExperimentRunner

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


class TestWorkerState:
    def test_scenario_memoized_per_params(self):
        assert parallel.shared_scenario(TINY) is parallel.shared_scenario(TINY)
        other = ScenarioParams(seed=6, train_duration=30.0, eval_duration=20.0,
                               train_sessions=1, eval_sessions=1)
        assert parallel.shared_scenario(TINY) is not parallel.shared_scenario(other)

    def test_runner_memoized_and_wraps_shared_scenario(self):
        runner = parallel.shared_runner(TINY)
        assert isinstance(runner, ExperimentRunner)
        assert runner is parallel.shared_runner(TINY)
        assert runner.scenario is parallel.shared_scenario(TINY)

    def test_worker_cached_builds_once(self):
        calls = []
        build = lambda: calls.append(1) or "value"  # noqa: E731
        assert parallel.worker_cached("key", build) == "value"
        assert parallel.worker_cached("key", build) == "value"
        assert len(calls) == 1

    def test_clear_worker_state_drops_memos(self):
        scenario = parallel.shared_scenario(TINY)
        parallel.clear_worker_state()
        assert parallel.shared_scenario(TINY) is not scenario

    def test_default_jobs_positive(self):
        assert parallel.default_jobs() >= 1


class TestSerialPath:
    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="registered experiments"):
            parallel.run_experiment("nope", TINY)

    def test_option_overrides_reach_cells(self):
        rows = parallel.run_experiment("table1", TINY, options={"interfaces": 2})
        assert all(set(row.interface_mean_sizes) == {0, 1} for row in rows)

    def test_result_artifact_carries_provenance(self):
        result = parallel.run_experiment_result(
            "fig1", TINY, options={"duration": 10.0}
        )
        assert result.experiment == "fig1"
        assert result.params["seed"] == TINY.seed
        assert result.params["duration"] == 10.0
        assert len(result.rows) == 7


def _explode_or_pass(cell):
    if cell.name == "explode":
        raise ValueError("boom")
    return cell.name


@pytest.fixture
def exploding_experiment(monkeypatch):
    """A registered two-cell experiment whose second cell raises."""
    spec = ExperimentSpec(
        name="exploding",
        title="test",
        description="test",
        build_cells=lambda params, options: tuple(
            make_cell("exploding", name, {}, params.seed)
            for name in ("fine", "explode")
        ),
        run_cell=_explode_or_pass,
        combine=take_only,
        to_result=None,
    )
    monkeypatch.setitem(registry._REGISTRY, "exploding", spec)
    return spec.name


class TestCellFailure:
    MESSAGE = r"experiment 'exploding' cell 'explode' failed: ValueError: boom"

    def test_serial_failure_names_experiment_and_cell(self, exploding_experiment):
        with pytest.raises(RuntimeError, match=self.MESSAGE) as excinfo:
            parallel.run_experiment(exploding_experiment, TINY)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert str(excinfo.value.__cause__) == "boom"

    def test_failure_survives_pickling(self, exploding_experiment):
        with pytest.raises(RuntimeError) as excinfo:
            parallel.run_experiment(exploding_experiment, TINY)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert str(clone) == str(excinfo.value)

    def test_forked_worker_failure_names_experiment_and_cell(
        self, exploding_experiment
    ):
        with pytest.raises(RuntimeError, match=self.MESSAGE):
            parallel.run_experiment(
                exploding_experiment, TINY, jobs=2, start_method="fork"
            )
