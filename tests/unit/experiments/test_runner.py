"""Tests for experiment orchestration: pipeline cache and window cache."""

import pytest

from repro.defenses.base import StageOverhead
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import SchemeSpec, build_scheme, legacy_scheme_spec


@pytest.fixture(scope="module")
def runner():
    scenario = EvaluationScenario(
        seed=5,
        train_duration=40.0,
        eval_duration=30.0,
        train_sessions=2,
        eval_sessions=1,
    )
    return ExperimentRunner(scenario)


class TestPipelineCache:
    def test_pipeline_reused_per_window(self, runner):
        assert runner.pipeline(5.0) is runner.pipeline(5.0)

    def test_float_jitter_does_not_retrain(self, runner):
        # A sweep computing 0.1 + 0.2 must hit the same pipeline as 0.3
        # instead of silently training a duplicate.
        assert runner.pipeline(0.1 + 0.2) is runner.pipeline(0.3)

    def test_distinct_windows_get_distinct_pipelines(self, runner):
        assert runner.pipeline(5.0) is not runner.pipeline(10.0)


class TestWindowCacheSharing:
    def test_scheme_objects_stable_across_calls(self, runner):
        # Scheme identity keys the window cache, so the runner must not
        # rebuild fresh scheme objects per call.
        first = runner.scheme(legacy_scheme_spec("OR", 3))
        assert runner.scheme(SchemeSpec("or", (("interfaces", 3),))) is first
        assert runner.scheme(legacy_scheme_spec("OR", 2)) is not first

    def test_reshaped_flows_cached_across_windows(self, runner):
        scheme = build_scheme("or")
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        first = runner.observable_flows(scheme, trace)
        second = runner.observable_flows(scheme, trace)
        assert all(a is b for a, b in zip(first, second))

    def test_original_flows_bypass_cache(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        assert runner.observable_flows(None, trace) == [trace]

    def test_evaluation_populates_feature_cache(self, runner):
        runner.window_cache.clear()
        runner.evaluate_scheme(None, 5.0)
        misses = runner.window_cache.misses
        assert misses > 0
        report = runner.evaluate_scheme(None, 5.0)
        assert runner.window_cache.misses == misses  # second pass all hits
        assert runner.window_cache.hits >= misses
        assert report.confusion.total > 0


class TestStageOverhead:
    def test_fused_accounting_matches_apply(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        for composition in ("or", "padding", "padding+or", "pseudonym+or"):
            expected = runner.scheme(composition).apply(trace).stages
            assert runner.stage_overhead(composition, trace) == expected

    def test_fallback_reads_the_cached_application(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        flows = runner.observable_flows("morphing", trace)
        (stage,) = runner.stage_overhead("morphing", trace)
        assert isinstance(stage, StageOverhead)
        assert stage.scheme == "morphing"
        assert stage.flows == len(flows)
        hits = runner.window_cache.hits
        runner.stage_overhead("morphing", trace)  # plan + flow hits, no apply
        assert runner.window_cache.hits == hits + 2

    def test_undefended_original_has_no_stages(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        assert runner.stage_overhead(None, trace) == ()
