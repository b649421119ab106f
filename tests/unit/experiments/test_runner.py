"""Tests for experiment orchestration: pipeline cache and window cache."""

import numpy as np
import pytest

from repro import obs
from repro.analysis.attack import PipelineKey
from repro.analysis.batch import flow_feature_matrix
from repro.defenses.base import StageOverhead
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import SchemeSpec, build_scheme, build_stack, legacy_scheme_spec


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

    def test_adopted_pipeline_is_served_without_training(self, runner):
        fresh = ExperimentRunner(runner.scenario)
        trained = runner.pipeline(5.0)
        with obs.capture() as cap:
            fresh.adopt(5.0, trained)
            assert fresh.pipeline(5.0 + 1e-12) is trained
        assert "proc.pipeline.trained" not in cap.metrics.counters
        assert cap.metrics.counters["pipeline.requests"] == 1

    def test_has_pipeline_follows_the_window_key(self, runner):
        fresh = ExperimentRunner(runner.scenario)
        assert not fresh.has_pipeline(5.0)
        fresh.adopt(5.0, runner.pipeline(5.0))
        assert fresh.has_pipeline(5.0 + 1e-12)
        assert fresh.has_pipeline(PipelineKey(5.0, ("svm", "nn")))
        assert not fresh.has_pipeline(10.0)
        assert not fresh.has_pipeline(PipelineKey(5.0, ("svm",)))

    def test_adopt_keeps_a_key_already_held(self, runner):
        held = runner.pipeline(5.0)
        runner.adopt(PipelineKey(5.0), PipelineKey(5.0).build(runner.scenario.seed))
        assert runner.pipeline(5.0) is held

    def test_a_bare_window_is_its_default_key(self, runner):
        assert runner.pipeline(PipelineKey(5.0)) is runner.pipeline(5.0)

    def test_attackers_and_features_name_distinct_pipelines(self, runner):
        svm = runner.pipeline(PipelineKey(5.0, ("svm",)))
        timing = runner.pipeline(PipelineKey(5.0, features=(0, 5, 6, 11)))
        assert svm.classifier_name == "svm"
        assert timing.feature_indices == (0, 5, 6, 11)
        assert len({id(svm), id(timing), id(runner.pipeline(5.0))}) == 3

    def test_a_miss_trains_once_and_keeps_no_training_split(self, runner):
        fresh = ExperimentRunner(runner.scenario)
        key = PipelineKey(5.0, ("bayes",))
        with obs.capture() as cap:
            fresh.pipeline(key)
            fresh.pipeline(key)
        counters = cap.metrics.counters
        assert counters["proc.pipeline.trained"] == 1
        assert counters["proc.train.traces"] == 7 * runner.scenario.train_sessions
        assert not runner.scenario._train


class TestWindowCacheSharing:
    def test_scheme_objects_stable_across_calls(self, runner):
        # Scheme identity keys the window cache, so the runner must not
        # rebuild fresh scheme objects per call.
        first = runner.scheme(legacy_scheme_spec("OR", 3))
        assert runner.scheme(SchemeSpec("or", (("interfaces", 3),))) is first
        assert runner.scheme(legacy_scheme_spec("OR", 2)) is not first

    def test_plan_cached_across_windows(self, runner):
        scheme = build_scheme("or")
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        with obs.capture() as cap:
            runner.flow_feature_matrices(scheme, trace, 5.0)
            runner.flow_feature_matrices(scheme, trace, 10.0)
        counters = cap.metrics.counters
        assert counters["proc.window_cache.plan_misses"] == 1
        assert counters["proc.window_cache.plan_hits"] == 1
        assert counters["proc.window_cache.matrices_misses"] == 2
        assert runner.fused_plan(scheme, trace) is runner.fused_plan(scheme, trace)

    def test_original_flows_are_the_trace(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        (flow,) = runner.scheme("original").apply(trace).observable_flows
        assert flow is trace

    def test_evaluation_populates_feature_cache(self, runner):
        runner.window_cache.clear()
        runner.evaluate_scheme("original", 5.0)
        misses = runner.window_cache.misses
        assert misses > 0
        report = runner.evaluate_scheme("original", 5.0)
        assert runner.window_cache.misses == misses  # second pass all hits
        assert runner.window_cache.hits >= misses
        assert report.confusion.total > 0


class TestFusedPlanAccessor:
    def test_returns_the_cached_plan_and_replays_its_telemetry(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        counts = []
        for _ in range(2):
            with obs.capture() as cap:
                plan = runner.fused_plan("or", trace)
            counts.append(cap.metrics.counters["scheme.apply_calls"])
        assert plan is runner.fused_plan(runner.scheme("or"), trace)
        assert plan.n_flows == len(runner.scheme("or").apply(trace).flows)
        assert counts == [1, 1]  # hit or miss, the request counts the same

    def test_morphing_plans_a_gather_equal_to_apply(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        plan = runner.fused_plan("morphing", trace)
        (flow,) = runner.scheme("morphing").apply(trace).observable_flows
        assert plan.source is not None
        _, source, sizes = plan.gather()
        np.testing.assert_array_equal(trace.times[source], flow.times)
        np.testing.assert_array_equal(sizes, flow.sizes)
        np.testing.assert_array_equal(trace.directions[source], flow.directions)


class TestPinnedBytes:
    def test_entries_count_what_they_hold(self):
        scenario = EvaluationScenario(
            seed=5, train_duration=20.0, eval_duration=20.0,
            train_sessions=1, eval_sessions=1,
        )
        runner = ExperimentRunner(scenario)
        cache = runner.window_cache
        trace = scenario.evaluation_by_app()[runner.app_order()[0]][0]
        with obs.capture() as cap:
            matrices = runner.flow_feature_matrices("or", trace, 5.0)
        plan = runner.fused_plan("or", trace)
        expected = plan.plan_bytes + sum(matrix.nbytes for matrix in matrices)
        assert cache.pinned_bytes == expected
        assert cap.metrics.gauges["proc.window_cache.pinned_bytes"] == expected
        (matrix,) = runner.flow_feature_matrices("morphing", trace, 5.0)
        gather = runner.fused_plan("morphing", trace)
        # A gather plan pins its runs' flows, sources, sizes and lengths.
        assert gather.plan_bytes == 4 * gather.repeats.nbytes
        expected += gather.plan_bytes + matrix.nbytes
        assert cache.pinned_bytes == expected
        runner.flow_feature_matrices("or", trace, 5.0)  # all hits
        assert cache.pinned_bytes == expected
        cache.clear()
        assert cache.pinned_bytes == 0


class TestRelease:
    @staticmethod
    def _request(runner, scheme, trace):
        return obs.captured(
            lambda: (
                runner.flow_feature_matrices(scheme, trace, 5.0),
                runner.stage_overhead(scheme, trace),
            )
        )

    def test_morphing_matrices_are_the_applied_flows_featurized(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        matrices = runner.flow_feature_matrices("morphing", trace, 5.0)
        flows = runner.scheme("morphing").apply(trace).observable_flows
        assert len(matrices) == len(flows)
        for matrix, flow in zip(matrices, flows):
            np.testing.assert_array_equal(matrix, flow_feature_matrix(flow, 5.0))
        assert runner.flow_feature_matrices("morphing", trace, 5.0) is matrices

    @pytest.mark.parametrize("composition", ["padding+or", "morphing"])
    def test_a_request_after_release_rebuilds_identically(self, runner, composition):
        by_app = runner.scenario.evaluation_by_app()
        trace = by_app[runner.app_order()[1]][0]
        cache = runner.window_cache
        scheme = build_stack(composition, seed=11)  # no other test holds it
        before = cache.pinned_bytes
        (matrices, stages), built = self._request(runner, scheme, trace)
        assert cache.pinned_bytes > before
        cache.release(scheme)
        assert cache.pinned_bytes == before
        (again, again_stages), rebuilt = self._request(runner, scheme, trace)
        assert again_stages == stages
        assert len(again) == len(matrices)
        for old, new in zip(matrices, again):
            assert new is not old
            np.testing.assert_array_equal(new, old)

        def logical(subprofile):
            counters = subprofile.metrics.counters
            return {k: v for k, v in counters.items() if not k.startswith("proc.")}

        # The fresh scheme's first request replays the same counts as
        # the re-request, traffic.* included: morphing generates its
        # target capture when it is built, not in the first apply.
        assert logical(rebuilt) == logical(built)
        assert rebuilt.metrics.counters["proc.window_cache.plan_misses"] == 1
        assert rebuilt.metrics.counters["proc.window_cache.matrices_misses"] == 1

    def test_other_schemes_survive_a_release(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[2]][0]
        kept = runner.flow_feature_matrices("or", trace, 5.0)
        released = build_stack("or", seed=12)
        runner.flow_feature_matrices(released, trace, 5.0)
        runner.window_cache.release(released)
        assert runner.flow_feature_matrices("or", trace, 5.0) is kept


class TestGatherPlan:
    """A fragmenting scheme plans once, pins its gather and never applies."""

    @staticmethod
    def _counting_apply(monkeypatch, scheme):
        calls = []
        apply = scheme.apply

        def counted(trace):
            calls.append(trace)
            return apply(trace)

        monkeypatch.setattr(scheme, "apply", counted)
        return calls

    @staticmethod
    def _trace(runner, position=0):
        return runner.scenario.evaluation_by_app()[runner.app_order()[position]][0]

    def test_featurizing_pins_the_plan_and_matrices_only(self, runner):
        scheme = build_stack("morphing", seed=21)
        trace = self._trace(runner)
        cache = runner.window_cache
        before = cache.pinned_bytes
        matrices = runner.flow_feature_matrices(scheme, trace, 5.0)
        runner.stage_overhead(scheme, trace)
        plan = runner.fused_plan(scheme, trace)
        pinned = plan.plan_bytes + sum(m.nbytes for m in matrices)
        assert cache.pinned_bytes - before == pinned
        cache.release(scheme)

    def test_featurizing_and_accounting_never_apply(self, runner, monkeypatch):
        scheme = build_stack("morphing", seed=22)
        trace = self._trace(runner)
        calls = self._counting_apply(monkeypatch, scheme)
        matrices = runner.flow_feature_matrices(scheme, trace, 5.0)
        (stage,) = runner.stage_overhead(scheme, trace)
        assert runner.flow_feature_matrices(scheme, trace, 5.0) is matrices
        assert calls == []
        assert stage == scheme.apply(trace).stages[0]
        runner.window_cache.release(scheme)

    def test_another_window_reuses_the_plan(self, runner):
        scheme = build_stack("morphing", seed=24)
        trace = self._trace(runner)
        _, five = obs.captured(lambda: runner.flow_feature_matrices(scheme, trace, 5.0))
        ten, again = obs.captured(
            lambda: runner.flow_feature_matrices(scheme, trace, 10.0)
        )
        for matrix, flow in zip(ten, scheme.apply(trace).observable_flows):
            np.testing.assert_array_equal(matrix, flow_feature_matrix(flow, 10.0))
        assert again.metrics.counters["proc.window_cache.plan_hits"] == 1
        # The request replays the recorded plan's telemetry, exactly as
        # the first window's did.
        assert (
            again.metrics.counters["scheme.apply_calls"]
            == five.metrics.counters["scheme.apply_calls"]
        )
        runner.window_cache.release(scheme)

    def test_warm_requests_replay_what_cold_ones_did(self, runner):
        scheme = build_stack("morphing", seed=25)
        trace = self._trace(runner, 1)

        def request():
            return obs.captured(
                lambda: (
                    runner.flow_feature_matrices(scheme, trace, 5.0),
                    runner.stage_overhead(scheme, trace),
                )
            )[1]

        def logical(subprofile):
            counters = subprofile.metrics.counters
            return {k: v for k, v in counters.items() if not k.startswith("proc.")}

        cold, warm = request(), request()
        assert logical(warm) == logical(cold)
        assert warm.metrics.counters["proc.window_cache.plan_hits"] == 2
        runner.window_cache.release(scheme)


class TestStageOverhead:
    def test_fused_accounting_matches_apply(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        for composition in ("or", "padding", "padding+or", "pseudonym+or"):
            expected = runner.scheme(composition).apply(trace).stages
            assert runner.stage_overhead(composition, trace) == expected

    def test_morphing_reads_the_cached_plan(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        defended = runner.scheme("morphing").apply(trace)
        (stage,) = runner.stage_overhead("morphing", trace)
        assert isinstance(stage, StageOverhead)
        assert (stage,) == defended.stages
        assert stage.flows == len(defended.observable_flows)
        hits = runner.window_cache.hits
        runner.stage_overhead("morphing", trace)  # one plan hit, no apply
        assert runner.window_cache.hits == hits + 1

    def test_undefended_original_books_no_overhead(self, runner):
        trace = runner.scenario.evaluation_by_app()[runner.app_order()[0]][0]
        assert runner.stage_overhead("original", trace) == (
            StageOverhead("original", 0, 0, (1,)),
        )
