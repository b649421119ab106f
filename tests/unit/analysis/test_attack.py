"""Tests for the end-to-end attack pipeline."""

import numpy as np
import pytest

from repro.analysis.attack import AttackPipeline, PipelineKey, training_rows
from repro.analysis.batch import augment_direction_dropout, flow_feature_matrix
from repro.core.base import ReshaperScheme
from repro.core.schedulers import OrthogonalReshaper
from repro.defenses.padding import PacketPadding
from repro.traffic.apps import AppType


@pytest.fixture(scope="module")
def trained(tiny_corpus_module):
    pipeline = AttackPipeline(window=5.0, seed=0)
    pipeline.train(tiny_corpus_module)
    return pipeline


@pytest.fixture(scope="module")
def tiny_corpus_module():
    from repro.traffic.generator import TrafficGenerator

    generator = TrafficGenerator(seed=1234)
    return {
        app.value: [generator.generate(app, duration=60.0, session=s) for s in range(2)]
        for app in AppType
    }


class TestTraining:
    def test_trains_and_reports_validation(self, trained):
        assert trained.is_trained
        assert 0.5 < trained.validation_accuracy <= 1.0
        assert trained.classifier_name in ("svm", "nn")

    def test_classes_are_the_seven_apps(self, trained):
        assert set(trained.classes) == {app.value for app in AppType}

    def test_untrained_pipeline_refuses_to_classify(self):
        pipeline = AttackPipeline(window=5.0)
        with pytest.raises(RuntimeError):
            pipeline.transform_matrix(np.zeros((0, 12)))
        assert pipeline.classifier_name == "untrained"

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            AttackPipeline(window=5.0).train({})

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AttackPipeline(window=0.0)

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(ValueError, match="window must be"):
            AttackPipeline(window=window)


class TestPipelineKey:
    def test_window_is_normalized(self):
        assert PipelineKey(0.1 + 0.2) == PipelineKey(0.3)
        assert hash(PipelineKey(0.1 + 0.2)) == hash(PipelineKey(0.3))

    def test_build_resolves_attacker_names(self):
        pipeline = PipelineKey(5.0, ("bayes",), (0, 5)).build(seed=3)
        assert [attacker.name for attacker in pipeline._attackers] == ["bayes"]
        assert pipeline.feature_indices == (0, 5)
        assert pipeline.seed == 3
        assert not pipeline.is_trained

    def test_default_key_builds_the_papers_attackers(self):
        pipeline = PipelineKey(5.0).build(seed=3)
        assert [attacker.name for attacker in pipeline._attackers] == ["svm", "nn"]
        assert pipeline.feature_indices is None


class TestTrainingPieces:
    """train is training_rows per trace, then fit_rows on the lot."""

    def test_rows_are_windows_then_their_one_sided_variants(self, tiny_corpus_module):
        trace = tiny_corpus_module["browsing"][0]
        windows = flow_feature_matrix(trace, 5.0)
        rows = training_rows(trace, 5.0)
        assert len(rows) > len(windows) > 0
        np.testing.assert_array_equal(rows[: len(windows)], windows)
        np.testing.assert_array_equal(
            rows[len(windows) :], augment_direction_dropout(windows, 5.0)
        )

    def test_fit_rows_through_a_map_equals_train(self, trained, tiny_corpus_module):
        pipeline = AttackPipeline(window=5.0, seed=0)
        rows = {
            label: [training_rows(trace, 5.0) for trace in traces]
            for label, traces in tiny_corpus_module.items()
        }
        pipeline.fit_rows(rows, map=map)
        assert pipeline.classes == trained.classes
        assert pipeline.validation_accuracy == trained.validation_accuracy
        assert pipeline.classifier_name == trained.classifier_name
        probe = np.concatenate(rows["gaming"])
        assert pipeline.classify_matrix(probe) == trained.classify_matrix(probe)

    def test_fit_rows_skips_empty_blocks_and_rejects_no_rows(self):
        with pytest.raises(ValueError, match="no classifiable windows"):
            AttackPipeline(window=5.0).fit_rows({"browsing": [np.empty((0, 12))]})


class TestEvaluation:
    def test_undefended_accuracy_is_high(self, trained, tiny_corpus_module):
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=777)
        held_out = {
            app.value: [generator.generate(app, duration=60.0, session=9)]
            for app in AppType
        }
        report = trained.evaluate_flows(held_out)
        assert report.mean_accuracy > 60.0

    def test_or_reduces_identifiability_of_bt(self, trained):
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=778)
        bt = generator.generate(AppType.BITTORRENT, 60.0, session=5)
        scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
        flows = scheme.apply(bt).observable_flows
        report = trained.evaluate_flows({"bittorrent": flows})
        assert report.accuracy_by_class["bittorrent"] < 60.0

    def test_per_window_features_classify_like_matrix_path(self, trained):
        from oracles.windows import extract_features, sliding_windows
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=782)
        flow = generator.generate(AppType.VIDEO, 60.0, session=8)
        windows = sliding_windows(flow, trained.window, trained.min_packets)
        per_window = trained.classify_matrix(
            np.vstack(
                [extract_features(w, trained.window, label=None).vector for w in windows]
            )
        )
        batched = trained.classify_matrix(flow_feature_matrix(flow, trained.window))
        assert per_window == batched

    def test_classify_matrix_empty(self, trained):
        assert trained.classify_matrix(np.empty((0, 12))) == []

    def test_classify_matrix_untrained(self):
        with pytest.raises(RuntimeError):
            AttackPipeline(window=5.0).classify_matrix(np.zeros((1, 12)))

    def test_padded_flows_evaluate(self, trained):
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=779)
        trace = generator.generate(AppType.CHATTING, 60.0, session=3)
        flows = PacketPadding().apply(trace).observable_flows
        report = trained.evaluate_flows({"chatting": flows})
        assert report.confusion.total > 0

    def test_report_mean_fp(self, trained):
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=780)
        held_out = {
            app.value: [generator.generate(app, duration=60.0, session=4)]
            for app in AppType
        }
        report = trained.evaluate_flows(held_out)
        assert 0.0 <= report.mean_false_positive <= 100.0


class TestFeatureMasking:
    def test_timing_only_attacker(self, tiny_corpus_module):
        pipeline = AttackPipeline(
            window=5.0, seed=0, feature_indices=(0, 5, 6, 11)
        )
        pipeline.train(tiny_corpus_module)
        assert pipeline.is_trained
        # A timing-only attacker still beats random guessing (1/7).
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(seed=781)
        held_out = {
            app.value: [generator.generate(app, duration=60.0, session=6)]
            for app in AppType
        }
        report = pipeline.evaluate_flows(held_out)
        assert report.mean_accuracy > 100.0 / 7.0
