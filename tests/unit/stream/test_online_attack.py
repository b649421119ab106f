"""Tests for the streaming attacker and the adaptive defender."""

import numpy as np
import pytest

from repro.analysis.attack import AttackPipeline
from repro.analysis.classifiers import GaussianNaiveBayes, KNearestNeighbors
from repro.core.schedulers import OrthogonalReshaper, RoundRobinReshaper
from repro.stream import (
    AdaptiveReshaper,
    OnlineAttack,
    PacketStream,
    WindowPrediction,
    run_arms_race,
)


@pytest.fixture(scope="module")
def trained_pipeline(tiny_corpus):
    pipeline = AttackPipeline(window=5.0, seed=0)
    pipeline.train(tiny_corpus)
    return pipeline


class TestOnlineAttack:
    def test_from_pipeline_requires_training(self):
        with pytest.raises(RuntimeError):
            OnlineAttack.from_pipeline(AttackPipeline(window=5.0))

    def test_learning_mode_requires_online_classifier(self, trained_pipeline):
        with pytest.raises(TypeError, match="partial_fit"):
            OnlineAttack(
                window=5.0,
                classifier=KNearestNeighbors(),
                classes=("a", "b"),
                scaler=trained_pipeline.scaler,
                learn=True,
            )

    def test_predictions_match_batch_pipeline(self, trained_pipeline, tiny_corpus):
        """The parity bar: streaming == evaluate_flows, window for window."""
        label, traces = next(iter(tiny_corpus.items()))
        trace = traces[0]
        attacker = OnlineAttack.from_pipeline(trained_pipeline)
        attacker.consume(PacketStream.replay(trace, station="f", label=label))
        from repro.analysis.batch import flow_feature_matrix

        matrix = flow_feature_matrix(trace, 5.0)
        expected = trained_pipeline.classify_matrix(matrix)
        assert [p.predicted for p in attacker.predictions] == expected

    def test_report_scores_only_labeled_windows(self, trained_pipeline, tiny_corpus):
        trace = tiny_corpus["browsing"][0].with_label(None)
        attacker = OnlineAttack.from_pipeline(trained_pipeline)
        attacker.consume(PacketStream.replay(trace, station="f"))
        assert attacker.predictions  # predictions happen regardless
        assert attacker.report().confusion.total == 0

    def test_confidence_is_a_probability(self, trained_pipeline, tiny_corpus):
        trace = tiny_corpus["video"][0]
        attacker = OnlineAttack.from_pipeline(trained_pipeline)
        attacker.consume(PacketStream.replay(trace, station="f", label="video"))
        assert all(0.0 <= p.confidence <= 1.0 for p in attacker.predictions)

    def test_cold_learner_trains_before_predicting(self, tiny_corpus):
        from repro.analysis.scaler import StandardScaler
        from repro.analysis.batch import flow_feature_matrix

        classes = tuple(sorted(tiny_corpus))
        scaler = StandardScaler().fit(
            np.vstack(
                [
                    flow_feature_matrix(traces[0], 5.0)
                    for traces in tiny_corpus.values()
                ]
            )
        )
        attacker = OnlineAttack(
            window=5.0,
            classifier=GaussianNaiveBayes(),
            classes=classes,
            scaler=scaler,
            learn=True,
        )
        for label in classes:
            attacker.consume(
                PacketStream.replay(
                    tiny_corpus[label][0], station=f"{label}/f", label=label
                )
            )
        # The very first batch trains silently; afterwards predictions flow.
        assert attacker.windows_trained > 0
        assert attacker.predictions
        assert attacker.report().confusion.total == len(attacker.predictions)

    def test_finish_flow_releases_state_and_scores_the_window(
        self, trained_pipeline, tiny_corpus
    ):
        attacker = OnlineAttack.from_pipeline(trained_pipeline)
        trace = tiny_corpus["chatting"][0]
        for chunk in PacketStream.replay(trace, station="f", label="chatting").chunks():
            attacker.observe_chunk(chunk)
        assert attacker.featurizer.open_flows == 1
        early = attacker.finish_flow("f")
        assert attacker.featurizer.open_flows == 0
        assert attacker.featurizer.open_packets == 0
        # Flushing a flow early emits the same window an end-of-capture
        # flush would have; predictions are scored either way.
        assert early
        assert attacker.predictions[-len(early):] == early
        assert attacker.finish_flow("f") == []  # idempotent

    def test_frozen_mode_never_mutates_the_classifier(self, trained_pipeline, tiny_corpus):
        classifier = trained_pipeline.classifier
        state_before = [p.copy() for p in vars(classifier).values() if isinstance(p, np.ndarray)]
        attacker = OnlineAttack.from_pipeline(trained_pipeline)
        attacker.consume(
            PacketStream.replay(tiny_corpus["gaming"][0], station="f", label="gaming")
        )
        state_after = [p for p in vars(classifier).values() if isinstance(p, np.ndarray)]
        for before, after in zip(state_before, state_after):
            np.testing.assert_array_equal(before, after)


class TestAdaptiveReshaper:
    def _confident(self, flow="sta/e0/i0", start=50.0):
        return WindowPrediction(
            flow=flow, index=3, start=start,
            true_label="video", predicted="video", confidence=0.99,
        )

    def test_reallocates_on_confident_recognition(self):
        defender = AdaptiveReshaper(RoundRobinReshaper(3), confidence_threshold=0.9)
        addresses = list(defender.virtual_addresses)
        assert defender.notify(self._confident())
        assert defender.epoch == 1
        assert defender.reallocations == 1
        assert defender.virtual_addresses != addresses

    def test_ignores_misses_and_low_confidence(self):
        defender = AdaptiveReshaper(RoundRobinReshaper(3), confidence_threshold=0.9)
        wrong = self._confident()._replace(predicted="gaming")
        timid = self._confident()._replace(confidence=0.5)
        unlabeled = self._confident()._replace(true_label=None)
        assert not defender.notify(wrong)
        assert not defender.notify(timid)
        assert not defender.notify(unlabeled)
        assert defender.epoch == 0

    def test_cooldown_rate_limits(self):
        defender = AdaptiveReshaper(
            RoundRobinReshaper(3), confidence_threshold=0.9, cooldown=30.0
        )
        assert defender.notify(self._confident(start=50.0))
        assert not defender.notify(self._confident(start=60.0))
        assert defender.notify(self._confident(start=85.0))
        assert defender.reallocations == 2

    def test_flow_keys_name_epoch_and_interface(self):
        defender = AdaptiveReshaper(RoundRobinReshaper(2))
        assert defender.flow_keys("sta", defender.epoch) == ("sta/e0/i0", "sta/e0/i1")
        defender.notify(self._confident())
        assert defender.flow_keys("sta", defender.epoch) == ("sta/e1/i0", "sta/e1/i1")

    def test_cooled_takes_one_start_or_many(self):
        defender = AdaptiveReshaper(
            RoundRobinReshaper(3), confidence_threshold=0.9, cooldown=30.0
        )
        assert defender.cooled(0.0)
        assert defender.notify(self._confident(start=50.0))
        starts = np.array([60.0, 79.999, 80.0, 85.0])
        np.testing.assert_array_equal(defender.cooled(starts), [0, 0, 1, 1])
        assert [defender.cooled(float(start)) for start in starts] == [0, 0, 1, 1]

    def test_overhead_counts_handshakes(self):
        defender = AdaptiveReshaper(OrthogonalReshaper.paper_default())
        base = defender.config_overhead_bytes
        defender.notify(self._confident())
        assert defender.config_overhead_bytes == base * 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveReshaper(RoundRobinReshaper(3), confidence_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveReshaper(RoundRobinReshaper(3), cooldown=-1.0)


class TestArmsRace:
    def test_static_defender_never_reallocates(self, trained_pipeline, tiny_corpus):
        outcome = run_arms_race(
            {label: traces[:1] for label, traces in tiny_corpus.items()},
            trained_pipeline,
            lambda: OrthogonalReshaper.paper_default(),
            adaptive=False,
        )
        assert outcome.reallocations == 0
        assert outcome.windows > 0
        assert outcome.report.confusion.total == outcome.windows

    def test_adaptive_defender_fragments_flows(self, trained_pipeline, tiny_corpus):
        evaluation = {label: traces[:1] for label, traces in tiny_corpus.items()}
        static = run_arms_race(
            evaluation, trained_pipeline,
            lambda: OrthogonalReshaper.paper_default(), adaptive=False,
        )
        adaptive = run_arms_race(
            evaluation, trained_pipeline,
            lambda: OrthogonalReshaper.paper_default(),
            adaptive=True, confidence_threshold=0.5, cooldown=5.0,
        )
        assert adaptive.reallocations > 0
        assert adaptive.flows_observed > static.flows_observed
        assert adaptive.config_overhead_bytes > static.config_overhead_bytes

    def test_deterministic_in_the_seed(self, trained_pipeline, tiny_corpus):
        evaluation = {label: traces[:1] for label, traces in tiny_corpus.items()}
        kwargs = dict(
            pipeline=trained_pipeline,
            base_factory=lambda: OrthogonalReshaper.paper_default(),
            adaptive=True, confidence_threshold=0.5, seed=3,
        )
        first = run_arms_race(evaluation, **kwargs)
        second = run_arms_race(evaluation, **kwargs)
        assert first.reallocations == second.reallocations
        np.testing.assert_array_equal(
            first.report.confusion.matrix, second.report.confusion.matrix
        )
