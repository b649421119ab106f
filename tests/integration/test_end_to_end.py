"""Integration: generate -> defend -> attack, asserting the paper's shape.

These run a reduced-scale version of the Sec. IV evaluation and assert
the *qualitative* results the paper reports: OR collapses classification
while the naive schemes barely dent it; reshaping costs zero bytes while
padding costs hundreds of percent.
"""

import pytest

from repro.analysis.attack import AttackPipeline
from repro.core.base import ReshaperScheme
from repro.core.schedulers import (
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.defenses.overhead import overhead_percent
from repro.defenses.padding import PacketPadding
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def setup():
    generator = TrafficGenerator(seed=42)
    train = {
        app.value: [generator.generate(app, 120.0, session=s) for s in range(3)]
        for app in AppType
    }
    evaluation = {
        app: [generator.generate(app, 90.0, session=50 + s) for s in range(2)]
        for app in AppType
    }
    pipeline = AttackPipeline(window=5.0, seed=42)
    pipeline.train(train)
    return pipeline, evaluation


def _evaluate(pipeline, evaluation, reshaper) -> float:
    flows = {}
    for app, traces in evaluation.items():
        app_flows = []
        for trace in traces:
            if reshaper is None:
                app_flows.append(trace)
            else:
                scheme = ReshaperScheme("reshaper", reshaper)
                app_flows.extend(scheme.apply(trace).observable_flows)
        flows[app.value] = app_flows
    return pipeline.evaluate_flows(flows).mean_accuracy


class TestHeadlineResult:
    def test_or_beats_naive_schedulers(self, setup):
        pipeline, evaluation = setup
        original = _evaluate(pipeline, evaluation, None)
        random_acc = _evaluate(pipeline, evaluation, RandomReshaper(3, seed=1))
        rr_acc = _evaluate(pipeline, evaluation, RoundRobinReshaper(3))
        or_acc = _evaluate(pipeline, evaluation, OrthogonalReshaper.paper_default())
        # The paper's ordering: Original > {RA, RR} > OR, with OR far below.
        assert original > 70.0
        assert or_acc < original - 20.0
        assert or_acc < random_acc
        assert or_acc < rr_acc

    def test_naive_schemes_barely_help(self, setup):
        pipeline, evaluation = setup
        original = _evaluate(pipeline, evaluation, None)
        random_acc = _evaluate(pipeline, evaluation, RandomReshaper(3, seed=1))
        # RA stays within ~20 points of the undefended accuracy.
        assert random_acc > original - 20.0

    def test_or_per_app_pattern(self, setup):
        pipeline, evaluation = setup
        flows = {}
        for app, traces in evaluation.items():
            app_flows = []
            for trace in traces:
                scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
                app_flows.extend(scheme.apply(trace).observable_flows)
            flows[app.value] = app_flows
        report = pipeline.evaluate_flows(flows)
        accuracy = report.accuracy_by_class
        # Sec. IV-C: downloading/uploading/chatting remain identifiable...
        assert accuracy["downloading"] > 75.0
        assert accuracy["uploading"] > 60.0
        assert accuracy["chatting"] > 60.0
        # ...while BT collapses.
        assert accuracy["bittorrent"] < 40.0

    def test_or_raises_false_positives(self, setup):
        pipeline, evaluation = setup
        original_flows = {
            app.value: list(traces) for app, traces in evaluation.items()
        }
        or_flows = {}
        for app, traces in evaluation.items():
            scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
            or_flows[app.value] = [
                flow for trace in traces for flow in scheme.apply(trace).observable_flows
            ]
        fp_original = pipeline.evaluate_flows(original_flows).mean_false_positive
        fp_or = pipeline.evaluate_flows(or_flows).mean_false_positive
        # Table IV: OR multiplies the mean FP rate.
        assert fp_or > fp_original


class TestEfficiency:
    def test_reshaping_free_padding_expensive(self, setup):
        _, evaluation = setup
        chat = evaluation[AppType.CHATTING][0]
        scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
        result = scheme.apply(chat)
        assert result.extra_bytes == 0

        padded = PacketPadding().apply(chat)
        # Table VI: chatting padding overhead ~486%.
        assert overhead_percent(padded) > 200.0
