"""The paper's critique of pseudonym schemes, verified (Sec. II-B).

"Pseudonym schemes ... are insufficient to prevent traffic analysis
attacks, because they do not obscure the traffic features when the
traffic is partitioned over ... a specific MAC address.  Hence, a single
partition may release enough sensitive information for the adversary to
perform traffic analysis accurately."
"""

import pytest

from repro.analysis.attack import AttackPipeline
from repro.core.base import ReshaperScheme
from repro.core.schedulers import OrthogonalReshaper
from repro.defenses.pseudonym import PseudonymDefense
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def setup():
    generator = TrafficGenerator(seed=83)
    training = {
        app.value: [generator.generate(app, 120.0, session=s) for s in range(3)]
        for app in AppType
    }
    pipeline = AttackPipeline(window=5.0, seed=83)
    pipeline.train(training)
    evaluation = {
        app: generator.generate(app, 120.0, session=55) for app in AppType
    }
    return pipeline, evaluation


def test_pseudonyms_barely_reduce_accuracy(setup):
    pipeline, evaluation = setup
    original_flows = {app.value: [trace] for app, trace in evaluation.items()}
    original = pipeline.evaluate_flows(original_flows).mean_accuracy

    pseudonym = PseudonymDefense(epoch=30.0)
    pseudonym_flows = {
        app.value: pseudonym.apply(trace).observable_flows
        for app, trace in evaluation.items()
    }
    defended = pipeline.evaluate_flows(pseudonym_flows).mean_accuracy

    # Each pseudonym epoch is a faithful slice of the original traffic,
    # so per-window classification barely notices the address change.
    assert defended > original - 10.0


def test_reshaping_beats_pseudonyms(setup):
    pipeline, evaluation = setup
    pseudonym = PseudonymDefense(epoch=30.0)
    scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())

    pseudonym_flows, or_flows = {}, {}
    for app, trace in evaluation.items():
        pseudonym_flows[app.value] = pseudonym.apply(trace).observable_flows
        or_flows[app.value] = scheme.apply(trace).observable_flows

    pseudonym_accuracy = pipeline.evaluate_flows(pseudonym_flows).mean_accuracy
    or_accuracy = pipeline.evaluate_flows(or_flows).mean_accuracy
    assert or_accuracy < pseudonym_accuracy - 10.0
