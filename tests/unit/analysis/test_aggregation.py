"""Tests for the flow-aggregation counter-attack."""

import numpy as np
import pytest

from repro.analysis.aggregation import AggregationAttack
from repro.analysis.attack import AttackPipeline
from repro.analysis.linking import RssiLinker
from repro.core.base import ReshaperScheme
from repro.core.schedulers import OrthogonalReshaper
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def pipeline():
    generator = TrafficGenerator(seed=61)
    training = {
        app.value: [generator.generate(app, 90.0, session=s) for s in range(2)]
        for app in AppType
    }
    pipe = AttackPipeline(window=5.0, seed=61)
    pipe.train(training)
    return pipe


@pytest.fixture(scope="module")
def or_flows():
    generator = TrafficGenerator(seed=62)
    scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
    flows = {}
    for app in (AppType.BITTORRENT, AppType.VIDEO, AppType.BROWSING):
        trace = generator.generate(app, 90.0, session=9)
        flows[app.value] = scheme.apply(trace).observable_flows
    return flows


class TestOracleAggregation:
    def test_merging_recovers_accuracy(self, pipeline, or_flows):
        # The oracle adversary (perfect linking) merges each app's
        # interfaces back together — recovering the original traffic and
        # thus the undefended accuracy.
        attack = AggregationAttack(pipeline, linker=None)
        outcome = attack.evaluate(or_flows)
        assert outcome.merged_report.mean_accuracy > outcome.split_report.mean_accuracy
        assert outcome.accuracy_recovered > 20.0

    def test_merged_flow_is_the_original_traffic(self, pipeline):
        generator = TrafficGenerator(seed=63)
        trace = generator.generate(AppType.BITTORRENT, 60.0)
        flows = ReshaperScheme("or", OrthogonalReshaper.paper_default()).apply(trace)
        attack = AggregationAttack(pipeline, linker=None)
        [merged] = attack.merge_flows(flows.observable_flows)
        assert len(merged) == len(trace)
        assert merged.total_bytes == trace.total_bytes
        assert np.allclose(np.sort(merged.times), trace.times)

    def test_groups_counted(self, pipeline, or_flows):
        attack = AggregationAttack(pipeline, linker=None)
        outcome = attack.evaluate(or_flows)
        assert outcome.groups_formed == len(or_flows)


class TestLinkerAggregation:
    def test_rssi_linker_merging(self, pipeline):
        # Flows with matching RSSI merge; others stay split.
        linker = RssiLinker(threshold_db=3.0)
        attack = AggregationAttack(pipeline, linker=linker)
        generator = TrafficGenerator(seed=64)
        trace = generator.generate(AppType.BITTORRENT, 60.0)
        flows = ReshaperScheme("or", OrthogonalReshaper.paper_default()).apply(trace)
        # Give all flows the same synthetic uplink RSSI.
        tagged = []
        for flow in flows.observable_flows:
            rssi = np.where(flow.directions == 1, -50.0, np.nan).astype(np.float32)
            flow = flow.with_label("bittorrent")
            flow.rssi = rssi
            tagged.append(flow)
        merged = attack.merge_flows(tagged)
        linked_sizes = sorted(len(m) for m in merged)
        # Flows with uplink RSSI merge into one group; any downlink-only
        # flow (NaN signature) stays a singleton.
        assert linked_sizes[-1] > max(len(f) for f in tagged) / 2

    def test_requires_trained_pipeline(self):
        with pytest.raises(ValueError):
            AggregationAttack(AttackPipeline(window=5.0), linker=None)

    def test_empty_flows(self, pipeline):
        attack = AggregationAttack(pipeline, linker=None)
        assert attack.merge_flows([]) == []
