"""Tests for the ReshaperScheme adapter (a scheduler as a defense scheme)."""

import numpy as np
import pytest

from repro.core.base import CONFIG_MESSAGE_BYTES, ReshaperScheme
from repro.core.schedulers import OrthogonalReshaper, RoundRobinReshaper
from repro.traffic.trace import Trace


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    sizes = rng.choice([150, 700, 1570], size=300)
    return Trace.from_arrays(np.arange(300) * 0.02, sizes, label="bt")


def _or_scheme() -> ReshaperScheme:
    return ReshaperScheme("or", OrthogonalReshaper.paper_default())


class _DroppingReshaper(OrthogonalReshaper):
    """A broken scheduler whose reshape loses the last packet."""

    def reshape(self, trace: Trace) -> Trace:
        return super().reshape(trace).select(np.arange(len(trace)) < len(trace) - 1)


class TestApply:
    def test_flows_partition_the_trace(self, trace):
        result = _or_scheme().apply(trace)
        assert sum(len(f) for f in result.flows.values()) == len(trace)
        assert len(result.flows) == 3

    def test_zero_data_overhead(self, trace):
        # Sec. V-B: reshaping adds no noise traffic.
        result = _or_scheme().apply(trace)
        assert result.extra_bytes == 0
        assert result.defended_bytes == trace.total_bytes

    def test_config_overhead_is_two_messages(self, trace):
        assert CONFIG_MESSAGE_BYTES == 196
        result = _or_scheme().apply(trace)
        assert result.handshake_bytes == 2 * 196
        assert result.stages[0].handshake_bytes == 2 * 196

    def test_observable_flows_order(self, trace):
        result = _or_scheme().apply(trace)
        flows = result.observable_flows
        assert len(flows) == len(result.flows)
        assert [set(flow.ifaces) for flow in flows] == [{0}, {1}, {2}]

    def test_scheduler_resets_between_traces(self, trace):
        scheme = ReshaperScheme("rr", RoundRobinReshaper(interfaces=3))
        first = scheme.apply(trace).observable_flows
        second = scheme.apply(trace).observable_flows
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a.times, b.times)

    def test_partition_is_verified(self, trace):
        scheme = ReshaperScheme("broken", _DroppingReshaper.paper_default())
        with pytest.raises(AssertionError, match="packet count changed"):
            scheme.apply(trace)
