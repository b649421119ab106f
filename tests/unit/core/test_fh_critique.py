"""The paper's critique of frequency hopping, verified (Sec. II-B).

"If the adversary accumulates the traffic traces in discrete time
intervals, it is as if the adversary is monitoring all traffic in a
smaller time scale" — i.e., a channel slice of an FH-partitioned flow
preserves the original size features, which is why FH barely reduces
classification accuracy (Tables II/III).
"""

import numpy as np
import pytest

from repro.core.base import ReshaperScheme
from repro.core.schedulers import FrequencyHoppingScheduler, OrthogonalReshaper
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def bt():
    return TrafficGenerator(seed=91).generate(AppType.BITTORRENT, 90.0)


def test_fh_slices_keep_the_original_size_profile(bt):
    scheme = ReshaperScheme("fh", FrequencyHoppingScheduler())
    result = scheme.apply(bt)
    original_mean = bt.sizes.mean()
    original_std = bt.sizes.std()
    for flow in result.flows.values():
        if len(flow) < 100:
            continue
        # "The main feature, 'average packet size,' is almost unchanged."
        assert flow.sizes.mean() == pytest.approx(original_mean, rel=0.1)
        assert flow.sizes.std() == pytest.approx(original_std, rel=0.2)


def test_or_interfaces_break_the_size_profile(bt):
    # The contrast: OR's per-interface means differ wildly from the original.
    scheme = ReshaperScheme("or", OrthogonalReshaper.paper_default())
    result = scheme.apply(bt)
    original_mean = bt.sizes.mean()
    deviations = [
        abs(flow.sizes.mean() - original_mean)
        for flow in result.flows.values()
        if len(flow) >= 100
    ]
    assert min(deviations) > 0.2 * original_mean


def test_fh_slices_cover_all_channels(bt):
    scheduler = FrequencyHoppingScheduler()
    reshaped = scheduler.reshape(bt)
    assert set(np.unique(reshaped.channels)) == {1, 6, 11}


def test_fh_dwell_bounds_slice_contiguity(bt):
    # Each captured slice lives inside its 500 ms dwell windows: the gap
    # between consecutive packets of one slot is either < dwell or
    # >= 2 * dwell (the off-channel period).
    scheduler = FrequencyHoppingScheduler(dwell=0.5)
    reshaped = scheduler.reshape(bt)
    slot0 = reshaped.iface_view(0)
    gaps = np.diff(slot0.times)
    in_dwell = gaps < 0.5
    off_channel = gaps >= 1.0 - 1e-9
    assert np.all(in_dwell | off_channel)
