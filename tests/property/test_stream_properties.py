"""Property tests: streaming featurization is bit-identical to batch.

The streaming engine's parity contract, fuzzed: for arbitrary flows
(jittered window offsets, empty and single-packet flows, equal
timestamps, directions outside {0, 1}, arbitrary windows) every vector a
:class:`~repro.stream.featurizer.StreamingFeaturizer` emits equals the
matching row of :func:`~repro.analysis.batch.flow_feature_matrix`
**exactly** — ``np.array_equal``, not allclose — and a merged
multi-station capture featurizes each station as if it streamed alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import flow_feature_matrix
from repro.stream import PacketStream, StreamingFeaturizer
from repro.traffic.trace import Trace


@st.composite
def flows(draw, min_packets=0, max_packets=120):
    """Arbitrary valid flows, including empty and single-packet ones."""
    n = draw(st.integers(min_value=min_packets, max_value=max_packets))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=1576), min_size=n, max_size=n)
    )
    # Mostly downlink/uplink, plus directions outside {0, 1}, which both
    # paths must ignore alike (neither featurized nor counted).
    directions = draw(
        st.lists(st.sampled_from([0, 1, 0, 1, 2, -1]), min_size=n, max_size=n)
    )
    # Jitter the flow's absolute start so window grids anchor at awkward
    # floats, not at zero.
    offset = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    times = offset + np.cumsum(np.asarray(gaps))
    return Trace.from_arrays(times, sizes, directions)


#: Windows with deliberately non-representable values (0.1 + 0.2 style).
windows = st.one_of(
    st.sampled_from([5.0, 60.0, 0.30000000000000004, 7.3, 0.7]),
    st.floats(min_value=0.05, max_value=30.0, allow_nan=False),
)


def _stream_rows(trace, window, flow="f"):
    featurizer = StreamingFeaturizer(window)
    closed = []
    for chunk in PacketStream.replay(trace, station=flow).chunks():
        closed.extend(featurizer.push_chunk(chunk))
    closed.extend(featurizer.flush())
    if not closed:
        return np.empty((0, 12), dtype=np.float64)
    return np.vstack([w.features for w in closed])


@given(trace=flows(), window=windows)
@settings(max_examples=120, deadline=None)
def test_streaming_matches_batch_bit_for_bit(trace, window):
    reference = flow_feature_matrix(trace, window)
    ours = _stream_rows(trace, window)
    assert ours.shape == reference.shape
    assert np.array_equal(ours, reference)


@given(
    traces=st.lists(flows(min_packets=1), min_size=2, max_size=5),
    window=windows,
)
@settings(max_examples=60, deadline=None)
def test_merged_stations_featurize_independently(traces, window):
    """A k-way merged capture yields each station's exact batch matrix."""
    streams = [
        PacketStream.replay(trace, station=f"s{index}")
        for index, trace in enumerate(traces)
    ]
    featurizer = StreamingFeaturizer(window)
    closed = []
    for chunk in PacketStream.merge(streams).chunks():
        closed.extend(featurizer.push_chunk(chunk))
    closed.extend(featurizer.flush())
    for index, trace in enumerate(traces):
        reference = flow_feature_matrix(trace, window)
        rows = [w.features for w in closed if w.flow == f"s{index}"]
        ours = (
            np.vstack(rows) if rows else np.empty((0, 12), dtype=np.float64)
        )
        assert np.array_equal(ours, reference)


@given(trace=flows(min_packets=1), window=windows)
@settings(max_examples=60, deadline=None)
def test_memory_stays_bounded_by_the_densest_window(trace, window):
    """Buffered packets never exceed one window's occupancy per flow."""
    featurizer = StreamingFeaturizer(window)
    for chunk in PacketStream.replay(trace, station="f").chunks():
        featurizer.push_chunk(chunk)
    from repro.analysis.windows import window_edges

    densest = int(
        np.diff(np.searchsorted(trace.times, window_edges(trace.times, window))).max()
    )
    assert featurizer.peak_open_packets <= densest
    featurizer.flush()
    assert featurizer.open_packets == 0
