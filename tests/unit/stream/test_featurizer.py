"""Tests for the streaming featurizer: parity, lifecycle, memory bounds."""

from unittest import mock

import numpy as np
import pytest

from repro.analysis import batch
from repro.analysis.batch import flow_feature_matrix
from repro.stream import PacketEvent, PacketStream, StreamingFeaturizer
from repro.stream import featurizer as featurizer_module
from repro.stream.source import event_chunks
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.trace import Trace


def push(featurizer, flow, time, size, direction, label=None):
    """Ingest one packet as a one-packet chunk; the windows it closed."""
    (chunk,) = event_chunks([PacketEvent(time, size, direction, flow, label)])
    return featurizer.push_chunk(chunk)


def _stream_matrix(trace, window):
    """Stream a whole trace through the featurizer; rows of emitted windows."""
    featurizer = StreamingFeaturizer(window)
    closed = []
    for chunk in PacketStream.replay(trace, station="flow").chunks():
        closed.extend(featurizer.push_chunk(chunk))
    closed.extend(featurizer.flush())
    if not closed:
        return np.empty((0, 12)), closed, featurizer
    return np.vstack([w.features for w in closed]), closed, featurizer


class TestBatchParity:
    @pytest.mark.parametrize("app", [AppType.CHATTING, AppType.DOWNLOADING])
    @pytest.mark.parametrize("window", [5.0, 7.3])
    def test_bit_identical_to_batch_oracle(self, app, window):
        trace = TrafficGenerator(seed=11).generate(app, duration=90.0)
        ours, _, _ = _stream_matrix(trace, window)
        assert np.array_equal(ours, flow_feature_matrix(trace, window))

    def test_window_indices_follow_the_grid(self):
        trace = Trace.from_arrays([0.0, 1.0, 12.0, 13.0], [10, 20, 30, 40])
        _, closed, _ = _stream_matrix(trace, 5.0)
        assert [w.index for w in closed] == [0, 2]
        assert [w.start for w in closed] == [0.0, 10.0]
        assert [w.count for w in closed] == [2, 2]

    def test_grid_anchors_at_first_packet(self):
        base = Trace.from_arrays([0.0, 1.0, 6.0, 6.5], [10, 20, 30, 40])
        shifted = base.shifted(3.7)
        ours, closed, _ = _stream_matrix(shifted, 5.0)
        assert len(closed) == 2
        assert np.array_equal(ours, flow_feature_matrix(shifted, 5.0))
        assert closed[0].start == pytest.approx(3.7)

    def test_packet_on_the_edge_opens_the_next_window(self):
        trace = Trace.from_arrays([0.0, 1.0, 5.0, 6.0], [10, 20, 30, 40])
        _, closed, _ = _stream_matrix(trace, 5.0)
        assert [w.index for w in closed] == [0, 1]
        assert np.array_equal(
            np.vstack([w.features for w in closed]),
            flow_feature_matrix(trace, 5.0),
        )


class TestLifecycle:
    def test_below_min_packets_windows_are_dropped(self):
        trace = Trace.from_arrays([0.0, 7.0, 8.0], [10, 20, 30])
        _, closed, _ = _stream_matrix(trace, 5.0)
        assert [w.index for w in closed] == [1]

    def test_single_packet_flow(self):
        trace = Trace.from_arrays([0.5], [100])
        ours, closed, _ = _stream_matrix(trace, 5.0)
        assert len(closed) == 0 and ours.shape == (0, 12)
        assert flow_feature_matrix(trace, 5.0).shape == (0, 12)

    def test_no_events_no_windows(self):
        featurizer = StreamingFeaturizer(5.0)
        assert featurizer.flush() == []
        assert featurizer.open_flows == 0

    def test_flush_forgets_the_flow(self):
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "f", 0.0, 10, 0)
        push(featurizer, "f", 0.5, 10, 0)
        featurizer.flush("f")
        assert featurizer.open_flows == 0
        # A later packet on the same key starts a fresh grid at its time.
        closed = push(featurizer, "f", 100.0, 10, 0)
        closed += push(featurizer, "f", 100.5, 10, 0)
        assert closed == []
        (window,) = featurizer.flush("f")
        assert window.start == 100.0 and window.index == 0

    def test_out_of_order_within_flow_raises(self):
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "f", 1.0, 10, 0)
        with pytest.raises(ValueError, match="backwards"):
            push(featurizer, "f", 0.5, 10, 0)

    def test_label_tracks_most_recent_packet(self):
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "f", 0.0, 10, 0, label="browsing")
        push(featurizer, "f", 1.0, 10, 0, label="gaming")
        (window,) = featurizer.flush()
        assert window.label == "gaming"

    def test_label_never_leaks_into_the_next_window(self):
        """An all-unlabeled window reports None even after a labeled one."""
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "f", 0.0, 10, 0, label="browsing")
        push(featurizer, "f", 0.5, 10, 0, label="browsing")
        (labeled,) = push(featurizer, "f", 6.0, 10, 0, label=None)
        assert labeled.label == "browsing"
        push(featurizer, "f", 6.5, 10, 0, label=None)
        (unlabeled,) = featurizer.flush()
        assert unlabeled.label is None

    def test_infinite_window_raises_naming_the_window(self):
        # An inf window would put every packet on a [nan, inf] grid and
        # close no window at all.
        with pytest.raises(ValueError, match="window must be finite, got inf"):
            StreamingFeaturizer(float("inf"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_first_time_raises_naming_the_flow(self, bad):
        featurizer = StreamingFeaturizer(5.0)
        with pytest.raises(ValueError, match=r"flow 'f' has a non-finite packet time"):
            push(featurizer, "f", bad, 10, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_later_time_raises_naming_the_flow(self, bad):
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "f", 1.0, 10, 0)
        with pytest.raises(ValueError, match=r"flow 'f' has a non-finite packet time: (nan|inf)"):
            push(featurizer, "f", bad, 10, 0)

    @pytest.mark.parametrize(
        "times, message",
        [
            ([1.0, float("nan"), 0.5], r"flow 'f' has a non-finite packet time: nan"),
            ([1.0, float("inf")], r"flow 'f' has a non-finite packet time: inf"),
            ([1.0, 2.0, 0.5], r"flow 'f' went backwards in time: 0.5 after 2.0"),
        ],
    )
    def test_chunk_route_rejects_bad_times_naming_the_flow(self, times, message):
        events = [PacketEvent(t, 10, 0, "f", None) for t in times]
        featurizer = StreamingFeaturizer(5.0)
        with pytest.raises(ValueError, match=message):
            for chunk in event_chunks(events):
                featurizer.push_chunk(chunk)

    def test_chunk_route_rejects_a_step_back_across_chunks(self):
        featurizer = StreamingFeaturizer(5.0)
        (chunk,) = event_chunks([PacketEvent(2.0, 10, 0, "f", None)])
        featurizer.push_chunk(chunk)
        (chunk,) = event_chunks([PacketEvent(1.0, 10, 0, "f", None)])
        with pytest.raises(ValueError, match=r"flow 'f' went backwards in time: 1.0 after 2.0"):
            featurizer.push_chunk(chunk)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingFeaturizer(0.0)
        with pytest.raises(ValueError):
            StreamingFeaturizer(float("nan"))


class TestDirections:
    """Stream and batch count exactly the same packets toward the minimum."""

    def test_out_of_range_directions_are_not_counted(self):
        trace = Trace.from_arrays([0, 1, 2], [100] * 3, [0, 2, 2])
        ours, closed, featurizer = _stream_matrix(trace, 5.0)
        assert closed == [] and ours.shape == (0, 12)
        assert flow_feature_matrix(trace, 5.0).shape == (0, 12)
        assert featurizer.peak_open_packets == 1

    def test_window_counts_only_downlink_and_uplink(self):
        trace = Trace.from_arrays([0, 1, 2, 3], [100] * 4, [0, 2, 1, -1])
        ours, closed, _ = _stream_matrix(trace, 5.0)
        assert [w.count for w in closed] == [2]
        assert np.array_equal(ours, flow_feature_matrix(trace, 5.0))


class TestConcurrentFlows:
    def test_flows_are_windowed_independently(self):
        a = TrafficGenerator(seed=1).generate(AppType.BROWSING, duration=40.0)
        b = TrafficGenerator(seed=2).generate(AppType.VIDEO, duration=40.0)
        featurizer = StreamingFeaturizer(5.0)
        merged = PacketStream.merge(
            [PacketStream.replay(a, "a"), PacketStream.replay(b, "b")]
        )
        closed = []
        for chunk in merged.chunks():
            closed.extend(featurizer.push_chunk(chunk))
        closed.extend(featurizer.flush())
        for flow, trace in (("a", a), ("b", b)):
            ours = np.vstack([w.features for w in closed if w.flow == flow])
            assert np.array_equal(ours, flow_feature_matrix(trace, 5.0))

    def test_flush_order_is_first_seen(self):
        featurizer = StreamingFeaturizer(5.0)
        push(featurizer, "b", 0.0, 10, 0)
        push(featurizer, "a", 0.1, 10, 0)
        push(featurizer, "b", 0.2, 10, 0)
        push(featurizer, "a", 0.3, 10, 0)
        assert [w.flow for w in featurizer.flush()] == ["b", "a"]


class TestOneKernelPass:
    """A chunk's closes, for every station, go through one kernel call."""

    def test_many_stations_close_in_one_kernel_call(self):
        stations = 60
        rng = np.random.default_rng(5)
        events = sorted(
            (
                PacketEvent(float(t), int(z), int(d), f"sta{s}", "app")
                for s in range(stations)
                for t, z, d in zip(
                    np.sort(rng.uniform(0.0, 30.0, 40)),
                    rng.integers(40, 1500, 40),
                    rng.choice([0, 1], 40),
                )
            ),
            key=lambda event: event.time,
        )
        (chunk,) = event_chunks(events)
        featurizer = StreamingFeaturizer(5.0)
        with mock.patch.object(
            featurizer_module, "_window_block", wraps=batch._window_block
        ) as stacked, mock.patch.object(
            batch, "_direction_block", wraps=batch._direction_block
        ) as core, mock.patch.object(
            featurizer_module, "_grid_block", wraps=batch._grid_block
        ) as per_window:
            closed = featurizer.push_chunk(chunk)
        assert len({window.flow for window in closed}) == stations
        assert stacked.call_count == 1
        assert core.call_count == 2  # downlink, uplink
        assert per_window.call_count == 0
        closed += featurizer.flush()
        for s in range(stations):
            trace = Trace.from_arrays(
                [e.time for e in events if e.station == f"sta{s}"],
                [e.size for e in events if e.station == f"sta{s}"],
                [e.direction for e in events if e.station == f"sta{s}"],
            )
            ours = np.vstack([w.features for w in closed if w.flow == f"sta{s}"])
            assert np.array_equal(ours, flow_feature_matrix(trace, 5.0))


class TestMemoryBounds:
    def test_state_is_bounded_by_open_windows_not_trace_length(self):
        """The O(open windows) guarantee the benchmarks assert at scale."""
        trace = TrafficGenerator(seed=3).generate(AppType.DOWNLOADING, duration=120.0)
        featurizer = StreamingFeaturizer(5.0)
        for chunk in PacketStream.replay(trace, "f").chunks():
            featurizer.push_chunk(chunk)
        featurizer.flush()
        edges_counts = np.diff(
            np.searchsorted(trace.times, np.arange(0.0, 125.0, 5.0))
        )
        assert featurizer.peak_open_packets <= edges_counts.max() + 1
        assert featurizer.peak_open_packets < len(trace) / 4
        assert featurizer.open_packets == 0  # everything released

    def test_counters_track_emissions(self):
        trace = TrafficGenerator(seed=4).generate(AppType.CHATTING, duration=60.0)
        featurizer = StreamingFeaturizer(5.0)
        emitted = 0
        for chunk in PacketStream.replay(trace, "f").chunks():
            emitted += len(featurizer.push_chunk(chunk))
        emitted += len(featurizer.flush())
        assert featurizer.windows_emitted == emitted
        assert featurizer.peak_open_flows == 1
