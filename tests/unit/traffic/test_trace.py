"""Tests for the Trace container."""

import numpy as np
import pytest

from repro.traffic.packet import DOWNLINK, UPLINK, Packet
from repro.traffic.trace import Trace, concat_traces, merge_directions, merge_traces


class TestConstruction:
    def test_from_arrays_defaults(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        assert len(trace) == 2
        assert list(trace.directions) == [0, 0]
        assert list(trace.ifaces) == [0, 0]

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="sorted"):
            Trace.from_arrays([1.0, 0.0], [10, 20])

    def test_sort_flag_sorts(self):
        trace = Trace.from_arrays([1.0, 0.0], [10, 20], sort=True)
        assert list(trace.sizes) == [20, 10]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace.from_arrays([-1.0, 0.0], [10, 20])

    @pytest.mark.parametrize(
        "times",
        [[0.0, float("nan"), 2.0], [float("nan")], [0.0, 1.0, float("inf")],
         [float("inf")], [float("-inf"), 0.0]],
    )
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            Trace.from_arrays(times, [10] * len(times))

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="positive"):
            Trace.from_arrays([0.0], [0])

    def test_rejects_column_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Trace.from_arrays([0.0, 1.0], [10])

    def test_from_packets_sorts(self):
        packets = [Packet(time=2.0, size=5), Packet(time=1.0, size=7)]
        trace = Trace.from_packets(packets)
        assert list(trace.sizes) == [7, 5]

    def test_empty(self):
        trace = Trace.empty("x")
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.label == "x"


class TestAccessors:
    def test_packet_view_roundtrip(self, simple_trace):
        packet = simple_trace.packet(1)
        assert packet.time == 0.5
        assert packet.size == 1500
        assert packet.direction is DOWNLINK

    def test_iteration(self, simple_trace):
        packets = list(simple_trace)
        assert len(packets) == 8
        assert packets[2].direction is UPLINK

    def test_duration(self, simple_trace):
        assert simple_trace.duration == pytest.approx(3.5)

    def test_total_bytes(self, simple_trace):
        assert simple_trace.total_bytes == sum([100, 1500, 200, 1400, 300, 1300, 400, 1200])

    def test_bytes_in_direction(self, simple_trace):
        down = simple_trace.bytes_in_direction(DOWNLINK)
        up = simple_trace.bytes_in_direction(UPLINK)
        assert down + up == simple_trace.total_bytes
        assert down == 100 + 1500 + 300 + 1300


class TestTransforms:
    def test_direction_view(self, simple_trace):
        view = simple_trace.direction_view(UPLINK)
        assert len(view) == 4
        assert set(view.directions.tolist()) == {1}

    def test_select_requires_matching_mask(self, simple_trace):
        with pytest.raises(ValueError, match="mask"):
            simple_trace.select(np.ones(3, dtype=bool))

    def test_time_slice_half_open(self, simple_trace):
        piece = simple_trace.time_slice(0.5, 1.5)
        assert list(piece.times) == [0.5, 1.0]

    def test_time_slice_rejects_reversed(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.time_slice(2.0, 1.0)

    def test_with_ifaces_and_split(self, simple_trace):
        assigned = simple_trace.with_ifaces(np.array([0, 1, 0, 1, 2, 2, 0, 1]))
        flows = assigned.split_by_iface()
        assert sorted(flows) == [0, 1, 2]
        assert sum(len(f) for f in flows.values()) == len(simple_trace)

    def test_with_ifaces_length_check(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.with_ifaces(np.zeros(3, dtype=np.int16))

    def test_with_sizes(self, simple_trace):
        padded = simple_trace.with_sizes(np.full(8, 1576))
        assert padded.total_bytes == 8 * 1576
        assert simple_trace.sizes[0] == 100  # original untouched

    def test_with_label(self, simple_trace):
        assert simple_trace.with_label("other").label == "other"

    def test_shifted(self, simple_trace):
        shifted = simple_trace.shifted(10.0)
        assert shifted.times[0] == 10.0
        assert shifted.duration == simple_trace.duration

    def test_shift_below_zero_raises(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.shifted(-1.0)

    def test_iface_indices(self, simple_trace):
        assert simple_trace.iface_indices() == [0]


class TestSerialization:
    def test_jsonl_roundtrip(self, simple_trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        simple_trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert len(loaded) == len(simple_trace)
        assert np.array_equal(loaded.times, simple_trace.times)
        assert np.array_equal(loaded.sizes, simple_trace.sizes)
        assert np.array_equal(loaded.directions, simple_trace.directions)
        assert loaded.label == "test"

    def test_jsonl_preserves_rssi(self, tmp_path):
        trace = Trace.from_arrays([0.0], [10], rssi=[-55.5])
        path = str(tmp_path / "r.jsonl")
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.rssi[0] == pytest.approx(-55.5)


class TestCombinators:
    def test_merge_sorts_globally(self):
        a = Trace.from_arrays([0.0, 2.0], [1, 2])
        b = Trace.from_arrays([1.0, 3.0], [3, 4])
        merged = merge_traces([a, b])
        assert list(merged.sizes) == [1, 3, 2, 4]

    def test_merge_empty_list(self):
        assert len(merge_traces([])) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_merge_directions_equals_merge_traces(self, seed):
        rng = np.random.default_rng(seed)
        # Rounded times force ties between (and within) directions.
        down_times = np.sort(np.round(rng.uniform(0, 10, 40), 1))
        up_times = np.sort(np.round(rng.uniform(0, 10, int(rng.integers(0, 30))), 1))
        down_sizes = rng.integers(1, 1577, len(down_times))
        up_sizes = rng.integers(1, 1577, len(up_times))
        expected = merge_traces(
            [
                Trace.from_arrays(down_times, down_sizes, directions=np.full(40, 0), channels=np.full(40, 6)),
                Trace.from_arrays(up_times, up_sizes, directions=np.full(len(up_times), 1), channels=np.full(len(up_times), 6)),
            ],
            label="app",
        )
        down, up = [down_times, down_sizes], [up_times, up_sizes]
        merged = merge_directions(down, up, channel=6, label="app")
        assert down == [] and up == []
        for column in ("times", "sizes", "directions", "ifaces", "channels", "rssi"):
            got, want = getattr(merged, column), getattr(expected, column)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
        assert merged.label == "app"

    def test_merge_directions_validates_columns(self):
        with pytest.raises(ValueError, match="sorted"):
            merge_directions([np.array([1.0, 0.0]), np.array([5, 5])], [np.array([]), np.array([])])

    def test_concat_shifts_sequentially(self):
        a = Trace.from_arrays([0.0, 1.0], [1, 2])
        b = Trace.from_arrays([0.0, 1.0], [3, 4])
        joined = concat_traces([a, b], gap=0.5)
        assert joined.times[2] == pytest.approx(1.5)
        assert len(joined) == 4

    def test_concat_empty(self):
        assert len(concat_traces([])) == 0
