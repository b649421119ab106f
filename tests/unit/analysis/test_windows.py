"""Tests for eavesdropping-window slicing."""

import numpy as np
import pytest

from oracles.windows import sliding_windows, window_traces
from repro.analysis.windows import (
    grid_edges,
    window_edges,
    window_index,
    window_indices,
    window_key,
)
from repro.traffic.trace import Trace


class TestSlidingWindows:
    def test_basic_slicing(self):
        trace = Trace.from_arrays(np.arange(10) * 1.0, np.full(10, 100))
        windows = sliding_windows(trace, window=5.0, min_packets=2)
        assert len(windows) == 2
        assert all(len(w) == 5 for w in windows)

    def test_windows_rebased_to_zero(self):
        trace = Trace.from_arrays([10.0, 11.0, 12.0], [1, 1, 1])
        [window] = sliding_windows(trace, window=5.0, min_packets=2)
        assert window.times[0] == pytest.approx(0.0)

    def test_sparse_windows_dropped(self):
        trace = Trace.from_arrays([0.0, 0.1, 7.0], [1, 1, 1])
        windows = sliding_windows(trace, window=5.0, min_packets=2)
        assert len(windows) == 1  # the lone packet at t=7 is unclassifiable

    def test_min_packets_threshold(self):
        trace = Trace.from_arrays([0.0, 1.0, 2.0], [1, 1, 1])
        assert len(sliding_windows(trace, 5.0, min_packets=4)) == 0

    def test_empty_trace(self):
        assert sliding_windows(Trace.empty(), 5.0) == []

    def test_label_propagates(self):
        trace = Trace.from_arrays([0.0, 1.0], [1, 1], label="bt")
        [window] = sliding_windows(trace, 5.0)
        assert window.label == "bt"

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            sliding_windows(Trace.empty(), 0.0)

    def test_packet_conservation(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 100, 500))
        trace = Trace.from_arrays(times, np.full(500, 10))
        windows = sliding_windows(trace, 5.0, min_packets=1)
        assert sum(len(w) for w in windows) == 500

    def test_non_time_columns_are_views(self):
        # The slicer no longer copies the five non-time columns per
        # window; slices alias the parent flow's storage.
        trace = Trace.from_arrays(np.arange(10) * 1.0, np.full(10, 100))
        [first, _] = sliding_windows(trace, 5.0, min_packets=2)
        assert np.shares_memory(first.sizes, trace.sizes)
        assert np.shares_memory(first.directions, trace.directions)

    def test_last_packet_on_exact_multiple_is_windowed(self):
        # Span exactly 2 W: the packet at t=10 belongs to a third window.
        trace = Trace.from_arrays([0.0, 1.0, 5.0, 6.0, 10.0], [1] * 5)
        windows = sliding_windows(trace, 5.0, min_packets=1)
        assert len(windows) == 3
        assert len(windows[-1]) == 1


class TestWindowEdges:
    def test_minimal_edge_count(self):
        # 0..9.x seconds at W=5 needs exactly 2 windows (3 edges) — the
        # old implementation allocated one always-empty trailing window.
        edges = window_edges(np.arange(10) * 1.0, 5.0)
        assert len(edges) == 3

    def test_exact_multiple_span(self):
        edges = window_edges(np.array([0.0, 10.0]), 5.0)
        assert len(edges) == 4  # packet at 10.0 needs the [10, 15) window

    def test_zero_span(self):
        edges = window_edges(np.array([3.0, 3.0]), 5.0)
        assert len(edges) == 2
        assert edges[0] == pytest.approx(3.0)

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError, match="at least one timestamp"):
            window_edges(np.array([]), 5.0)

    def test_large_exact_multiple_span_still_covered(self):
        # Regression: spans of ~2^13 W and beyond exceed what a fixed
        # 1e-12 epsilon on the edge-count division could represent; the
        # final packet at an exact multiple of W must stay inside the
        # last window regardless of magnitude.
        for multiple in (16384, 2**20):
            times = np.array([0.0, 0.5, multiple * 5.0 - 0.5, multiple * 5.0])
            edges = window_edges(times, 5.0)
            assert edges[-1] > times[-1]
            trace = Trace.from_arrays(times, [10, 20, 30, 40])
            windows = sliding_windows(trace, 5.0, min_packets=1)
            assert sum(len(w) for w in windows) == 4


class TestWindowIndices:
    """The column rule places every entry where the scalar rule does."""

    @pytest.mark.parametrize("window", [5.0, 0.30000000000000004, 0.7, 1e-3])
    def test_matches_window_index_on_and_off_edges(self, window):
        rng = np.random.default_rng(17)
        anchors = np.repeat(rng.uniform(0.0, 1e4, 40), 50)
        k = rng.integers(0, 3000, len(anchors))
        on_edge = anchors + k * window
        times = np.where(
            rng.random(len(anchors)) < 0.5,
            on_edge,
            np.nextafter(on_edge, rng.choice([-np.inf, np.inf], len(anchors))),
        )
        times = np.maximum(times, anchors)
        expected = [
            window_index(float(t), float(a), window) for t, a in zip(times, anchors)
        ]
        assert window_indices(times, anchors, window).tolist() == expected
        # A scalar anchor works the same.
        scalar = window_indices(times[:50], float(anchors[0]), window)
        assert scalar.tolist() == expected[:50]

    def test_edges_open_their_window(self):
        window = 0.30000000000000004
        edges = grid_edges(3.7, 0, 6, window)
        assert window_indices(edges, 3.7, window).tolist() == list(range(7))


class TestWindowKey:
    def test_float_jitter_normalized(self):
        assert window_key(0.1 + 0.2) == window_key(0.3)

    def test_distinct_windows_stay_distinct(self):
        assert window_key(5.0) != window_key(60.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            window_key(0.0)


class TestWindowTraces:
    def test_concatenates_across_flows(self):
        a = Trace.from_arrays(np.arange(10) * 1.0, np.full(10, 1))
        b = Trace.from_arrays(np.arange(6) * 1.0, np.full(6, 1))
        windows = window_traces([a, b], window=5.0, min_packets=2)
        # a yields two full windows; b yields one (its t=5 straggler is
        # below min_packets).
        assert len(windows) == 2 + 1
