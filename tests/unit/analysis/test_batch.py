"""Tests for the vectorized batch featurization engine.

The batch engine must reproduce the legacy per-window path
(``sliding_windows`` → ``extract_features``) element-for-element; the
property tests below sweep randomized traces through both paths,
covering single-packet windows, empty directions, duplicate timestamps
and packets landing exactly on window edges.
"""

import numpy as np
import pytest

from repro.analysis.batch import (
    WindowCache,
    augment_direction_dropout,
    flow_feature_matrix,
)
from repro.defenses.base import DefendedTraffic
from repro.analysis.features import (
    direction_dropout_variants,
    features_from_windows,
)
from repro.analysis.windows import sliding_windows, window_traces
from repro.traffic.trace import Trace


def legacy_matrix(trace: Trace, window: float, min_packets: int) -> np.ndarray:
    """The reference oracle: per-window featurization, stacked."""
    features = features_from_windows(
        sliding_windows(trace, window, min_packets), window
    )
    return np.array([f.vector for f in features]).reshape(len(features), 12)


def assert_matches_legacy(trace: Trace, window: float, min_packets: int) -> None:
    reference = legacy_matrix(trace, window, min_packets)
    batch = flow_feature_matrix(trace, window, min_packets)
    assert batch.shape == reference.shape
    if len(reference):
        # Count/max/min features involve no accumulation and must match
        # bit-for-bit; mean/std/interarrival may differ by summation-order
        # ulps, bounded far below any classifier-visible scale.
        exact = [0, 1, 2, 6, 7, 8]
        assert np.array_equal(batch[:, exact], reference[:, exact])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)


def random_trace(rng: np.random.Generator, n: int, window: float) -> Trace:
    span = float(rng.uniform(1.0, 25 * window))
    times = np.sort(rng.uniform(0.0, span, n))
    if n > 3 and rng.random() < 0.5:
        # Pin a chunk of packets exactly onto window-edge multiples.
        k = int(rng.integers(1, n // 2))
        times[:k] = np.round(times[:k] / window) * window
        times = np.sort(times)
    sizes = rng.integers(1, 1577, n)
    directions = rng.choice([0, 1], n)
    return Trace.from_arrays(times, sizes, directions=directions, label="app")


class TestFlowFeatureMatrix:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("window", [0.7, 5.0, 60.0])
    def test_matches_legacy_on_random_traces(self, seed, window):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n = int(rng.integers(1, 300))
            min_packets = int(rng.integers(1, 4))
            assert_matches_legacy(random_trace(rng, n, window), window, min_packets)

    def test_single_packet_windows(self):
        trace = Trace.from_arrays([0.0, 7.0, 14.0], [100, 200, 300], directions=[0, 1, 0])
        assert_matches_legacy(trace, 5.0, 1)

    def test_empty_direction(self):
        trace = Trace.from_arrays(np.arange(20) * 0.5, np.full(20, 64), directions=np.zeros(20))
        assert_matches_legacy(trace, 5.0, 2)
        matrix = flow_feature_matrix(trace, 5.0, 2)
        # Uplink block carries the empty-direction encoding everywhere.
        assert np.all(matrix[:, 6:11] == 0.0)
        assert np.allclose(matrix[:, 11], np.log(5.0 + 1e-3))

    def test_packets_exactly_on_edges(self):
        # Every packet sits on a window boundary, including the final one.
        trace = Trace.from_arrays(np.arange(7) * 5.0, np.full(7, 700), directions=[0, 1] * 3 + [0])
        assert_matches_legacy(trace, 5.0, 1)

    def test_duplicate_timestamps(self):
        times = np.repeat([0.0, 2.0, 5.0, 5.0, 9.5], 3)
        trace = Trace.from_arrays(times, np.arange(1, 16), directions=[0, 1, 0] * 5)
        assert_matches_legacy(trace, 5.0, 1)

    def test_idle_gaps_beyond_cutoff(self):
        # W = 60 s > the 5 s idle cutoff: in-window gaps longer than 5 s
        # must be excluded from the interarrival mean.
        times = [0.0, 1.0, 20.0, 21.0, 55.0]
        trace = Trace.from_arrays(times, [10] * 5, directions=np.zeros(5))
        assert_matches_legacy(trace, 60.0, 1)

    def test_empty_trace(self):
        assert flow_feature_matrix(Trace.empty(), 5.0).shape == (0, 12)

    def test_min_packets_filter_matches_window_count(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, 200, 5.0)
        windows = sliding_windows(trace, 5.0, min_packets=3)
        assert len(flow_feature_matrix(trace, 5.0, min_packets=3)) == len(windows)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            flow_feature_matrix(Trace.empty(), 0.0)

    def test_rejects_infinite_window(self):
        # An inf window grid has edges [nan, inf]: zero windows, no error.
        trace = Trace.from_arrays([0.0, 1.0, 2.0], [10, 20, 30])
        with pytest.raises(ValueError, match="window must be finite, got inf"):
            flow_feature_matrix(trace, float("inf"))

    def test_rejects_bad_min_packets(self):
        with pytest.raises(ValueError):
            flow_feature_matrix(Trace.empty(), 5.0, min_packets=0)


class TestSeveralFlows:
    def test_rows_match_window_traces_in_flow_order(self):
        rng = np.random.default_rng(21)
        flows = [random_trace(rng, 120, 5.0) for _ in range(3)]
        stacked = np.concatenate([flow_feature_matrix(f, 5.0, 2) for f in flows])
        reference = np.concatenate([legacy_matrix(f, 5.0, 2) for f in flows])
        np.testing.assert_allclose(stacked, reference, rtol=1e-12, atol=1e-12)
        assert len(stacked) == len(window_traces(flows, 5.0, 2))


class TestAugmentDirectionDropout:
    def test_matches_reference_variants(self):
        rng = np.random.default_rng(31)
        trace = random_trace(rng, 250, 5.0)
        matrix = flow_feature_matrix(trace, 5.0, 2)
        features = features_from_windows(sliding_windows(trace, 5.0, 2), 5.0)
        reference = []
        for item in features:
            reference.extend(v.vector for v in direction_dropout_variants(item, 5.0))
        batch = augment_direction_dropout(matrix, 5.0)
        reference = np.array(reference).reshape(len(reference), 12)
        assert batch.shape == reference.shape
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)

    def test_empty_matrix(self):
        assert augment_direction_dropout(np.empty((0, 12)), 5.0).shape == (0, 12)


class TestWindowCache:
    def test_feature_matrix_cached_per_flow_and_window(self):
        rng = np.random.default_rng(41)
        cache = WindowCache()
        flow = random_trace(rng, 100, 5.0)
        first = cache.feature_matrix(flow, 5.0, 2)
        second = cache.feature_matrix(flow, 5.0, 2)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        cache.feature_matrix(flow, 60.0, 2)  # different window -> miss
        assert cache.misses == 2

    def test_window_key_normalizes_float_jitter(self):
        rng = np.random.default_rng(42)
        cache = WindowCache()
        flow = random_trace(rng, 100, 5.0)
        cache.feature_matrix(flow, 0.3, 2)
        assert cache.feature_matrix(flow, 0.1 + 0.2, 2) is cache.feature_matrix(flow, 0.3, 2)
        assert cache.misses == 1

    def test_defended_flows_builds_once(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        cache = WindowCache()
        calls = []

        def build():
            calls.append(1)
            return DefendedTraffic(original=trace, flows={0: trace}), None

        scheme = object()
        first, _ = cache.defended_flows(scheme, trace, build)
        second, _ = cache.defended_flows(scheme, trace, build)
        assert first is second
        assert first.observable_flows == [trace]
        assert len(calls) == 1
        # A different scheme re-reshapes.
        cache.defended_flows(object(), trace, build)
        assert len(calls) == 2

    def test_clear(self):
        cache = WindowCache()
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        cache.feature_matrix(trace, 5.0, 2)
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0)
        cache.feature_matrix(trace, 5.0, 2)
        assert cache.misses == 1
