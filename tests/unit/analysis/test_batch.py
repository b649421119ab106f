"""Tests for the vectorized batch featurization engine.

The batch engine must reproduce the per-window oracle
(``tests/oracles/windows.py``: ``sliding_windows`` →
``extract_features``) element-for-element; the tests below sweep
randomized traces through both paths, covering single-packet
directions, empty directions, duplicate timestamps and packets landing
exactly on window edges.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.analysis import batch
from repro.analysis.batch import (
    WindowCache,
    augment_direction_dropout,
    flow_feature_matrix,
)
from oracles.windows import (
    direction_dropout_variants,
    features_from_windows,
    sliding_windows,
    window_feature_matrix,
    window_traces,
)
from repro.analysis.windows import grid_edges
from repro.defenses.base import FusedPlan
from repro.traffic.trace import Trace


def assert_matches_legacy(trace: Trace, window: float) -> None:
    reference = window_feature_matrix(trace, window)
    batch = flow_feature_matrix(trace, window)
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
            assert_matches_legacy(random_trace(rng, n, window), window)

    def test_single_packet_directions(self):
        # One packet per direction per window: no interarrival gap at
        # all; the lone packet at 20 s falls under the filter.
        trace = Trace.from_arrays(
            [0.0, 1.0, 7.0, 8.0, 14.0, 14.5, 20.0],
            [100, 200, 300, 400, 500, 600, 700],
            directions=[0, 1, 1, 0, 0, 1, 0],
        )
        assert_matches_legacy(trace, 5.0)
        assert len(flow_feature_matrix(trace, 5.0)) == 3

    def test_empty_direction(self):
        trace = Trace.from_arrays(np.arange(20) * 0.5, np.full(20, 64), directions=np.zeros(20))
        assert_matches_legacy(trace, 5.0)
        matrix = flow_feature_matrix(trace, 5.0)
        # Uplink block carries the empty-direction encoding everywhere.
        assert np.all(matrix[:, 6:11] == 0.0)
        assert np.allclose(matrix[:, 11], np.log(5.0 + 1e-3))

    def test_packets_exactly_on_edges(self):
        # Every packet sits on a window boundary, including the final two.
        trace = Trace.from_arrays(
            np.repeat(np.arange(7) * 5.0, 2), np.full(14, 700), directions=[0, 1] * 7
        )
        assert_matches_legacy(trace, 5.0)
        assert len(flow_feature_matrix(trace, 5.0)) == 7

    def test_duplicate_timestamps(self):
        times = np.repeat([0.0, 2.0, 5.0, 5.0, 9.5], 3)
        trace = Trace.from_arrays(times, np.arange(1, 16), directions=[0, 1, 0] * 5)
        assert_matches_legacy(trace, 5.0)

    def test_idle_gaps_beyond_cutoff(self):
        # W = 60 s > the 5 s idle cutoff: in-window gaps longer than 5 s
        # must be excluded from the interarrival mean.
        times = [0.0, 1.0, 20.0, 21.0, 55.0]
        trace = Trace.from_arrays(times, [10] * 5, directions=np.zeros(5))
        assert_matches_legacy(trace, 60.0)

    def test_empty_trace(self):
        assert flow_feature_matrix(Trace.empty(), 5.0).shape == (0, 12)

    def test_min_packets_filter_matches_window_count(self):
        # Windows 1 and 4 hold one packet each and are dropped.
        trace = Trace.from_arrays(
            [0.0, 1.0, 7.0, 12.0, 13.0, 21.0], np.full(6, 100), directions=[0, 1] * 3
        )
        assert_matches_legacy(trace, 5.0)
        assert len(flow_feature_matrix(trace, 5.0)) == len(sliding_windows(trace, 5.0)) == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            flow_feature_matrix(Trace.empty(), 0.0)

    def test_rejects_infinite_window(self):
        # An inf window grid has edges [nan, inf]: zero windows, no error.
        trace = Trace.from_arrays([0.0, 1.0, 2.0], [10, 20, 30])
        with pytest.raises(ValueError, match="window must be finite, got inf"):
            flow_feature_matrix(trace, float("inf"))


class TestBlockRuns:
    """Reducing a direction in runs of windows changes no feature bit."""

    @pytest.mark.parametrize("packets", [1, 2, 7, 64])
    @pytest.mark.parametrize("window", [0.7, 5.0, 60.0])
    def test_runs_match_one_pass(self, packets, window):
        rng = np.random.default_rng(packets)
        for _ in range(6):
            trace = random_trace(rng, int(rng.integers(1, 400)), window)
            whole = flow_feature_matrix(trace, window)
            with mock.patch.object(batch, "_BLOCK_PACKETS", packets):
                runs = flow_feature_matrix(trace, window)
            assert np.array_equal(runs, whole)

    def test_window_larger_than_a_run(self):
        # One window holds more packets than a run: it is reduced whole.
        trace = Trace.from_arrays(np.linspace(0.0, 4.9, 50), np.arange(1, 51))
        whole = flow_feature_matrix(trace, 5.0)
        with mock.patch.object(batch, "_BLOCK_PACKETS", 8):
            assert np.array_equal(flow_feature_matrix(trace, 5.0), whole)


def stacked_inputs(jobs):
    """One stacked kernel call's inputs from ``(edges, by_direction)`` jobs.

    Each job's windows follow the previous job's; per direction, its
    packets follow the previous job's packets and its bounds are shifted
    by their count.  Every packet lies on its job's grid.
    """
    lefts = np.concatenate([edges[:-1] for edges, _ in jobs])
    by_direction = []
    for d in (0, 1):
        bounds, offset = [0], 0
        for edges, directions in jobs:
            located = np.searchsorted(directions[d][0], edges)
            assert located[0] == 0 and located[-1] == len(directions[d][0])
            bounds.extend((located[1:] + offset).tolist())
            offset += len(directions[d][0])
        by_direction.append(
            (
                np.concatenate([directions[d][0] for _, directions in jobs]),
                np.concatenate([directions[d][1] for _, directions in jobs]),
                np.array(bounds),
            )
        )
    return lefts, by_direction


def grid_job(rng, window, first, stop, n, on_edges=False, silent=(), directions=(0, 1)):
    """A job on windows ``first .. stop - 1`` of a random anchor's grid."""
    edges = grid_edges(float(rng.uniform(0.0, 100.0)), first, stop, window)
    k = rng.integers(first, stop, n)
    k = k[~np.isin(k, silent)]
    times = edges[k - first] + rng.uniform(0.0, window, len(k))
    if on_edges:
        times[: len(times) // 3] = edges[k[: len(times) // 3] - first]
    times = np.minimum(times, np.nextafter(edges[k - first + 1], -np.inf))
    times = np.sort(times)
    chosen = rng.choice(directions, len(times))
    sizes = rng.integers(1, 1577, len(times))
    return edges, [(times[chosen == d], sizes[chosen == d]) for d in (0, 1)]


class TestStackedKernel:
    """One stacked kernel call equals one ``_grid_block`` call per job."""

    def assert_stacked_equals_per_job(self, jobs, window):
        lefts, by_direction = stacked_inputs(jobs)
        rows, totals = batch._window_block(lefts, by_direction, window)
        per_job = [batch._grid_block(edges, dirs, window) for edges, dirs in jobs]
        assert np.array_equal(rows, np.concatenate([r for r, _ in per_job]))
        assert np.array_equal(totals, np.concatenate([t for _, t in per_job]))

    @pytest.mark.parametrize("window", [0.7, 5.0, 60.0])
    def test_random_jobs(self, window):
        rng = np.random.default_rng(int(window * 10))
        for _ in range(5):
            jobs = []
            for _ in range(int(rng.integers(1, 12))):
                first = int(rng.integers(0, 50))
                stop = first + int(rng.integers(1, 8))
                n = int(rng.integers(1, 300))
                jobs.append(grid_job(rng, window, first, stop, n))
            self.assert_stacked_equals_per_job(jobs, window)

    def test_an_empty_direction(self):
        rng = np.random.default_rng(1)
        jobs = [
            grid_job(rng, 5.0, 0, 4, 80, directions=(0,)),
            grid_job(rng, 5.0, 3, 6, 80),
            grid_job(rng, 5.0, 7, 9, 80, directions=(1,)),
        ]
        self.assert_stacked_equals_per_job(jobs, 5.0)
        # No job has uplink packets at all.
        downlink_only = [
            grid_job(rng, 5.0, 0, 3, 50, directions=(0,)) for _ in range(3)
        ]
        self.assert_stacked_equals_per_job(downlink_only, 5.0)

    def test_silent_windows(self):
        rng = np.random.default_rng(2)
        jobs = [
            grid_job(rng, 5.0, 0, 6, 120, silent=(1, 2, 4)),
            grid_job(rng, 5.0, 10, 13, 60, silent=(11,)),
            grid_job(rng, 5.0, 0, 2, 0),  # both windows silent
            grid_job(rng, 5.0, 2, 5, 60, silent=(2,)),
        ]
        self.assert_stacked_equals_per_job(jobs, 5.0)

    def test_single_window_jobs(self):
        rng = np.random.default_rng(3)
        jobs = [
            grid_job(rng, 2.5, k, k + 1, int(rng.integers(1, 40))) for k in range(20)
        ]
        self.assert_stacked_equals_per_job(jobs, 2.5)

    def test_packets_exactly_on_edges(self):
        rng = np.random.default_rng(4)
        window = 0.30000000000000004
        jobs = [grid_job(rng, window, 0, 9, 200, on_edges=True) for _ in range(4)]
        assert any(
            np.isin(edges, dirs[0][0]).any() or np.isin(edges, dirs[1][0]).any()
            for edges, dirs in jobs
        )
        self.assert_stacked_equals_per_job(jobs, window)

    @pytest.mark.parametrize("packets", [1, 3, 16])
    def test_stacked_packets_beyond_a_block(self, packets):
        rng = np.random.default_rng(packets)
        jobs = [grid_job(rng, 5.0, 0, 5, 100) for _ in range(6)]
        with mock.patch.object(batch, "_BLOCK_PACKETS", packets):
            assert sum(len(t) for t, _, _ in stacked_inputs(jobs)[1]) > packets
            self.assert_stacked_equals_per_job(jobs, 5.0)


class TestSeveralFlows:
    def test_rows_match_window_traces_in_flow_order(self):
        rng = np.random.default_rng(21)
        flows = [random_trace(rng, 120, 5.0) for _ in range(3)]
        stacked = np.concatenate([flow_feature_matrix(f, 5.0) for f in flows])
        reference = np.concatenate([window_feature_matrix(f, 5.0) for f in flows])
        np.testing.assert_allclose(stacked, reference, rtol=1e-12, atol=1e-12)
        assert len(stacked) == len(window_traces(flows, 5.0))


class TestAugmentDirectionDropout:
    def test_matches_reference_variants(self):
        rng = np.random.default_rng(31)
        trace = random_trace(rng, 250, 5.0)
        matrix = flow_feature_matrix(trace, 5.0)
        features = features_from_windows(sliding_windows(trace, 5.0), 5.0)
        reference = []
        for item in features:
            reference.extend(v.vector for v in direction_dropout_variants(item, 5.0))
        batch = augment_direction_dropout(matrix, 5.0)
        reference = np.array(reference).reshape(len(reference), 12)
        assert batch.shape == reference.shape
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)

    def test_empty_matrix(self):
        assert augment_direction_dropout(np.empty((0, 12)), 5.0).shape == (0, 12)


class _Source:
    """A weak-referenceable stand-in for a scheme object."""


def _matrices(cache, source, flow, window, calls=None):
    """``flow``'s matrix list at ``window``, memoized under ``source``."""

    def build():
        if calls is not None:
            calls.append(window)
        return [flow_feature_matrix(flow, window)], None

    return cache.flow_matrices(source, flow, window, build)[0]


def _identity_plan(trace):
    return FusedPlan.from_assignments(np.zeros(len(trace), dtype=np.int64), n_flows=1)


def _fill(cache, source, traces, window=5.0):
    """One ``plan`` and one ``matrices`` request per trace."""
    for trace in traces:
        cache.fused_plan(source, trace, lambda t=trace: (_identity_plan(t), None))
        _matrices(cache, source, trace, window)


class TestWindowCache:
    def test_matrices_cached_per_source_flow_and_window(self):
        rng = np.random.default_rng(41)
        cache = WindowCache()
        flow = random_trace(rng, 100, 5.0)
        source = _Source()
        calls = []
        first = _matrices(cache, source, flow, 5.0, calls)
        assert _matrices(cache, source, flow, 5.0, calls) is first
        assert (cache.hits, cache.misses) == (1, 1)
        _matrices(cache, source, flow, 60.0, calls)  # different window -> miss
        _matrices(cache, _Source(), flow, 5.0, calls)  # different source -> miss
        assert calls == [5.0, 60.0, 5.0]

    def test_window_key_normalizes_float_jitter(self):
        rng = np.random.default_rng(42)
        cache = WindowCache()
        flow = random_trace(rng, 100, 5.0)
        source = _Source()
        jittered = _matrices(cache, source, flow, 0.1 + 0.2)
        assert jittered is _matrices(cache, source, flow, 0.3)
        assert cache.misses == 1

    def test_plan_builds_once(self):
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        cache = WindowCache()
        calls = []

        def build():
            calls.append(1)
            return _identity_plan(trace), None

        scheme = object()
        first, _ = cache.fused_plan(scheme, trace, build)
        second, _ = cache.fused_plan(scheme, trace, build)
        assert first is second
        assert len(calls) == 1
        assert cache.pinned_bytes == first.plan_bytes
        # A different scheme plans again.
        cache.fused_plan(object(), trace, build)
        assert len(calls) == 2

    def test_two_layers(self):
        """Only plans and matrices are cached, and counted."""
        cache = WindowCache()
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        with obs.capture() as cap:
            _fill(cache, _Source(), [trace])
        assert sorted(cap.metrics.counters) == [
            "proc.window_cache.matrices_misses",
            "proc.window_cache.plan_misses",
        ]

    def test_clear(self):
        cache = WindowCache()
        trace = Trace.from_arrays([0.0, 1.0], [10, 20])
        source = _Source()
        _matrices(cache, source, trace, 5.0)
        cache.clear()
        assert (cache.hits, cache.misses, cache.pinned_bytes) == (0, 0, 0)
        _matrices(cache, source, trace, 5.0)
        assert cache.misses == 1


class TestRelease:
    @staticmethod
    def _traces(seed):
        rng = np.random.default_rng(seed)
        return [random_trace(rng, 60, 5.0) for _ in range(2)]

    def test_drops_exactly_one_sources_entries_in_every_layer(self):
        cache = WindowCache()
        traces = self._traces(43)
        kept, released = _Source(), _Source()
        _fill(cache, kept, traces)
        _fill(cache, released, traces)
        assert cache.misses == 8  # 2 sources x 2 traces x 2 layers
        cache.release(released)
        _fill(cache, kept, traces)
        assert (cache.hits, cache.misses) == (4, 8)
        _fill(cache, released, traces)
        assert (cache.hits, cache.misses) == (4, 12)

    def test_unpins_the_source_and_nothing_another_source_names(self):
        cache = WindowCache()
        traces = self._traces(44)
        kept, released = _Source(), _Source()
        _fill(cache, kept, traces)
        _fill(cache, released, traces)
        refs = [weakref.ref(item) for item in (kept, released, *traces)]
        cache.release(released)
        del kept, released, traces
        gc.collect()
        assert [ref() is not None for ref in refs] == [True, False, True, True]
        # The last source naming the traces takes their pins with it.
        cache.release(refs[0]())
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
        assert cache.pinned_bytes == 0

    def test_pinned_bytes_return_and_released_bytes_count(self):
        cache = WindowCache()
        traces = self._traces(45)
        _fill(cache, _Source(), traces)
        before = cache.pinned_bytes
        released = _Source()
        with obs.capture() as cap:
            _fill(cache, released, traces)
            cache.release(released)
        assert cache.pinned_bytes == before
        peak = cap.metrics.gauges["proc.window_cache.pinned_bytes"]
        assert peak > before
        assert cap.metrics.counters["proc.window_cache.released_bytes"] == peak - before

    def test_unknown_source_is_a_no_op(self):
        cache = WindowCache()
        _fill(cache, _Source(), self._traces(46))
        before = cache.pinned_bytes
        with obs.capture() as cap:
            cache.release(_Source())
        assert cache.pinned_bytes == before
        assert "proc.window_cache.released_bytes" not in cap.metrics.counters
