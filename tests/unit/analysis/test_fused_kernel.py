"""The fused featurization kernel and its WindowCache plumbing.

Property-level parity against the legacy apply→featurize oracle lives
in ``tests/property/test_fused_properties.py``; here we pin down the
kernel's unit-level contracts — telemetry (counts, the O(one flow)
``batch.bytes_materialized`` gauge), empty-flow handling, reading
through a gather — and the cache semantics the runner depends on:
gather plans are cached like any other, captured subprofiles come back
on every request — and that every featurization site runs the one
shared windowing kernel.
"""

import numpy as np
import pytest

from oracles.plans import flow_bounds
from repro import obs
from repro.analysis.batch import (
    WindowCache,
    flow_feature_matrix,
    fused_feature_matrices,
    fused_flow_matrices,
)
from repro.defenses.base import FusedPlan
from repro.schemes import build_stack
from repro.traffic.trace import Trace


def make_trace(n=600, seed=0, label="browsing"):
    rng = np.random.default_rng(seed)
    return Trace.from_arrays(
        np.sort(rng.uniform(0.0, 40.0, n)),
        rng.integers(1, 1577, n),
        directions=rng.choice([0, 1], n),
        label=label,
    )


class TestFusedKernel:
    def test_matches_materialized_flows(self):
        trace = make_trace()
        scheme = build_stack("padding+or", seed=3)
        plan = scheme.fused_plan(trace)
        fused = fused_flow_matrices(trace, plan, window=5.0)
        flows = scheme.apply(trace).observable_flows
        assert len(fused) == len(flows)
        for matrix, flow in zip(fused, flows):
            np.testing.assert_array_equal(matrix, flow_feature_matrix(flow, 5.0))

    @pytest.mark.parametrize("composition", ["morphing", "or+morphing", "morphing+rr"])
    def test_reads_through_a_gather(self, composition):
        trace = make_trace()
        scheme = build_stack(composition, seed=3)
        plan = scheme.fused_plan(trace)
        assert plan.source is not None
        fused, sub = obs.captured(lambda: fused_flow_matrices(trace, plan, window=5.0))
        flows = scheme.apply(trace).observable_flows
        assert len(fused) == len(flows)
        for matrix, flow in zip(fused, flows):
            np.testing.assert_array_equal(matrix, flow_feature_matrix(flow, 5.0))
        # The gathered direction column counts in the working set.
        gathered = plan.packets * trace.directions.itemsize
        assert sub.metrics.gauges["batch.bytes_materialized"] > gathered

    def test_empty_flows_yield_empty_matrices(self):
        trace = make_trace(n=0)
        plan = build_stack("original", seed=3).fused_plan(trace)
        matrices = fused_flow_matrices(trace, plan, window=5.0)
        assert len(matrices) == 1
        assert matrices[0].shape == (0, 12)

    def test_counts_flows_and_windows(self):
        trace = make_trace()
        plan = build_stack("or", seed=3).fused_plan(trace)
        matrices, sub = obs.captured(
            lambda: fused_flow_matrices(trace, plan, window=5.0)
        )
        counters = sub.metrics.counters
        assert counters["batch.fused_flows"] == plan.n_flows
        assert counters["batch.fused_windows"] == sum(len(m) for m in matrices)

    def test_bytes_materialized_is_bounded_by_one_flow(self):
        """The gauge tracks a single flow's working set, not the trace's."""
        trace = make_trace(n=2000)
        plan = build_stack("rr", seed=3).fused_plan(trace)
        _, sub = obs.captured(lambda: fused_flow_matrices(trace, plan, window=5.0))
        high_water = sub.metrics.gauges["batch.bytes_materialized"]
        # A flow's gather holds its times/sizes/directions plus the two
        # per-direction float64 size/time views: comfortably under
        # 6 × 8 bytes per packet of the *largest flow*.
        counts = np.diff(flow_bounds(plan))
        assert high_water <= int(counts.max()) * 6 * 8
        # And far below materializing the whole trace's flows at once.
        assert high_water < len(trace) * 3 * 8

    def test_accepts_raw_columns(self):
        trace = make_trace(n=200)
        plan = build_stack("modulo", seed=3).fused_plan(trace)
        via_trace = fused_flow_matrices(trace, plan, window=5.0)
        via_columns = fused_feature_matrices(
            trace.times, trace.sizes, trace.directions, plan, window=5.0
        )
        for ours, other in zip(via_trace, via_columns):
            np.testing.assert_array_equal(ours, other)

    @pytest.mark.parametrize("window", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_window(self, window):
        trace = make_trace(n=10)
        plan = build_stack("original", seed=3).fused_plan(trace)
        with pytest.raises(ValueError, match="window must be"):
            fused_flow_matrices(trace, plan, window=window)


class TestOneKernel:
    """All three featurization sites share one windowing kernel.

    ``flow_feature_matrix``, the fused kernel's single-flow branch and
    its multi-flow branch must agree bit for bit on the same packets.
    """

    @staticmethod
    def _three_sites(trace):
        columns = (trace.times, trace.sizes, trace.directions)
        n = len(trace)
        single = FusedPlan.from_assignments(np.zeros(n, dtype=np.int64), n_flows=1)
        # Every packet in flow 0 of two: forces the multi-flow gather.
        multi = FusedPlan.from_assignments(np.zeros(n, dtype=np.int64), n_flows=2)
        (via_single,) = fused_feature_matrices(*columns, single, 5.0)
        via_multi, empty = fused_feature_matrices(*columns, multi, 5.0)
        assert empty.shape == (0, 12)
        return flow_feature_matrix(trace, 5.0), via_single, via_multi

    @pytest.mark.parametrize("seed", range(12))
    def test_sites_agree(self, seed):
        n = int(np.random.default_rng(seed).integers(1, 400))
        reference, via_single, via_multi = self._three_sites(
            make_trace(n=n, seed=seed + 50)
        )
        np.testing.assert_array_equal(via_single, reference)
        np.testing.assert_array_equal(via_multi, reference)

    def test_empty_flow(self):
        for matrix in self._three_sites(make_trace(n=0)):
            assert matrix.shape == (0, 12)


class TestWindowCacheFusedMemoization:
    def test_plan_cached_by_identity_with_replay(self):
        cache = WindowCache()
        trace = make_trace()
        scheme = build_stack("or", seed=3)
        calls = []

        def build():
            calls.append(1)
            return obs.captured(lambda: scheme.fused_plan(trace))

        plan1, sub1 = cache.fused_plan(scheme, trace, build)
        plan2, sub2 = cache.fused_plan(scheme, trace, build)
        assert len(calls) == 1
        assert plan1 is plan2
        assert sub1 is sub2
        assert sub1.metrics.counters["batch.fused_plans"] == 1

    def test_gather_plans_are_cached_too(self):
        """A morphing plan is built once and pins what it holds."""
        cache = WindowCache()
        trace = make_trace()
        scheme = build_stack("morphing", seed=3)
        calls = []

        def build():
            calls.append(1)
            return obs.captured(lambda: scheme.fused_plan(trace))

        plan1, _ = cache.fused_plan(scheme, trace, build)
        plan2, _ = cache.fused_plan(scheme, trace, build)
        assert plan1 is plan2 and plan1.source is not None
        assert len(calls) == 1
        assert cache.pinned_bytes == plan1.plan_bytes

    def test_flow_matrices_keyed_per_window(self):
        cache = WindowCache()
        trace = make_trace()
        scheme = build_stack("or", seed=3)
        plan = scheme.fused_plan(trace)
        calls = []

        def build(window):
            def run():
                calls.append(window)
                return obs.captured(lambda: fused_flow_matrices(trace, plan, window))

            return run

        first, _ = cache.flow_matrices(scheme, trace, 5.0, build(5.0))
        again, _ = cache.flow_matrices(scheme, trace, 5.0, build(5.0))
        other_window, _ = cache.flow_matrices(scheme, trace, 7.0, build(7.0))
        assert calls == [5.0, 7.0]
        assert first is again
        assert other_window is not first

    def test_hit_miss_counters(self):
        cache = WindowCache()
        trace = make_trace()
        scheme = build_stack("or", seed=3)

        def build_plan():
            return obs.captured(lambda: scheme.fused_plan(trace))

        _, sub = obs.captured(
            lambda: [
                cache.fused_plan(scheme, trace, build_plan),
                cache.fused_plan(scheme, trace, build_plan),
            ]
        )
        counters = sub.metrics.counters
        assert counters["proc.window_cache.plan_misses"] == 1
        assert counters["proc.window_cache.plan_hits"] == 1

    def test_clear_drops_fused_state(self):
        cache = WindowCache()
        trace = make_trace()
        scheme = build_stack("or", seed=3)
        calls = []

        def build():
            calls.append(1)
            return obs.captured(lambda: scheme.fused_plan(trace))

        cache.fused_plan(scheme, trace, build)
        cache.clear()
        cache.fused_plan(scheme, trace, build)
        assert len(calls) == 2
