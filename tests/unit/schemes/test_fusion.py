"""The scheme-level fusion protocol (`Scheme.fused_plan`).

A plan is a *promise* of bit-identity with ``apply``: flow ``f`` of the
plan selects exactly the packets of ``observable_flows[f]`` in order,
the size transform reproduces the defended sizes, accounting matches
stage for stage, and the recorded ``scheme.*`` telemetry is
counter-for-counter identical to the materializing path (the profile
bit-identity tests across serial/parallel runs lean on that).
"""

import numpy as np
import pytest

from repro import obs
from repro.core.adaptive import QuantileBoundaryReshaper
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution
from repro.defenses import FusedPlan, PacketPadding, StageOverhead
from repro.schemes import (
    ReshaperScheme,
    SchemeStack,
    build_stack,
    scheme_names,
)
from repro.traffic.trace import Trace

#: Every registered scheme except morphing, which resamples sizes and
#: so has no plan.
FUSABLE = tuple(name for name in scheme_names() if name != "morphing")

#: Fusable schemes the registry does not build.
UNREGISTERED = {
    "target_driven": lambda: ReshaperScheme(
        "target_driven",
        TargetDrivenReshaper(
            TargetDistribution((800, 1576), np.array([[0.6, 0.4], [0.4, 0.6]]))
        ),
    ),
    "quantile": lambda: ReshaperScheme(
        "quantile", QuantileBoundaryReshaper((300, 900, 1576))
    ),
}


def build(name):
    """A registry composition, or one of the unregistered schemes."""
    if name in UNREGISTERED:
        return UNREGISTERED[name]()
    return build_stack(name, seed=7)


def make_trace(n=800, seed=0, label="uploading"):
    rng = np.random.default_rng(seed)
    return Trace.from_arrays(
        np.sort(rng.uniform(0.0, 45.0, n)),
        rng.integers(1, 1577, n),
        directions=rng.choice([0, 1], n),
        label=label,
    )


def assert_plan_matches_apply(scheme, trace):
    defended = scheme.apply(trace)
    flows = defended.observable_flows
    plan = scheme.fused_plan(trace)
    assert plan is not None
    assert plan.n_flows == len(flows)
    for f, flow in enumerate(flows):
        indices = plan.flow_indices(f)
        sizes = trace.sizes[indices]
        directions = trace.directions[indices]
        if plan.size_transform is not None:
            sizes = plan.size_transform(sizes, directions)
        np.testing.assert_array_equal(trace.times[indices], flow.times)
        np.testing.assert_array_equal(sizes, flow.sizes)
        np.testing.assert_array_equal(directions, flow.directions)
    assert plan.stages == defended.stages
    assert plan.extra_bytes == defended.extra_bytes
    assert plan.handshake_bytes == defended.handshake_bytes
    return plan


class TestPlanFlowParity:
    @pytest.mark.parametrize("name", [*FUSABLE, *UNREGISTERED])
    def test_catalog_schemes(self, name):
        assert_plan_matches_apply(build(name), make_trace())

    @pytest.mark.parametrize(
        "composition", ["padding+or", "or+fh", "padding+rr+fh", "pseudonym+ra"]
    )
    def test_stacks(self, composition):
        plan = assert_plan_matches_apply(
            build_stack(composition, seed=7), make_trace()
        )
        assert plan.stack
        assert tuple(s.scheme for s in plan.stages) == tuple(
            composition.split("+")
        )

    def test_empty_trace_flow_counts(self):
        empty = make_trace(n=0)
        # Identity/padding still emit one (empty) flow; partitioning
        # schemes emit none — the plan must mirror both.
        for name in ("original", "padding"):
            assert build_stack(name, seed=7).fused_plan(empty).n_flows == 1
        for name in ("ra", "pseudonym", "padding+or"):
            assert build_stack(name, seed=7).fused_plan(empty).n_flows == 0

    def test_padding_direction_follows_label(self):
        """The padded direction comes from the trace's own label."""
        scheme = PacketPadding()
        for label in ("uploading", "browsing", None):
            assert_plan_matches_apply(scheme, make_trace(label=label, n=300))

    def test_morphing_declines(self):
        assert build_stack("morphing", seed=7).fused_plan(make_trace()) is None

    def test_stack_containing_morphing_declines(self):
        assert build_stack("padding+morphing", seed=7).fused_plan(make_trace()) is None

    def test_nested_stack_declines(self):
        inner = build_stack("padding+or", seed=7)
        outer = SchemeStack([build_stack("fh", seed=7), inner])
        assert outer.fused_plan(make_trace()) is None


class TestPlanTelemetryParity:
    def _scheme_view(self, subprofile):
        counters = {
            key: value
            for key, value in subprofile.metrics.counters.items()
            if key.startswith("scheme")
        }
        histograms = {
            key: dict(buckets)
            for key, buckets in subprofile.metrics.histograms.items()
            if key.startswith("scheme")
        }
        return counters, histograms

    @pytest.mark.parametrize(
        "name", [*FUSABLE, *UNREGISTERED, "padding+or+fh", "or+fh"]
    )
    @pytest.mark.parametrize("packets", [0, 800])
    def test_counters_identical_to_apply(self, name, packets):
        trace = make_trace(n=packets)
        scheme = build(name)
        _, legacy = obs.captured(lambda: scheme.apply(trace))
        _, fused = obs.captured(lambda: scheme.fused_plan(trace))
        assert self._scheme_view(fused) == self._scheme_view(legacy)

    def test_fused_plan_records_batch_counters(self):
        scheme = build_stack("or", seed=7)
        _, sub = obs.captured(lambda: scheme.fused_plan(make_trace()))
        assert sub.metrics.counters["batch.fused_plans"] == 1
        assert sub.metrics.gauges["batch.plan_bytes"] > 0

    def test_declined_plan_records_nothing(self):
        scheme = build_stack("morphing", seed=7)
        _, sub = obs.captured(lambda: scheme.fused_plan(make_trace()))
        assert not [
            key for key in sub.metrics.counters if key.startswith("scheme")
        ]


class TestFusedPlanMechanics:
    def test_from_assignments_renumbers_in_sorted_order(self):
        plan = FusedPlan.from_assignments(np.array([5, 2, 5, 9, 2]))
        assert plan.n_flows == 3
        np.testing.assert_array_equal(plan.assignments, [1, 0, 1, 2, 0])
        np.testing.assert_array_equal(plan.flow_indices(0), [1, 4])
        np.testing.assert_array_equal(plan.flow_indices(1), [0, 2])
        np.testing.assert_array_equal(plan.flow_indices(2), [3])

    def test_explicit_n_flows_keeps_empty_slots(self):
        plan = FusedPlan.from_assignments(
            np.array([0, 2, 0], dtype=np.int64), n_flows=4
        )
        assert plan.n_flows == 4
        assert [len(plan.flow_indices(f)) for f in range(4)] == [2, 0, 1, 0]

    def test_accounting_properties_sum_stages(self):
        plan = FusedPlan.from_assignments(
            np.zeros(3, dtype=np.int64),
            n_flows=1,
            stages=(
                StageOverhead("padding", 100, 0, (1,)),
                StageOverhead("or", 0, 392, (3,)),
            ),
        )
        assert plan.extra_bytes == 100
        assert plan.handshake_bytes == 392
