"""The scheme-level fusion protocol (`Scheme.fused_plan`).

A plan is a *promise* of bit-identity with ``apply``: flow ``f`` of the
plan holds exactly the packets of ``observable_flows[f]`` in order, the
size transform (or a gather's output sizes) reproduces the defended
sizes, accounting matches stage for stage, and the recorded
``scheme.*`` telemetry is counter-for-counter identical to the
materializing path (the profile bit-identity tests across
serial/parallel runs lean on that).
"""

import numpy as np
import pytest

from oracles.plans import flow_columns, flow_indices
from repro import obs
from repro.core.adaptive import QuantileBoundaryReshaper
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution
from repro.defenses import FusedPlan, PacketPadding, StageOverhead
from repro.defenses.base import DefendedTraffic, Scheme
from repro.schemes import (
    ReshaperScheme,
    SchemeSpec,
    SchemeStack,
    build_stack,
    scheme_names,
)
from repro.traffic.trace import Trace

#: Every registered scheme (morphing plans a gather).
FUSABLE = tuple(scheme_names())

#: Stacks with a morphing stage: gathers composed with partitions and
#: size rewrites.
MORPHING_STACKS = ("morphing+or", "or+morphing", "padding+morphing", "morphing+fh")

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


def morph_all(composition):
    """``composition`` with every morphing stage morphing both directions."""
    return build_stack(
        tuple(
            SchemeSpec("morphing", (("morph_all", True),)) if name == "morphing"
            else SchemeSpec(name)
            for name in composition.split("+")
        ),
        seed=7,
    )


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
        times, sizes, directions = flow_columns(
            plan, trace.times, trace.sizes, trace.directions, f
        )
        np.testing.assert_array_equal(times, flow.times)
        np.testing.assert_array_equal(sizes, flow.sizes)
        np.testing.assert_array_equal(directions, flow.directions)
    if plan.source is not None:
        # A gather's packets are in capture order.
        assert np.all(np.diff(trace.times[plan.gather()[1]]) >= 0)
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

    @pytest.mark.parametrize("label", ["uploading", "browsing", None])
    @pytest.mark.parametrize("build_morphing", [build, morph_all])
    def test_morphing_plans_and_equals_apply(self, build_morphing, label):
        trace = make_trace(label=label)
        plan = assert_plan_matches_apply(build_morphing("morphing"), trace)
        # Shrunk packets fragment: the gather emits more than it reads.
        assert plan.source is not None
        assert plan.packets > len(trace)

    @pytest.mark.parametrize("composition", MORPHING_STACKS)
    @pytest.mark.parametrize("build_morphing", [build, morph_all])
    def test_stacks_containing_morphing_plan_and_equal_apply(
        self, composition, build_morphing
    ):
        plan = assert_plan_matches_apply(build_morphing(composition), make_trace())
        assert plan.stack and plan.source is not None

    def test_morphing_plans_equal_times(self):
        """Ties order morphed packets first, as ``transform`` does."""
        trace = make_trace()
        tied = Trace.from_arrays(
            np.round(trace.times), trace.sizes, directions=trace.directions,
            label="browsing",
        )
        for composition in ("morphing", "morphing+or", "or+morphing"):
            assert_plan_matches_apply(build(composition), tied)

    def test_nested_stack_raises_the_contract_error(self):
        inner = build_stack("padding+or", seed=7)
        outer = SchemeStack([build_stack("fh", seed=7), inner])
        with pytest.raises(NotImplementedError, match="'fh\\+padding\\+or'"):
            outer.fused_plan(make_trace())

    def test_a_scheme_without_a_plan_raises_naming_it(self):
        class Unplanned(Scheme):
            name = "unplanned"

            def transform(self, trace):
                return DefendedTraffic(original=trace, flows={0: trace})

        with pytest.raises(NotImplementedError, match="'unplanned'"):
            Unplanned().fused_plan(make_trace())


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
        "name", [*FUSABLE, *UNREGISTERED, *MORPHING_STACKS, "padding+or+fh", "or+fh"]
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

    @pytest.mark.parametrize("name", ["morphing", "or+morphing", "morphing+or"])
    def test_fragmenting_plan_records_real_packets_out(self, name):
        trace = make_trace()
        plan, sub = obs.captured(lambda: build(name).fused_plan(trace))
        counters = sub.metrics.counters
        assert counters["scheme[morphing].packets_out"] > len(trace)
        assert counters["scheme.packets_out"] >= plan.packets
        assert sub.metrics.gauges["batch.plan_bytes"] == plan.plan_bytes


class TestFusedPlanMechanics:
    def test_from_assignments_renumbers_in_sorted_order(self):
        plan = FusedPlan.from_assignments(np.array([5, 2, 5, 9, 2]))
        assert plan.n_flows == 3
        np.testing.assert_array_equal(plan.assignments, [1, 0, 1, 2, 0])
        np.testing.assert_array_equal(flow_indices(plan, 0), [1, 4])
        np.testing.assert_array_equal(flow_indices(plan, 1), [0, 2])
        np.testing.assert_array_equal(flow_indices(plan, 2), [3])

    def test_explicit_n_flows_keeps_empty_slots(self):
        plan = FusedPlan.from_assignments(
            np.array([0, 2, 0], dtype=np.int64), n_flows=4
        )
        assert plan.n_flows == 4
        assert [len(flow_indices(plan, f)) for f in range(4)] == [2, 0, 1, 0]

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

    def test_plan_bytes_count_the_arrays_held(self):
        plain = FusedPlan.from_assignments(np.zeros(5, dtype=np.int64), n_flows=1)
        assert plain.plan_bytes == 5 * 8
        gather = build_stack("morphing+or", seed=7).fused_plan(make_trace())
        # Fragments run together: four int32 columns, one entry per run.
        runs = len(gather.repeats)
        assert runs < gather.packets
        assert gather.plan_bytes == 4 * 4 * runs

    def test_a_gather_is_held_in_runs(self):
        source = np.array([0, 0, 0, 1, 2, 2])
        plan = FusedPlan(
            np.array([0, 0, 1, 1, 1, 1]), 2, source=source,
            sizes=np.array([60, 60, 60, 70, 80, 90]),
        )
        np.testing.assert_array_equal(plan.repeats, [2, 1, 1, 1, 1])
        np.testing.assert_array_equal(plan.source, [0, 0, 1, 2, 2])
        assert plan.packets == 6
        flows, gathered, sizes = plan.gather()
        np.testing.assert_array_equal(flows, [0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(gathered, source)
        np.testing.assert_array_equal(sizes, [60, 60, 60, 70, 80, 90])
