"""SchemeStack semantics: composition, accounting, determinism, RNG hygiene."""

import numpy as np
import pytest

from repro.core.base import CONFIG_MESSAGE_BYTES
from repro.schemes import (
    SchemeSpec,
    SchemeStack,
    build_scheme,
    build_stack,
)
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


def _assign(reshaper, trace):
    return reshaper.assign_columns(trace.times, trace.sizes, trace.directions)


@pytest.fixture(scope="module")
def trace():
    return TrafficGenerator(seed=21).generate(AppType.DOWNLOADING, duration=20.0)


class TestComposition:
    def test_stage_fanout_multiplies(self, trace):
        defended = build_stack("padding+or+fh", seed=0).apply(trace)
        # padding: 1 flow; or: <=3; fh fans each over 3 channel slices.
        assert defended.stages[0].flows == 1
        assert 1 <= defended.stages[1].flows <= 3
        assert defended.stages[2].flows <= 3 * defended.stages[1].flows
        assert len(defended.flows) == defended.stages[-1].flows

    def test_single_scheme_composition_is_the_scheme_itself(self, trace):
        single = build_stack("or", seed=4)
        plain = build_scheme(SchemeSpec("or"), seed=4)
        ours = single.apply(trace)
        reference = plain.apply(trace)
        assert sorted(ours.flows) == sorted(reference.flows)
        for key in ours.flows:
            np.testing.assert_array_equal(
                ours.flows[key].sizes, reference.flows[key].sizes
            )
            np.testing.assert_array_equal(
                ours.flows[key].times, reference.flows[key].times
            )

    def test_reshaper_property_unwraps_single_stage_only(self):
        assert build_stack("or").reshaper is not None
        assert build_stack("padding").reshaper is None
        assert build_stack("padding+or").reshaper is None

    def test_apply_is_deterministic(self, trace):
        stack = build_stack("padding+ra+fh", seed=5)
        first = stack.apply(trace)
        second = stack.apply(trace)
        assert sorted(first.flows) == sorted(second.flows)
        for key in first.flows:
            np.testing.assert_array_equal(
                first.flows[key].times, second.flows[key].times
            )
            np.testing.assert_array_equal(
                first.flows[key].sizes, second.flows[key].sizes
            )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            SchemeStack([])


class TestAccounting:
    def test_totals_are_additive_across_stages(self, trace):
        defended = build_stack("padding+morphing+or", seed=1).apply(trace)
        assert defended.extra_bytes == sum(s.extra_bytes for s in defended.stages)
        assert defended.handshake_bytes == sum(
            s.handshake_bytes for s in defended.stages
        )

    def test_reshaping_charges_handshake_not_data_bytes(self, trace):
        defended = build_stack("or", seed=0).apply(trace)
        assert defended.extra_bytes == 0
        assert defended.handshake_bytes == 2 * CONFIG_MESSAGE_BYTES

    def test_second_stage_pays_one_handshake_per_incoming_flow(self, trace):
        defended = build_stack("or+fh", seed=0).apply(trace)
        or_stage, fh_stage = defended.stages
        assert or_stage.handshake_bytes == 2 * CONFIG_MESSAGE_BYTES
        assert fh_stage.handshake_bytes == or_stage.flows * 2 * CONFIG_MESSAGE_BYTES

    def test_padding_overhead_attributed_to_padding_stage(self, trace):
        defended = build_stack("padding+or", seed=0).apply(trace)
        padding_stage, or_stage = defended.stages
        assert padding_stage.scheme == "padding"
        assert padding_stage.extra_bytes > 0
        assert or_stage.extra_bytes == 0
        assert defended.overhead_fraction > 0

    def test_identity_costs_nothing(self, trace):
        defended = build_stack("original").apply(trace)
        assert defended.extra_bytes == 0
        assert defended.handshake_bytes == 0
        assert defended.observable_flows == [trace]


class TestRngHygiene:
    def test_identical_stochastic_stages_do_not_alias(self, trace):
        stack = build_stack("ra+ra", seed=7)
        first, second = (stage.reshaper for stage in stack.stages)
        assert not np.array_equal(_assign(first, trace), _assign(second, trace))

    def test_stage_order_changes_streams(self, trace):
        # The padding stage is deterministic, so any divergence between
        # the two stacks' RA assignments comes from the order-salted
        # stage seeds.
        ra_first = build_stack("ra+padding", seed=7)
        ra_second = build_stack("padding+ra", seed=7)
        a = ra_first.stages[0].reshaper
        b = ra_second.stages[1].reshaper
        assert not np.array_equal(_assign(a, trace), _assign(b, trace))

    def test_same_recipe_same_output(self, trace):
        one = build_stack("padding+ra", seed=7).apply(trace)
        two = build_stack("padding+ra", seed=7).apply(trace)
        for key in one.flows:
            np.testing.assert_array_equal(one.flows[key].sizes, two.flows[key].sizes)

    def test_reset_restores_initial_state(self, trace):
        stack = build_stack("ra+rr", seed=3)
        first = stack.apply(trace)
        stack.reset()
        second = stack.apply(trace)
        for key in first.flows:
            np.testing.assert_array_equal(first.flows[key].times, second.flows[key].times)
