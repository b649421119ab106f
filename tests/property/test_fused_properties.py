"""Fused-path parity: plan → kernel vs the apply → featurize oracle.

The fused evaluation path must be a pure optimization: for every catalog
scheme, every stack of them and the combined defense, the per-flow
feature matrices computed straight off the source columns by
:func:`repro.analysis.batch.fused_feature_matrices` must equal — element
for element, bit for bit — what materializing the observable flows and
running :func:`flow_feature_matrix` on each produces.  Cases the
strategies force: empty traces, single-direction flows, size-transform
stages (padding), gathers (morphing, either direction set, fragmenting
and composed with partitions), ``min_packets`` filtering, and
memmap-backed ``TraceStore``/``ShardSet`` columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.plans import flow_columns, flow_indices
from repro.analysis.batch import flow_feature_matrix, fused_flow_matrices
from repro.core.combined import CombinedDefense
from repro.core.schedulers import OrthogonalReshaper
from repro.schemes import SchemeSpec, build_stack
from repro.storage.shards import ShardSet, ShardSetWriter
from repro.storage.store import write_traces
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.traffic.trace import Trace

#: Every catalog scheme but morphing, which :data:`STAGES` draws twice.
FUSABLE = ("original", "fh", "ra", "rr", "or", "modulo", "padding", "pseudonym")

#: Stage specs a composition draws from: morphing with either
#: ``morph_all`` value next to every other catalog scheme.
STAGES = (
    *(SchemeSpec(name) for name in FUSABLE),
    SchemeSpec("morphing"),
    SchemeSpec("morphing", (("morph_all", True),)),
)

#: The morphing stacks the paper's combination motivates.
MORPHING_STACKS = ("morphing+or", "or+morphing", "padding+morphing")


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=0, max_value=150))
    gaps = draw(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=n, max_size=n)
    )
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=MAX_PACKET_SIZE), min_size=n, max_size=n
        )
    )
    if draw(st.booleans()):
        directions = draw(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
        )
    else:
        # Single-direction flows: one side of the featurizer sees only
        # the empty-direction encoding.
        directions = [draw(st.integers(min_value=0, max_value=1))] * n
    label = draw(st.sampled_from(["browsing", "uploading", "video", None]))
    return Trace.from_arrays(
        np.cumsum(np.asarray(gaps)), sizes, directions=directions, label=label
    )


@st.composite
def compositions(draw):
    return tuple(draw(st.lists(st.sampled_from(STAGES), min_size=1, max_size=3)))


def morph_target(label, n=120, seed=0):
    """A small target capture for the combined defense's morphers."""
    rng = np.random.default_rng(seed)
    return Trace.from_arrays(
        np.sort(rng.uniform(0.0, 30.0, n)),
        rng.integers(1, MAX_PACKET_SIZE + 1, n),
        directions=rng.choice([0, 1], n),
        label=label,
    )


#: Interface -> target maps: two morphed interfaces, one morphed and
#: the rest passing through, none morphed, and a target on an interface
#: OR never uses (an empty interface).
INTERFACE_TARGETS = (
    {0: morph_target("gaming"), 1: morph_target("browsing", seed=1)},
    {2: morph_target("video", seed=2)},
    {},
    {7: morph_target("gaming", seed=3)},
)


def combined_defense(targets, morph_all_packets=False, seed=0):
    return CombinedDefense(
        OrthogonalReshaper.paper_default(), targets, morph_all_packets, seed=seed
    )


def oracle_matrices(scheme, trace, window):
    """The materializing path: apply the scheme, featurize each flow."""
    return [
        flow_feature_matrix(flow, window)
        for flow in scheme.apply(trace).observable_flows
    ]


def assert_columns_match_apply(scheme, trace):
    """Each plan flow's packets and accounting are ``apply``'s, bit for bit."""
    defended = scheme.apply(trace)
    plan = scheme.fused_plan(trace)
    assert plan.n_flows == len(defended.flows)
    assert plan.stages == defended.stages
    for f, flow in enumerate(defended.observable_flows):
        for ours, theirs in zip(
            flow_columns(plan, trace.times, trace.sizes, trace.directions, f),
            (flow.times, flow.sizes, flow.directions),
        ):
            np.testing.assert_array_equal(ours, theirs)


def assert_fused_matches_oracle(scheme, trace, window):
    plan = scheme.fused_plan(trace)
    fused = fused_flow_matrices(trace, plan, window)
    reference = oracle_matrices(scheme, trace, window)
    assert len(fused) == len(reference)
    for ours, oracle in zip(fused, reference):
        np.testing.assert_array_equal(ours, oracle)


class TestFusedParity:
    """Fused matrices are bit-identical to the materializing oracle."""

    @pytest.mark.parametrize("name", FUSABLE)
    @given(trace=traces(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_every_fusable_scheme_matches(self, name, trace, seed):
        assert_fused_matches_oracle(build_stack(name, seed), trace, window=5.0)

    @given(
        composition=compositions(),
        trace=traces(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_stack_matches(self, composition, trace, seed):
        assert_fused_matches_oracle(build_stack(composition, seed), trace, window=5.0)

    @pytest.mark.parametrize("composition", MORPHING_STACKS)
    @pytest.mark.parametrize("morph_all", [False, True])
    @given(trace=traces(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_morphing_stacks_match_flow_by_flow(
        self, composition, morph_all, trace, seed
    ):
        specs = tuple(
            SchemeSpec(name, (("morph_all", morph_all),) if name == "morphing" else ())
            for name in composition.split("+")
        )
        scheme = build_stack(specs, seed)
        assert_fused_matches_oracle(scheme, trace, window=5.0)
        assert_columns_match_apply(scheme, trace)

    @pytest.mark.parametrize("targets", range(len(INTERFACE_TARGETS)))
    @given(
        trace=traces(),
        morph_all_packets=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_combined_defense_matches(self, targets, trace, morph_all_packets, seed):
        scheme = combined_defense(INTERFACE_TARGETS[targets], morph_all_packets, seed)
        assert_fused_matches_oracle(scheme, trace, window=5.0)
        assert_columns_match_apply(scheme, trace)

    @given(trace=traces(), window=st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_min_packets_and_window_filtering(self, trace, window):
        scheme = build_stack("padding+or", seed=3)
        assert_fused_matches_oracle(scheme, trace, window)

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_plan_partitions_the_trace(self, trace):
        """Every packet lands in exactly one flow, in source order."""
        scheme = build_stack("ra+fh", seed=9)
        plan = scheme.fused_plan(trace)
        gathered = np.concatenate(
            [flow_indices(plan, f) for f in range(plan.n_flows)]
        ) if plan.n_flows else np.empty(0, dtype=np.int64)
        assert len(gathered) == len(trace)
        assert np.array_equal(np.sort(gathered), np.arange(len(trace)))
        # Within a flow the gather preserves time order.
        for f in range(plan.n_flows):
            indices = flow_indices(plan, f)
            assert np.all(np.diff(indices) > 0) or len(indices) <= 1


class TestMemmappedSources:
    """The kernel reads store/shardset memmap columns unchanged."""

    def _traces(self):
        rng = np.random.default_rng(11)
        out = []
        for n in (0, 1, 700):
            times = np.sort(rng.uniform(0.0, 40.0, n))
            sizes = rng.integers(1, MAX_PACKET_SIZE + 1, n)
            directions = rng.choice([0, 1], n)
            out.append(
                Trace.from_arrays(times, sizes, directions=directions, label="browsing")
            )
        return out

    @pytest.mark.parametrize(
        "name",
        ["or", "padding+rr", "pseudonym", "morphing", *MORPHING_STACKS, "combined"],
    )
    def test_tracestore_columns_match_in_memory(self, tmp_path, name):
        originals = self._traces()
        store = write_traces(str(tmp_path / "fused.store"), originals)
        try:
            if name == "combined":
                scheme = combined_defense(INTERFACE_TARGETS[0], seed=5)
            else:
                scheme = build_stack(name, seed=5)
            for index, original in enumerate(originals):
                stored = store.trace(index)
                assert_columns_match_apply(scheme, stored)
                plan = scheme.fused_plan(stored)
                fused = fused_flow_matrices(stored, plan, window=5.0)
                reference = oracle_matrices(scheme, original, 5.0)
                assert len(fused) == len(reference)
                for ours, oracle in zip(fused, reference):
                    np.testing.assert_array_equal(ours, oracle)
        finally:
            store.close()

    def test_shardset_columns_match_in_memory(self, tmp_path):
        originals = self._traces()
        path = str(tmp_path / "fused.shards")
        with ShardSetWriter(path, shards=2) as writer:
            for index, trace in enumerate(originals):
                writer.add(trace, station=f"st-{index}")
        shards = ShardSet.open(path)
        try:
            scheme = build_stack("padding+or", seed=5)
            by_packets = {len(t): t for t in originals}
            for index in range(len(shards)):
                stored = shards.trace(index)
                original = by_packets[len(stored)]
                plan = scheme.fused_plan(stored)
                fused = fused_flow_matrices(stored, plan, window=5.0)
                reference = oracle_matrices(scheme, original, 5.0)
                for ours, oracle in zip(fused, reference):
                    np.testing.assert_array_equal(ours, oracle)
        finally:
            shards.release()
