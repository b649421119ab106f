"""Property tests: reshaping is a partition (Sec. III-C-1 invariants).

For every scheduler and every trace: ∪ᵢ Sᵢ = S, Sᵢ ∩ Sⱼ = ∅ (each
packet gets exactly one interface), byte volume is conserved, timestamps
and sizes are untouched, and OR's per-interface size distributions are
orthogonal with zero Eq. 1 deviation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import QuantileBoundaryReshaper

from repro.core.base import ReshaperScheme
from repro.core.optimization import interface_distributions
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution, orthogonal_targets
from repro.schemes import all_scheme_definitions, build_raw
from repro.traffic.trace import Trace


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=1576), min_size=n, max_size=n)
    )
    directions = draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
    )
    times = np.cumsum(np.asarray(gaps))
    return Trace.from_arrays(times, sizes, directions)


def reshapers():
    return st.sampled_from(
        [
            RandomReshaper(interfaces=3, seed=7),
            RoundRobinReshaper(interfaces=3),
            OrthogonalReshaper.paper_default(),
            ModuloReshaper(interfaces=3),
            FrequencyHoppingScheduler(),
        ]
    )


@given(trace=traces(), reshaper=reshapers())
@settings(max_examples=60, deadline=None)
def test_reshaping_is_a_pure_partition(trace, reshaper):
    scheme = ReshaperScheme("reshaper", reshaper)
    result = scheme.apply(trace)  # verify_partition runs inside
    # Every packet lands on exactly one interface.
    assert sum(len(flow) for flow in result.flows.values()) == len(trace)
    # Byte conservation: no noise traffic is ever added (Sec. III-A).
    assert sum(flow.total_bytes for flow in result.flows.values()) == trace.total_bytes
    # Interface indices stay within the configured count.
    for index in result.flows:
        assert 0 <= index < reshaper.interfaces


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_or_achieves_optimal_objective(trace):
    targets = orthogonal_targets((232, 1540, 1576))
    reshaped = OrthogonalReshaper(targets).reshape(trace)
    p, counts = interface_distributions(reshaped, targets)
    # Every non-empty interface's empirical distribution equals its
    # target exactly (p_ij == phi_ij), Sec. III-C-2.
    for iface in range(3):
        if counts[iface]:
            assert np.allclose(p[iface], targets.matrix[iface])


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_or_interfaces_are_size_disjoint(trace):
    reshaper = OrthogonalReshaper.paper_default()
    result = ReshaperScheme("reshaper", reshaper).apply(trace)
    ranges = {
        0: (1, 232),
        1: (233, 1540),
        2: (1541, 1576),
    }
    for iface, flow in result.flows.items():
        low, high = ranges[iface]
        assert flow.sizes.min() >= low
        assert flow.sizes.max() <= high


@given(trace=traces())
@settings(max_examples=40, deadline=None)
def test_modulo_reshaper_matches_formula(trace):
    reshaped = ModuloReshaper(interfaces=3).reshape(trace)
    assert np.array_equal(np.asarray(reshaped.ifaces), trace.sizes % 3)


@given(trace=traces())
@settings(max_examples=40, deadline=None)
def test_round_robin_balances_within_one(trace):
    reshaper = RoundRobinReshaper(interfaces=3)
    assignment = reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
    for direction in (0, 1):
        counts = np.bincount(assignment[trace.directions == direction], minlength=3)
        assert counts.max() - counts.min() <= 1


@given(trace=traces())
@settings(max_examples=40, deadline=None)
def test_stateless_reshapers_are_deterministic(trace):
    # OR and modulo hashing are pure functions of the packet: applying
    # them twice yields identical partitions.
    for reshaper in (OrthogonalReshaper.paper_default(), ModuloReshaper(3)):
        first = reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        second = reshaper.assign_columns(trace.times, trace.sizes, trace.directions)
        assert np.array_equal(first, second)


@given(trace=traces())
@settings(max_examples=40, deadline=None)
def test_quantile_reshaper_is_a_partition(trace):
    if len(trace) == 0:
        return
    reshaper = QuantileBoundaryReshaper.fit(trace, interfaces=3)
    scheme = ReshaperScheme("reshaper", reshaper)
    result = scheme.apply(trace)
    assert sum(len(flow) for flow in result.flows.values()) == len(trace)
    # Fitted boundaries stay strictly increasing.
    assert all(
        later > earlier
        for earlier, later in zip(reshaper.boundaries, reshaper.boundaries[1:])
    )


def batch_reshapers():
    """Every registered scheduler plus the two unregistered ones."""
    registered = [
        (definition.name, build_raw(definition.name, seed=7))
        for definition in all_scheme_definitions()
        if definition.kind == "reshaper"
    ]
    targets = TargetDistribution(
        (232, 1540, 1576),
        np.array([[0.8, 0.2, 0.0], [0.2, 0.5, 0.3], [0.0, 0.2, 0.8]]),
    )
    return registered + [
        ("target_driven", TargetDrivenReshaper(targets)),
        ("quantile", QuantileBoundaryReshaper((300, 900, 1576))),
    ]


@st.composite
def raw_columns(draw):
    """Column triples with directions outside {0, 1}, which Trace accepts."""
    n = draw(st.integers(min_value=0, max_value=120))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=1576), min_size=n, max_size=n)
    )
    directions = draw(
        st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n)
    )
    return (
        np.cumsum(np.asarray(gaps, dtype=np.float64)),
        np.asarray(sizes, dtype=np.int64),
        np.asarray(directions, dtype=np.int8),
    )


@pytest.mark.parametrize(
    "reshaper", [pytest.param(r, id=name) for name, r in batch_reshapers()]
)
@given(columns=raw_columns())
@settings(max_examples=60, deadline=None)
def test_assign_columns_is_reset_plus_per_packet_replay(reshaper, columns):
    times, sizes, directions = columns
    reshaper.reset()
    expected = [
        reshaper.assign_packet(time=time, size=size, direction=direction)
        for time, size, direction in zip(
            times.tolist(), sizes.tolist(), directions.tolist()
        )
    ]
    batch = reshaper.assign_columns(times, sizes, directions)
    assert batch.dtype == np.int16
    assert batch.tolist() == expected
