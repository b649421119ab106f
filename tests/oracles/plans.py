"""A :class:`~repro.defenses.base.FusedPlan` read flow by flow.

The fused kernel never indexes a plan per flow (it sorts its own
narrow key), so the per-flow gather index lives here, on the test
side: parity tests use it to compare each plan flow with the matching
flow of ``apply``.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import FusedPlan


def packet_flows(plan: FusedPlan) -> np.ndarray:
    """The flow of each of the plan's packets (a gather's output packets)."""
    return plan.assignments if plan.source is None else plan.gather()[0]


def flow_bounds(plan: FusedPlan) -> np.ndarray:
    """``(n_flows + 1,)`` prefix offsets of each flow's run in :func:`flow_order`."""
    counts = np.bincount(packet_flows(plan), minlength=plan.n_flows)
    bounds = np.zeros(plan.n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def flow_order(plan: FusedPlan) -> np.ndarray:
    """The plan's packets grouped by flow, each flow in its own order."""
    return np.argsort(packet_flows(plan), kind="stable")


def flow_indices(plan: FusedPlan, flow: int) -> np.ndarray:
    """Positions of flow ``flow``'s packets among the plan's packets.

    The plan's packets are the source packets, or a gather's output
    packets.
    """
    bounds = flow_bounds(plan)
    return flow_order(plan)[bounds[flow] : bounds[flow + 1]]


def flow_columns(
    plan: FusedPlan,
    times: np.ndarray,
    sizes: np.ndarray,
    directions: np.ndarray,
    flow: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, sizes and directions of plan flow ``flow`` over source columns."""
    indices = flow_indices(plan, flow)
    if plan.source is not None:
        _, source, gathered_sizes = plan.gather()
        source = source[indices]
        return times[source], gathered_sizes[indices], directions[source]
    flow_sizes = sizes[indices]
    if plan.size_transform is not None:
        flow_sizes = plan.size_transform(flow_sizes, directions[indices])
    return times[indices], flow_sizes, directions[indices]
