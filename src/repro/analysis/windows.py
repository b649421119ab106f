"""Eavesdropping windows.

"The eavesdropping duration (denoted as W) is used to represent the
shortest time duration of traffic for classification each time"
(Sec. IV-A).  A flow is chopped into consecutive W-second windows;
windows with fewer than a minimum number of packets are dropped (an
eavesdropper cannot classify silence).

:func:`window_edges` defines the canonical window grid of a flow; it is
shared by the per-window slicer below and by the vectorized batch
featurizer (:mod:`repro.analysis.batch`), so both paths agree on window
boundaries by construction.  The grid rule itself — packet ``t`` lies
in window ``k`` iff ``start + k*W <= t < start + (k+1)*W``, evaluated
in that exact float arithmetic — lives in :func:`window_index` (one
timestamp) and :func:`window_indices` (a column), which the streaming
featurizer (:mod:`repro.stream.featurizer`) uses to place packets on
the same grid.  :func:`sliding_windows` remains the reference
per-window path: it materializes one re-based sub-``Trace`` per window
(columns other than time are views into the parent flow, not copies)
and is what the batch engine is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.trace import Trace
from repro.util.validation import require, require_positive

__all__ = [
    "grid_edges",
    "sliding_windows",
    "window_edges",
    "window_index",
    "window_indices",
    "window_key",
    "window_traces",
]

#: Decimal places used to normalize eavesdropping-window cache keys.
_WINDOW_KEY_DECIMALS = 9


def window_key(window: float) -> float:
    """Normalize ``window`` for use as a dictionary key.

    Float jitter from arithmetic on window values (``0.1 + 0.2``) would
    otherwise make logically-equal windows miss caches keyed by the raw
    float — every cache of per-window artifacts (trained pipelines,
    feature matrices) keys on this.
    """
    require_positive(window, "window")
    return round(float(window), _WINDOW_KEY_DECIMALS)


def window_index(time: float, start: float, window: float) -> int:
    """The index ``k`` of the grid window ``[start + k*W, start + (k+1)*W)``
    holding ``time`` (``time >= start``).

    The division is only a first guess; the comparisons are
    authoritative under float rounding, so a packet landing exactly on
    an edge opens the next window on every path.
    """
    index = int((time - start) / window)
    while start + index * window > time:
        index -= 1
    while start + (index + 1) * window <= time:
        index += 1
    return index


def window_indices(times: np.ndarray, start: float, window: float) -> np.ndarray:
    """:func:`window_index` of every entry of ``times`` (all ``>= start``).

    ``start`` may be an array, one grid anchor per entry.  The index is
    held as a whole float while the edges are checked: ``k * W`` is the
    same product for ``k`` as a float or an int, and the int would be
    cast on every multiply.
    """
    index = np.floor((times - start) / window)
    while True:
        over = index * window
        over += start
        over = over > times
        if not over.any():
            break
        index -= over
    while True:
        under = index + 1
        under *= window
        under += start
        under = under <= times
        if not under.any():
            break
        index += under
    return index.astype(np.int64)


def grid_edges(start: float, first: int, stop: int, window: float) -> np.ndarray:
    """Edges ``start + k*W``, ``k = first .. stop``: windows ``first .. stop - 1``."""
    return start + np.arange(first, stop + 1) * window


def window_edges(times: np.ndarray, window: float) -> np.ndarray:
    """Edges of the consecutive W-second windows covering ``times``.

    Returns ``count + 1`` edges for ``count`` half-open windows
    ``[edge[k], edge[k+1])``, the minimum number that covers every
    packet: the grid anchors at the first timestamp and ends with the
    window holding the last (a packet landing exactly on the final flow
    timestamp at a whole multiple of W still falls inside it).
    """
    if len(times) == 0:
        raise ValueError("window_edges requires at least one timestamp")
    start = float(times[0])
    return grid_edges(start, 0, window_index(float(times[-1]), start, window) + 1, window)


def sliding_windows(
    trace: Trace,
    window: float,
    min_packets: int = 2,
) -> list[Trace]:
    """Chop ``trace`` into consecutive ``window``-second slices.

    Args:
        trace: the flow to slice (timestamps need not start at 0).
        window: W in seconds.
        min_packets: windows with fewer packets are dropped.

    Returns sub-traces whose timestamps are re-based to the window start
    so features never depend on absolute time.  The non-time columns of
    each slice are views into ``trace`` — treat them as read-only.
    """
    require_positive(window, "window")
    require(min_packets >= 1, "min_packets must be >= 1")
    if len(trace) == 0:
        return []
    edges = window_edges(trace.times, window)
    indices = np.searchsorted(trace.times, edges)
    slices: list[Trace] = []
    for k in range(len(edges) - 1):
        lo, hi = int(indices[k]), int(indices[k + 1])
        if hi - lo < min_packets:
            continue
        slices.append(
            Trace._trusted(
                trace.times[lo:hi] - float(edges[k]),
                trace.sizes[lo:hi],
                trace.directions[lo:hi],
                trace.ifaces[lo:hi],
                trace.channels[lo:hi],
                trace.rssi[lo:hi],
                trace.label,
                {},
            )
        )
    return slices


def window_traces(
    flows: list[Trace],
    window: float,
    min_packets: int = 2,
) -> list[Trace]:
    """Windows across several observable flows, concatenated."""
    out: list[Trace] = []
    for flow in flows:
        out.extend(sliding_windows(flow, window, min_packets))
    return out
