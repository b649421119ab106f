"""Eavesdropping windows.

"The eavesdropping duration (denoted as W) is used to represent the
shortest time duration of traffic for classification each time"
(Sec. IV-A).  A flow is chopped into consecutive W-second windows;
windows with fewer than :data:`MIN_WINDOW_PACKETS` packets are dropped
(an eavesdropper cannot classify silence).

:func:`window_edges` defines the canonical window grid of a flow, which
the batch featurizer (:mod:`repro.analysis.batch`) lays.  The grid rule
itself — packet ``t`` lies in window ``k`` iff ``start + k*W <= t <
start + (k+1)*W``, evaluated in that exact float arithmetic — lives in
:func:`window_index` (one timestamp) and :func:`window_indices` (a
column), which the streaming featurizer (:mod:`repro.stream.featurizer`)
uses to place packets on the same grid.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require_positive

__all__ = [
    "MIN_WINDOW_PACKETS",
    "grid_edges",
    "window_edges",
    "window_index",
    "window_indices",
    "window_key",
]

#: Fewest downlink + uplink packets a classifiable window holds.
MIN_WINDOW_PACKETS = 2

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
