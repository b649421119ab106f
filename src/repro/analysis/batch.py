"""Vectorized batch featurization of eavesdropping windows.

The attacker loop of Sec. IV (train on undefended windows, classify
every window of every observable flow) is the hot path behind every
table and figure.  This module is the one featurizer: it computes the
full ``(n_windows, 12)`` feature matrix of a flow (the features of
:mod:`repro.analysis.features`) in a handful of numpy passes, with no
per-window ``Trace`` and no per-window Python loop:

* one :func:`numpy.searchsorted` against the shared window grid
  (:func:`~repro.analysis.windows.window_edges`) locates every window
  boundary in each direction,
* segmented ``ufunc.reduceat`` reductions produce per-window count /
  max / min / mean / std of packet size,
* interarrival means come from one :func:`numpy.diff` over re-based
  timestamps with idle gaps masked and summed via ``bincount``.

The per-window reference it is held to element for element lives on
the test side (``tests/oracles/windows.py``).

Every batch entry point — :func:`flow_feature_matrix` and both branches
of :func:`fused_feature_matrices` — lays the window grid, splits
directions and drops windows under
:data:`~repro.analysis.windows.MIN_WINDOW_PACKETS` through one private
kernel, ``_flow_matrix``, over ``_grid_block``; the first two share
their whole body, ``_one_flow_matrix``.  The kernel core,
``_direction_block``, reads each window's packet bounds and left edge,
so ``_grid_block`` only locates a grid's bounds with ``searchsorted``.
The streaming engine (:class:`repro.stream.featurizer.StreamingFeaturizer`)
runs the same core through ``_window_block``, once per chunk, on every
window the chunk closes for every station, stacked; a single window
closed by a flush goes through ``_grid_block``.  That is what makes
streaming output bit-identical to this module's matrices: a window's
reductions see the same contiguous float64 values wherever its segment
sits.  Changes to the kernel's arithmetic are parity-tested from both
sides.

:class:`WindowCache` memoizes what the experiment drivers recompute
most — fused plans and feature matrices — so the scheme grid and
multi-window sweeps share windowing work.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro import obs
from repro.analysis.features import _IAT_EPSILON, FEATURE_NAMES
from repro.analysis.windows import MIN_WINDOW_PACKETS, window_edges, window_key
from repro.defenses.base import FusedPlan
from repro.traffic.packet import DOWNLINK, UPLINK
from repro.traffic.stats import DEFAULT_IDLE_CUTOFF
from repro.traffic.trace import Trace
from repro.util.validation import require_positive

__all__ = [
    "WindowCache",
    "augment_direction_dropout",
    "flow_feature_matrix",
    "fused_feature_matrices",
    "fused_flow_matrices",
]

_N_FEATURES = len(FEATURE_NAMES)


#: Packets one pass of :func:`_direction_block` reduces at once.  Its
#: temporaries (about ten float64 columns) scale with this rather than
#: with the flow — a downloading capture runs to a million packets.
_BLOCK_PACKETS = 1 << 16


def _direction_block(
    dtimes: np.ndarray,
    dsizes: np.ndarray,
    bounds: np.ndarray,
    lefts: np.ndarray,
    window: float,
    idle_cutoff: float,
    block: np.ndarray,
) -> None:
    """Per-window 6-feature block of one direction, for every window.

    ``dtimes``/``dsizes`` are the timestamps and the sizes of the
    direction's packets, float64 or integer, each window's packets in
    time order.  Window ``i`` holds ``dtimes[bounds[i]:bounds[i + 1]]``
    and has left edge ``lefts[i]``; ``bounds`` is non-decreasing, so
    the windows partition the packets in order.  They may come from one
    flow's grid or from several flows' stacked in turn.  Results are
    written into ``block``, a ``(n_windows, 6)`` column slice of the
    feature matrix.  Windows where the direction is silent get the
    empty-direction encoding (zero counts, interarrival pinned to the
    window length).

    The occupied windows are reduced in runs of about
    ``_BLOCK_PACKETS`` packets, each run's sizes in float64.  Runs end
    on window boundaries, so each window's reductions see the same
    contiguous float64 values either way (int64 → float64 is exact per
    element).
    """
    n_windows = len(lefts)
    block[:, :5] = 0.0
    block[:, 5] = np.log(window + _IAT_EPSILON)
    occupied = np.flatnonzero(bounds[1:] - bounds[:-1])
    if len(occupied) == 0:
        return
    mean_iat = np.full(n_windows, float(window))
    ends = bounds[occupied + 1]
    first = 0
    while first < len(occupied):
        limit = bounds[occupied[first]] + _BLOCK_PACKETS
        last = max(first + 1, int(np.searchsorted(ends, limit, side="right")))
        _window_run(
            dtimes, dsizes, bounds, lefts, occupied[first:last],
            idle_cutoff, block, mean_iat,
        )
        first = last
    block[:, 5] = np.log(mean_iat + _IAT_EPSILON)


def _window_run(
    dtimes: np.ndarray,
    dsizes: np.ndarray,
    bounds: np.ndarray,
    lefts: np.ndarray,
    occupied: np.ndarray,
    idle_cutoff: float,
    block: np.ndarray,
    mean_iat: np.ndarray,
) -> None:
    """Features of a run of consecutive occupied windows of one direction.

    Writes the size columns of ``block`` and the interarrival means
    into ``mean_iat`` for the windows in ``occupied``.
    """
    seg_starts = bounds[occupied]
    seg_counts = bounds[occupied + 1] - seg_starts
    lo, hi = seg_starts[0], seg_starts[-1] + seg_counts[-1]
    dtimes = dtimes[lo:hi]
    dsizes = np.asarray(dsizes[lo:hi], dtype=np.float64)
    seg_starts = seg_starts - lo

    # Size statistics via segmented reductions.  Consecutive occupied
    # windows have contiguous segments (silent windows contribute no
    # packets), so reduceat over the occupied starts partitions dsizes.
    sums = np.add.reduceat(dsizes, seg_starts)
    means = sums / seg_counts
    deviations = dsizes - np.repeat(means, seg_counts)
    variances = np.add.reduceat(deviations * deviations, seg_starts) / seg_counts
    del deviations
    block[occupied, 0] = np.log1p(seg_counts)
    block[occupied, 1] = np.maximum.reduceat(dsizes, seg_starts)
    block[occupied, 2] = np.minimum.reduceat(dsizes, seg_starts)
    block[occupied, 3] = means
    block[occupied, 4] = np.sqrt(variances)

    # Interarrival means over re-based timestamps.  Re-basing before the
    # diff mirrors the reference path's subtraction order so idle-gap
    # cutoff decisions land on identical float values.
    rebased = dtimes - np.repeat(lefts[occupied], seg_counts)
    gaps = rebased[1:] - rebased[:-1]
    del rebased
    # keep[i]: gap i (packet i to i + 1) stays inside a window and under
    # the cutoff.  The gap from a window's last packet into the next
    # window never counts; a trailing False closes the last window.
    keep = np.zeros(len(dtimes), dtype=bool)
    np.less_equal(gaps, idle_cutoff, out=keep[:-1])
    keep[seg_starts[1:] - 1] = False
    kept_gaps = gaps[keep[:-1]]
    if len(kept_gaps):
        # Surviving gaps are grouped by window; sum each window's run
        # with one segmented reduction.
        run_counts = np.add.reduceat(keep, seg_starts, dtype=np.int64)
        has_gaps = run_counts > 0
        run_starts = np.cumsum(run_counts) - run_counts
        gap_sums = np.add.reduceat(kept_gaps, run_starts[has_gaps])
        mean_iat[occupied[has_gaps]] = gap_sums / run_counts[has_gaps]


def _window_block(
    lefts: np.ndarray,
    by_direction: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    window: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and packet totals of the windows with left edges ``lefts``.

    ``by_direction`` yields the downlink's then the uplink's ``(times,
    sizes, bounds)``, laid out as :func:`_direction_block` reads them.
    This is the one kernel: a flow's grid (:func:`_grid_block`) and a
    streaming chunk's windows of many flows at once both run it.
    """
    idle_cutoff = min(DEFAULT_IDLE_CUTOFF, window)
    matrix = np.empty((len(lefts), _N_FEATURES), dtype=np.float64)
    totals = np.zeros(len(lefts), dtype=np.int64)
    column = 0
    for dtimes, dsizes, bounds in by_direction:
        totals += bounds[1:] - bounds[:-1]
        _direction_block(
            dtimes, dsizes, bounds, lefts, window, idle_cutoff,
            matrix[:, column : column + 6],
        )
        del dtimes, dsizes  # a lazy split holds one direction at a time
        column += 6
    return matrix, totals


def _grid_block(
    edges: np.ndarray,
    by_direction: Iterable[tuple[np.ndarray, np.ndarray]],
    window: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and packet totals of every window on ``edges``.

    ``by_direction`` yields the downlink's then the uplink's ``(times,
    sizes)`` in time order; packets of any other direction are
    neither featurized nor counted.
    """

    def located() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for dtimes, dsizes in by_direction:
            yield dtimes, dsizes, np.searchsorted(dtimes, edges)
            del dtimes, dsizes

    return _window_block(edges[:-1], located(), window)


def _flow_matrix(
    first: float,
    last: float,
    by_direction: Iterable[tuple[np.ndarray, np.ndarray]],
    window: float,
) -> np.ndarray:
    """The one windowing kernel behind every featurization entry point.

    ``first``/``last`` are the flow's extreme timestamps (all
    :func:`window_edges` reads); ``by_direction`` is as for
    :func:`_grid_block`.  Keeps windows of ``MIN_WINDOW_PACKETS`` or
    more.
    """
    matrix, totals = _grid_block(
        window_edges(np.array([first, last]), window), by_direction, window
    )
    return matrix[totals >= MIN_WINDOW_PACKETS]


def _split_directions(
    times: np.ndarray, sizes: np.ndarray, directions: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A flow's columns as ``(times, sizes)``, one direction at a time.

    Sizes keep their dtype: :func:`_direction_block` converts them to
    float64 one run of windows at a time, so a direction's sizes are
    never held twice.
    """
    for direction in (DOWNLINK, UPLINK):
        mask = directions == int(direction)
        yield times[mask], sizes[mask]


def _one_flow_matrix(
    times: np.ndarray, sizes: np.ndarray, directions: np.ndarray, window: float
) -> np.ndarray:
    """The feature matrix of one flow's time-ordered columns, read in place."""
    if len(times) == 0:
        return np.empty((0, _N_FEATURES), dtype=np.float64)
    return _flow_matrix(
        times[0], times[-1], _split_directions(times, sizes, directions), window
    )


def flow_feature_matrix(trace: Trace, window: float) -> np.ndarray:
    """The ``(n_windows, 12)`` feature matrix of one observable flow.

    Row ``k`` is the ``k``-th window of the flow's grid, in time order,
    that holds at least ``MIN_WINDOW_PACKETS`` packets.
    """
    require_positive(window, "window")
    return _one_flow_matrix(trace.times, trace.sizes, trace.directions, float(window))


def fused_feature_matrices(
    times: np.ndarray,
    sizes: np.ndarray,
    directions: np.ndarray,
    plan: FusedPlan,
    window: float,
) -> list[np.ndarray]:
    """Per-flow feature matrices of a defended trace, straight off columns.

    The fused counterpart of ``apply`` → :func:`flow_feature_matrix`:
    ``plan`` (from :meth:`repro.schemes.Scheme.fused_plan`) says which
    observable flow each packet lands in and how sizes are rewritten —
    for a gather plan (morphing), which source packet each output packet
    is and its output size — and this kernel gathers each flow's packets
    directly from the source columns — in-memory arrays or
    ``TraceStore``/``ShardSet`` memmap slices alike — with **zero
    intermediate Trace allocation**.  Flow ``f``'s matrix is
    bit-identical to
    ``flow_feature_matrix(defended.observable_flows[f], ...)``: the
    gather yields the same contiguous float64 values the materialized
    flow's columns would hold, and both run the shared
    :func:`_flow_matrix` kernel.

    Telemetry makes the no-materialization claim checkable instead of
    trusted: ``batch.fused_flows``/``batch.fused_windows`` count the
    work, and the ``batch.bytes_materialized`` gauge records the
    largest single-flow working set (gathered columns + per-direction
    float views, plus a gather plan's direction column) — O(one flow),
    never O(trace × flows).
    """
    require_positive(window, "window")
    window = float(window)
    transform = plan.size_transform
    times = np.asarray(times)
    sizes = np.asarray(sizes)
    directions = np.asarray(directions)
    matrices: list[np.ndarray] = []
    # A gather plan's packets are its output packets: packet k is
    # source packet source[k] with size sizes[k], in flow assignments[k].
    assignments, source, gathered = plan.assignments, None, 0
    if plan.source is not None:
        assignments, source, sizes = plan.gather()
        directions = directions[source]
        gathered = sum(c.nbytes for c in (assignments, source, sizes, directions))
        if plan.n_flows == 1:
            times, source = times[source], None
            gathered += times.nbytes

    if plan.n_flows == 1:
        # One observable flow containing every packet (identity,
        # padding): the gather would be the identity permutation — read
        # the source columns in place instead of copying them (a gather
        # plan's flow is its gathered columns).
        obs.add("batch.fused_flows")
        # The split gathers one time and one size per packet: every
        # packet lands in exactly one direction.
        materialized = gathered + len(times) * (times.itemsize + 8)
        if transform is not None:
            sizes = transform(sizes, directions)
            materialized += sizes.nbytes
        kept = _one_flow_matrix(times, sizes, directions, window)
        if len(times):
            obs.add("batch.fused_windows", len(kept))
        obs.gauge("batch.bytes_materialized", materialized)
        return [kept]

    # Multi-flow: one stable radix sort by (flow, direction) makes every
    # (flow, direction) group a contiguous run of the gather index, in
    # time order (source columns are time-sorted and the sort is
    # stable).  Each group then gathers straight into the exact
    # per-direction arrays the featurizer consumes — no per-flow
    # boolean masks, no intermediate whole-flow copy.  The key is kept
    # in the narrowest dtype that fits 2 * n_flows: numpy's stable sort
    # is a radix sort only for <= 16-bit integers (5-6x faster here
    # than the int32/int64 timsort fallback), and flow counts are tiny.
    up = int(UPLINK)
    if 2 * plan.n_flows < np.iinfo(np.int16).max:
        key = assignments.astype(np.int16)
        key <<= 1
        key += directions == up
    elif 2 * plan.n_flows < np.iinfo(np.int32).max:
        key = assignments.astype(np.int32) * 2 + (directions == up)
    else:
        key = assignments * 2 + (directions == up)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=2 * plan.n_flows)
    bounds = np.zeros(2 * plan.n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    for flow in range(plan.n_flows):
        obs.add("batch.fused_flows")
        down_idx = order[bounds[2 * flow] : bounds[2 * flow + 1]]
        up_idx = order[bounds[2 * flow + 1] : bounds[2 * flow + 2]]
        if len(down_idx) == 0 and len(up_idx) == 0:
            matrices.append(np.empty((0, _N_FEATURES), dtype=np.float64))
            continue
        materialized = gathered
        by_direction: list[tuple[np.ndarray, np.ndarray]] = []
        for indices, direction in ((down_idx, DOWNLINK), (up_idx, UPLINK)):
            dtimes = times[indices if source is None else source[indices]]
            dsizes = sizes[indices]
            materialized += dtimes.nbytes + dsizes.nbytes
            if transform is not None:
                dsizes = transform(
                    dsizes,
                    np.broadcast_to(
                        directions.dtype.type(int(direction)), dsizes.shape
                    ),
                )
                materialized += dsizes.nbytes
            dsizes = dsizes.astype(np.float64)
            materialized += dsizes.nbytes
            by_direction.append((dtimes, dsizes))
        # The grid reads only the flow's first and last timestamp: the
        # extrema of the per-direction runs.
        kept = _flow_matrix(
            min(dtimes[0] for dtimes, _ in by_direction if len(dtimes)),
            max(dtimes[-1] for dtimes, _ in by_direction if len(dtimes)),
            by_direction,
            window,
        )
        matrices.append(kept)
        obs.add("batch.fused_windows", len(kept))
        obs.gauge("batch.bytes_materialized", materialized)
    return matrices


def fused_flow_matrices(
    trace: Trace,
    plan: FusedPlan,
    window: float,
) -> list[np.ndarray]:
    """:func:`fused_feature_matrices` over a trace's columns.

    Works identically for in-memory traces and store-backed traces
    whose columns are read-only memmap slices — the kernel only ever
    gathers per-flow index views out of them.
    """
    return fused_feature_matrices(
        trace.times, trace.sizes, trace.directions, plan, window
    )


def augment_direction_dropout(matrix: np.ndarray, window: float) -> np.ndarray:
    """Capture-asymmetry augmentation: every window heard one-sided.

    An eavesdropper's vantage point often yields only one link direction
    (weak uplink from a distant client, or vice versa) — and reshaping
    itself concentrates a size range's traffic on whichever direction
    carries those sizes.  Training on one-sided variants of every window
    teaches the classifier that a missing direction is a property of the
    capture, not of the application.

    For each input row emits its downlink-only then uplink-only variant,
    skipping variants whose kept direction is empty.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    empty_iat = np.log(window + _IAT_EPSILON)
    empty = np.array([0.0, 0.0, 0.0, 0.0, 0.0, empty_iat], dtype=np.float64)
    variants = np.empty((len(matrix), 2, _N_FEATURES), dtype=np.float64)
    variants[:, 0, :6] = matrix[:, :6]
    variants[:, 0, 6:] = empty
    variants[:, 1, :6] = empty
    variants[:, 1, 6:] = matrix[:, 6:]
    # The count feature is log1p(count): positive exactly when the
    # direction carried at least one packet.
    kept = np.stack([matrix[:, 0] > 0, matrix[:, 6] > 0], axis=1)
    return variants[kept]


class WindowCache:
    """Memoizes windowing work shared across schemes and window sweeps.

    Two layers share one memo, each counted as
    ``proc.window_cache.<layer>_hits`` / ``_misses``: ``plan`` (fused
    plans, by scheme and trace) and ``matrices`` (per-flow matrix lists,
    by scheme, trace and window).  Keys use object identity; cached keys
    pin their sources so ``id()`` reuse after garbage collection cannot
    alias.

    Every build returns ``(value, subprofile)`` — the telemetry the work
    recorded while it physically ran (:func:`repro.obs.captured`) — and
    every request, hit or miss, gets the subprofile back to
    :func:`repro.obs.replay`, so a cell counts the same whether its
    cache was warm or cold.

    :attr:`pinned_bytes` is what the cached values hold: a plan's
    :attr:`~repro.defenses.base.FusedPlan.plan_bytes` and the ``nbytes``
    of matrices.  Each miss records it as the
    ``proc.window_cache.pinned_bytes`` gauge, which max-merges, so the
    gauge is the high-water mark.  :meth:`release` drops what one source
    (a scheme no later request names) holds.
    """

    def __init__(self) -> None:
        #: key -> (value, the bytes it adds to :attr:`pinned_bytes`)
        self._entries: dict[tuple, tuple[object, int]] = {}
        self._pinned: dict[int, object] = {}
        self.hits: int = 0
        self.misses: int = 0
        self.pinned_bytes: int = 0

    def _memo(
        self,
        layer: str,
        sources: tuple[object, ...],
        params: tuple[object, ...],
        build: Callable[[], object],
        nbytes: Callable[[object], int],
    ) -> object:
        """The cached ``build()`` for (``layer``, source identities, params).

        ``nbytes(value)`` is what the new entry adds to :attr:`pinned_bytes`.
        """
        key = self._key(layer, sources, params)
        if key in self._entries:
            self.hits += 1
            obs.add(f"proc.window_cache.{layer}_hits")
            return self._entries[key][0]
        self.misses += 1
        obs.add(f"proc.window_cache.{layer}_misses")
        for source in sources:
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(source)] = source
        value = build()
        size = nbytes(value)
        self._entries[key] = (value, size)
        self.pinned_bytes += size
        obs.gauge("proc.window_cache.pinned_bytes", self.pinned_bytes)
        return value

    @staticmethod
    def _key(
        layer: str, sources: tuple[object, ...], params: tuple[object, ...]
    ) -> tuple:
        # repro-lint: allow[nondeterminism]: cache is strictly process-local (never pickled) and pins sources against id() reuse
        return (layer, tuple(id(source) for source in sources), params)

    def release(self, source: object) -> None:
        """Drop every entry whose key names ``source``.

        For a source no later request names (combined_grid's previous
        stack, population_scale's per-station stack): its plans and
        matrices are freed, and each object those entries pinned
        and no remaining key names is unpinned — ``source`` itself
        included.  The freed bytes leave :attr:`pinned_bytes` and count
        in ``proc.window_cache.released_bytes``.  A source the cache
        does not hold is a no-op.
        """
        # repro-lint: allow[nondeterminism]: matches the id() keys _memo wrote; process-local
        ident = id(source)
        dropped = [key for key in self._entries if ident in key[1]]
        if not dropped:
            return
        freed = sum(self._entries.pop(key)[1] for key in dropped)
        named = {i for key in self._entries for i in key[1]}
        for orphan in {i for key in dropped for i in key[1]} - named:
            del self._pinned[orphan]
        self.pinned_bytes -= freed
        obs.add("proc.window_cache.released_bytes", freed)

    def fused_plan(
        self,
        scheme: object,
        trace: Trace,
        build: Callable[[], tuple[FusedPlan, "obs.Subprofile | None"]],
    ) -> tuple[FusedPlan, "obs.Subprofile | None"]:
        """The (cached) fused plan of ``trace`` under ``scheme``."""
        return self._memo(
            "plan", (scheme, trace), (), build, lambda built: built[0].plan_bytes
        )

    def flow_matrices(
        self,
        scheme: object,
        trace: Trace,
        window: float,
        build: Callable[[], tuple[list[np.ndarray], "obs.Subprofile | None"]],
    ) -> tuple[list[np.ndarray], "obs.Subprofile | None"]:
        """The (cached) per-flow matrices of one (scheme, trace, window).

        The window is normalized (:func:`~repro.analysis.windows.window_key`),
        so float jitter (``0.1 + 0.2`` vs ``0.3``) cannot miss.
        """
        return self._memo(
            "matrices",
            (scheme, trace),
            (window_key(window),),
            build,
            lambda built: sum(matrix.nbytes for matrix in built[0]),
        )

    def clear(self) -> None:
        """Drop every cached artifact (and the object pins)."""
        self._entries.clear()
        self._pinned.clear()
        self.hits = 0
        self.misses = 0
        self.pinned_bytes = 0
