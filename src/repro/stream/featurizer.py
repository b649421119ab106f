"""Online featurization: open eavesdropping windows, closed incrementally.

The batch engine (:func:`repro.analysis.batch.flow_feature_matrix`)
featurizes a whole flow after the fact; a live eavesdropper cannot.
:class:`StreamingFeaturizer` maintains one *open window* per flow,
buffers only the packets of that window, and emits the 12-feature
vector the moment the window closes (the first packet beyond its edge
arrives, or the stream ends).

It ingests time-ordered column chunks through
:meth:`StreamingFeaturizer.push_chunk`: a chunk is grouped by station
with a stable sort, every packet's window index is computed at once,
and every window that ends inside the chunk, for every station, closes
in one pass of the shared kernel.  The bookkeeping (cut points, close
positions, labels, peak accounting) is array operations over the
station-sorted chunk; only each flow's open window carries over.
:meth:`~repro.stream.attack.OnlineAttack.consume` and the arms race
(:func:`repro.stream.adaptive.run_arms_race`) both run on it;
:meth:`StreamingFeaturizer.flush` closes what is still open, for one
retired flow or for all.

Parity contract — the acceptance bar of the streaming subsystem: for
any flow, the sequence of emitted vectors is **bit-identical** to the
rows of ``flow_feature_matrix`` on the same packets, and a capture
emits the same windows, in the same order, whatever its chunk sizes —
the windows the per-packet reference in ``tests/oracles/stream.py``
emits.  Three decisions make that hold exactly rather than
approximately:

* window membership follows the one grid rule of
  :mod:`repro.analysis.windows` — window k is
  ``[start + k*W, start + (k+1)*W)`` in the batch grid's own float
  arithmetic, never a rounded division;
* closed windows are featurized by the batch kernel itself
  (``repro.analysis.batch._window_block`` for a chunk's stacked
  windows, ``_grid_block`` for one window closed by :meth:`flush`).  A
  window's reductions see the same contiguous float64 values whether
  its segment sits in a whole flow (batch), a chunk's stacked windows
  or one window's buffer, so the bits agree;
* like the batch path, only downlink/uplink packets are featurized and
  counted toward ``MIN_WINDOW_PACKETS``.

Memory is O(open windows): per flow, only the current window's packets
are buffered, so a multi-million-packet capture streams in bounded
space — the property ``benchmarks/bench_stream.py`` asserts.

Telemetry goes to the process's active :mod:`repro.obs` capture only:
the ``stream.*`` counters (flows opened, windows closed and dropped,
packets windowed, chunks ingested) and the ``stream.peak_open_packets``
/ ``stream.peak_open_flows`` high-water gauges, recorded at each chunk
and close and at :meth:`~StreamingFeaturizer.flush`.  The hot paths keep
plain ``int`` accumulators (also readable as :attr:`peak_open_packets`
and :attr:`windows_emitted`); the peak is exact whatever the chunking,
a running sum of +1 per buffered packet and -count at each close.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.analysis.batch import _grid_block, _window_block
from repro.analysis.windows import MIN_WINDOW_PACKETS, grid_edges, window_indices
from repro.stream.source import PacketChunk
from repro.util.validation import require_positive

__all__ = ["ClosedWindow", "StreamingFeaturizer"]


class ClosedWindow(NamedTuple):
    """One emitted eavesdropping window.

    Attributes:
        flow: the flow key the window belongs to.
        index: window index k on the flow's grid (gaps mark silence).
        start: left edge of the window on the global clock.
        label: ground truth of the window's most recent packet (None
            when the stream carries no labels).
        count: downlink + uplink packets in the window.
        features: the 12-entry vector, bit-identical to the matching
            ``flow_feature_matrix`` row.
    """

    flow: object
    index: int
    start: float
    label: str | None
    count: int
    features: np.ndarray


class _FlowState:
    """Open-window bookkeeping of one flow.

    Per direction, the open window's packets are buffered as the
    ``(times, float64 sizes)`` blocks the chunks carried over
    (``blocks``), in time order.
    """

    __slots__ = ("start", "index", "count", "label", "last_time", "blocks")

    def __init__(self, start: float):
        self.start = start  # grid anchor: the flow's first packet time
        self.index = 0
        self.last_time = start
        self.clear_window()

    def clear_window(self) -> None:
        self.count = 0
        self.label: str | None = None  # ground truth is per-window, never inherited
        self.blocks: tuple[list, list] = ([], [])

    def carry(self, direction: int, times: np.ndarray, sizes: np.ndarray) -> None:
        """Buffer a block of packets after those already buffered."""
        self.blocks[direction].append((times, sizes))

    def buffered(self, direction: int) -> tuple[np.ndarray, np.ndarray]:
        """The direction's buffered ``(times, float64 sizes)``, in time order."""
        blocks = self.blocks[direction]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return np.empty(0), np.empty(0)
        return (
            np.concatenate([times for times, _ in blocks]),
            np.concatenate([sizes for _, sizes in blocks]),
        )


def _time_error(flow: object, time: float, previous: float) -> ValueError:
    if not math.isfinite(time):
        return ValueError(f"flow {flow!r} has a non-finite packet time: {time}")
    return ValueError(f"flow {flow!r} went backwards in time: {time} after {previous}")


class StreamingFeaturizer:
    """Incrementally windows and featurizes many concurrent flows.

    Args:
        window: the eavesdropping duration W in seconds.

    Windows with fewer than ``MIN_WINDOW_PACKETS`` downlink + uplink
    packets are dropped, as on the batch path.

    Feed it with :meth:`push_chunk`, in per-flow time order; closed
    windows are returned as they happen.  Call :meth:`flush` when the
    capture ends to close the windows still open.
    """

    def __init__(self, window: float):
        require_positive(window, "window")
        self.window = float(window)
        self._flows: dict[object, _FlowState] = {}
        self._open_packets = 0
        self.windows_emitted = 0
        self.peak_open_packets = 0
        self.peak_open_flows = 0

    # -- accounting --------------------------------------------------------

    @property
    def open_flows(self) -> int:
        """Flows with an open window right now."""
        return len(self._flows)

    @property
    def open_packets(self) -> int:
        """Packets currently buffered across all open windows."""
        return self._open_packets

    def _record_peaks(self) -> None:
        obs.gauge("stream.peak_open_packets", self.peak_open_packets)
        obs.gauge("stream.peak_open_flows", self.peak_open_flows)

    def _open(self, flow: object, time: float) -> _FlowState:
        if not math.isfinite(time):
            raise _time_error(flow, time, time)
        state = self._flows[flow] = _FlowState(time)
        self.peak_open_flows = max(self.peak_open_flows, len(self._flows))
        obs.add("stream.flows_opened")
        return state

    # -- ingestion ---------------------------------------------------------

    def push_chunk(self, chunk: PacketChunk) -> list[ClosedWindow]:
        """Ingest a chunk; return the windows it closed, in close order.

        The flow key is the station.  Packets of one flow must be in
        non-decreasing time order across chunks; a regression or a
        non-finite time raises.  Chunking a capture differently changes
        nothing observable (windows, vectors, order, peaks).  Every
        window the chunk closes is featurized in one kernel pass.
        """
        obs.add("stream.chunks")
        n = len(chunk.times)
        if n == 0:
            return []
        # Group by station; the stable sort keeps each group in time order.
        # numpy's stable sort is a radix sort only for <= 16-bit keys
        # (~10x faster here than the int64 timsort fallback).
        key = chunk.stations
        if len(chunk.station_names) <= np.iinfo(np.int16).max:
            key = key.astype(np.int16)
        order = np.argsort(key, kind="stable")
        counts = np.bincount(chunk.stations, minlength=len(chunk.station_names))
        codes = np.flatnonzero(counts)
        counts = counts[codes]
        bounds = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        times = chunk.times[order]
        # Stations in first-seen order, so new flows open (and later
        # flush) in the order their first packets arrive.
        visit = np.argsort(order[bounds[:-1]], kind="stable").tolist()
        flows = [chunk.station_names[code] for code in codes.tolist()]
        states = [self._flows.get(flow) for flow in flows]
        for run in visit:
            if states[run] is None:
                states[run] = self._open(flows[run], float(times[bounds[run]]))
        self._check_order(flows, states, times, bounds[:-1], bounds.tolist(), visit)
        runs = len(states)
        # Run numbers in the narrowest dtype the layout key below fits.
        narrow = np.int16 if 5 * runs <= np.iinfo(np.int16).max else np.int64
        run_of = np.repeat(np.arange(runs, dtype=narrow), counts)
        anchors = np.array([state.start for state in states])
        index = window_indices(times, anchors[run_of], self.window)
        labels = chunk.labels[order]
        labelled = np.array([name is not None for name in chunk.label_names])[labels]

        # Shift each run's window indices past the previous run's, so one
        # non-decreasing key orders (station, window) across the chunk:
        # run r's open window has key ``base[r]``, its last ``base[r] +
        # last[r] - opened[r]``.  Packets of a run's last window stay
        # open (``tail``); every window before it closes here, at the
        # run's first packet beyond it.
        opened = np.array([state.index for state in states], dtype=np.int64)
        last = index[bounds[1:] - 1]
        span = last - opened + 1
        base = np.cumsum(span) - span
        shift = base - opened
        wkey = index + shift[run_of]
        tail = wkey >= (last + shift)[run_of]
        closing = np.flatnonzero(last != opened)

        # +1 per buffered packet; each close subtracts its window's count
        # at the chunk position of the packet that closed it.
        valid = (chunk.directions == 0) | (chunk.directions == 1)
        delta = valid.astype(np.int64)

        # Lay the packets out with one stable radix sort on (group, run).
        # Groups 0 and 1 hold the downlink and uplink packets of closing
        # windows, each closing run's carried window ahead of its chunk
        # packets; groups 2 and 3 those of each run's last window, which
        # stays open; group 4 the other directions.  So every (group,
        # run) slice is in time order, as the kernel and the carry read it.
        carried = [states[run].buffered(d) for run in closing.tolist() for d in (0, 1)]
        held = [len(t) for t, _ in carried]
        group = tail.astype(narrow)
        group *= 2
        group += chunk.directions[order]
        group[~valid[order]] = 4
        group *= runs
        group += run_of
        held_group = np.tile([0, runs], len(closing)) + np.repeat(closing, 2)
        key = np.concatenate((np.repeat(held_group.astype(narrow), held), group))
        lay = np.argsort(key, kind="stable")
        cuts = np.zeros(5 * runs + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=5 * runs), out=cuts[1:])
        cuts = cuts.tolist()
        laid_times = np.concatenate([t for t, _ in carried] + [times])[lay]
        laid_sizes = np.concatenate(
            [z for _, z in carried] + [chunk.sizes[order]], dtype=np.float64
        )[lay]

        closed: list[ClosedWindow] = []
        if cuts[2 * runs]:
            laid_keys = np.concatenate(
                (np.repeat(np.repeat(base[closing], 2), held), wkey)
            )[lay[: cuts[2 * runs]]]
            stacked = [
                (laid_times[lo:hi], laid_sizes[lo:hi], laid_keys[lo:hi])
                for lo, hi in ((0, cuts[runs]), (cuts[runs], cuts[2 * runs]))
            ]
            # The closed windows that hold a packet, in key order.
            window_keys = np.union1d(*(k[_run_ends(k)] for _, _, k in stacked))
            limits = np.append(window_keys, window_keys[-1] + 1)
            window_run = np.searchsorted(base, window_keys, side="right") - 1
            window_index = window_keys - shift[window_run]
            lefts = anchors[window_run] + window_index * self.window
            rows, totals = _window_block(
                lefts,
                [(t, z, np.searchsorted(k, limits)) for t, z, k in stacked],
                self.window,
            )
            close_at = order[np.searchsorted(wkey, window_keys, side="right")]
            delta[close_at] -= totals

            # A window's label is its last labelled chunk packet's (any
            # direction), else the carried window's label, else None.
            window_labels = np.full(len(window_keys), None, dtype=object)
            at = _positions(window_keys, base[closing])
            window_labels[at[at >= 0]] = [
                states[run].label for run in closing[at >= 0].tolist()
            ]
            marked = np.flatnonzero(labelled & ~tail)
            final = marked[_run_ends(wkey[marked])]
            at = _positions(window_keys, wkey[final])
            window_labels[at[at >= 0]] = np.array(chunk.label_names, dtype=object)[
                labels[final[at >= 0]]
            ]

            sequence = np.argsort(close_at)
            closed = self._emit(
                rows[sequence],
                totals[sequence],
                [flows[run] for run in window_run[sequence].tolist()],
                window_index[sequence],
                lefts[sequence],
                window_labels[sequence].tolist(),
            )
        last_index = last.tolist()
        for run in closing.tolist():
            states[run].clear_window()
            states[run].index = last_index[run]

        # Each run's last window stays open into the next chunk.  Copies:
        # a view would pin the whole laid-out chunk.
        for d in (0, 1):
            for run, state in enumerate(states):
                lo, hi = cuts[(2 + d) * runs + run], cuts[(2 + d) * runs + run + 1]
                if hi > lo:
                    state.carry(d, laid_times[lo:hi].copy(), laid_sizes[lo:hi].copy())
                    state.count += hi - lo
        marked = np.flatnonzero(labelled & tail)
        final = marked[_run_ends(run_of[marked])]
        for run, code in zip(run_of[final].tolist(), labels[final].tolist()):
            states[run].label = chunk.label_names[code]
        for state, time in zip(states, times[bounds[1:] - 1].tolist()):
            state.last_time = time

        running = np.cumsum(delta)
        self.peak_open_packets = max(
            self.peak_open_packets, self._open_packets + int(running.max())
        )
        self._open_packets += int(running[-1])
        self._record_peaks()
        return closed

    def flush(self, flow: object | None = None) -> list[ClosedWindow]:
        """Close the open window of ``flow`` (or of every flow).

        Flows flush in first-seen order, matching the batch evaluation's
        per-flow iteration.  Flushed flows forget their grid anchor; a
        later packet on the same key starts a fresh flow.
        """
        keys = list(self._flows) if flow is None else [flow]
        closed: list[ClosedWindow] = []
        for key in keys:
            state = self._flows.pop(key, None)
            if state is not None:
                closed.extend(self._close(key, state))
        self._record_peaks()
        return closed

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_order(flows, states, times, starts, bounds, visit) -> None:
        """Raise unless every flow's times in a chunk are finite and in order."""
        steps = np.diff(times, prepend=np.nan)
        steps[starts] = times[starts] - [state.last_time for state in states]
        if np.isfinite(times).all() and (steps >= 0).all():
            return
        for run in visit:
            lo, hi = bounds[run], bounds[run + 1]
            bad = np.flatnonzero(~(np.isfinite(times[lo:hi]) & (steps[lo:hi] >= 0)))
            if len(bad):
                at = lo + int(bad[0])
                previous = states[run].last_time if at == lo else float(times[at - 1])
                raise _time_error(flows[run], float(times[at]), previous)

    def _close(self, flow: object, state: _FlowState) -> list[ClosedWindow]:
        """Close the open window of ``state``: a one-window run of the grid."""
        if state.count == 0:
            state.clear_window()
            return []
        by_direction = [state.buffered(d) for d in (0, 1)]
        edges = grid_edges(state.start, state.index, state.index + 1, self.window)
        rows, totals = _grid_block(edges, by_direction, self.window)
        windows = self._emit(
            rows, totals, [flow], np.array([state.index]), edges[:-1], [state.label]
        )
        self._open_packets -= state.count
        state.clear_window()
        self._record_peaks()
        return windows

    def _emit(
        self,
        rows: np.ndarray,
        totals: np.ndarray,
        flows: list[object],
        indices: np.ndarray,
        starts: np.ndarray,
        labels: list[str | None],
    ) -> list[ClosedWindow]:
        """The kernel's windows that meet ``MIN_WINDOW_PACKETS``, in row order.

        ``flows``, ``indices`` (grid index), ``starts`` (left edge) and
        ``labels`` describe each row's window, ``totals`` its packet
        count.  Counts the emitted and dropped windows.
        """
        kept = np.flatnonzero(totals >= MIN_WINDOW_PACKETS)
        dropped = np.count_nonzero(totals) - len(kept)
        if dropped:
            obs.add("stream.windows_dropped", dropped)
        if not len(kept):
            return []
        # tuple.__new__ is what ClosedWindow._make runs, minus a Python
        # frame per window.
        windows = list(
            map(
                tuple.__new__,
                repeat(ClosedWindow),
                zip(
                    map(flows.__getitem__, kept.tolist()),
                    indices[kept].tolist(),
                    starts[kept].tolist(),
                    map(labels.__getitem__, kept.tolist()),
                    totals[kept].tolist(),
                    rows[kept],
                ),
            )
        )
        self.windows_emitted += len(windows)
        obs.add("stream.windows_closed", len(windows))
        obs.add("stream.packets_windowed", int(totals[kept].sum()))
        return windows


def _positions(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each of ``wanted`` sits in the sorted ``keys``; -1 if absent."""
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def _run_ends(values: np.ndarray) -> np.ndarray:
    """Mask of the last entry of each run of equal ``values``."""
    ends = np.ones(len(values), dtype=bool)
    ends[:-1] = values[1:] != values[:-1]
    return ends
