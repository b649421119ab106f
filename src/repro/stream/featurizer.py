"""Online featurization: open eavesdropping windows, closed incrementally.

The batch engine (:func:`repro.analysis.batch.flow_feature_matrix`)
featurizes a whole flow after the fact; a live eavesdropper cannot.
:class:`StreamingFeaturizer` maintains one *open window* per flow,
buffers only the packets of that window, and emits the 12-feature
vector the moment the window closes (the first packet beyond its edge
arrives, or the stream ends).  It ingests packets two ways that share
all windowing and featurizing code:

* :meth:`StreamingFeaturizer.push_chunk` takes a time-ordered column
  chunk (:class:`~repro.stream.source.PacketChunk`).  It groups the
  chunk by station with a stable sort, computes every packet's window
  index at once (:func:`repro.analysis.windows.window_indices`), and
  closes every window that ends inside the chunk with one call to the
  shared kernel per station.  Only each flow's open boundary window
  carries over to the next chunk.  This is the route
  :meth:`~repro.stream.attack.OnlineAttack.consume` takes.
* :meth:`StreamingFeaturizer.push` takes one packet, for loops that
  must react to every close (the adaptive defender).

Parity contract — the acceptance bar of the streaming subsystem: for
any flow, the sequence of emitted vectors is **bit-identical** to the
rows of ``flow_feature_matrix`` on the same packets, and both routes
emit the same windows in the same order.  Three decisions make that
hold exactly rather than approximately:

* window membership follows the one grid rule of
  :mod:`repro.analysis.windows` — window k is
  ``[start + k*W, start + (k+1)*W)`` in the batch grid's own float
  arithmetic, never a rounded division;
* closed windows are featurized by the batch kernel itself
  (``repro.analysis.batch._grid_block``) on a grid of those windows'
  edges.  A window's reductions see the same contiguous float64 values
  whether its segment sits in a whole flow (batch), a chunk's run of
  windows or one window's buffer, so the bits agree;
* like the batch path, only downlink/uplink packets are featurized and
  counted toward ``min_packets``.

Memory is O(open windows): per flow, only the current window's packets
are buffered, so a multi-million-packet capture streams in bounded
space — the property ``benchmarks/bench_stream.py`` asserts.

Telemetry goes to the process's active :mod:`repro.obs` capture only:
the ``stream.*`` counters (flows opened, windows closed and dropped,
packets windowed, chunks ingested) and the ``stream.peak_open_packets``
/ ``stream.peak_open_flows`` high-water gauges, recorded at each close
or chunk and at :meth:`~StreamingFeaturizer.flush`.  The hot paths keep
plain ``int`` accumulators (also readable as :attr:`peak_open_packets`
and :attr:`windows_emitted`); the peak is exact on both routes, a
running sum of +1 per buffered packet and -count at each close.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.analysis.batch import _grid_block
from repro.analysis.windows import grid_edges, window_index, window_indices
from repro.stream.source import PacketChunk
from repro.util.validation import require, require_positive

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
    ``(times, float64 sizes)`` blocks a chunk carried over (``blocks``),
    followed by the packets pushed one at a time since (``times`` /
    ``sizes`` lists).
    """

    __slots__ = (
        "start", "index", "count", "label", "last_time", "times", "sizes", "blocks"
    )

    def __init__(self, start: float):
        self.start = start  # grid anchor: the flow's first packet time
        self.index = 0
        self.last_time = start
        self.clear_window()

    def clear_window(self) -> None:
        self.count = 0
        self.label: str | None = None  # ground truth is per-window, never inherited
        self.times: tuple[list[float], list[float]] = ([], [])
        self.sizes: tuple[list[float], list[float]] = ([], [])
        self.blocks: tuple[list, list] = ([], [])

    def carry(self, direction: int, times: np.ndarray, sizes: np.ndarray) -> None:
        """Buffer a block of packets after those already buffered."""
        self._settle(direction)
        self.blocks[direction].append((times, sizes))

    def buffered(self, direction: int) -> tuple[np.ndarray, np.ndarray]:
        """The direction's buffered ``(times, float64 sizes)``, in time order."""
        self._settle(direction)
        blocks = self.blocks[direction]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return np.empty(0), np.empty(0)
        return (
            np.concatenate([times for times, _ in blocks]),
            np.concatenate([sizes for _, sizes in blocks]),
        )

    def _settle(self, direction: int) -> None:
        if self.times[direction]:
            self.blocks[direction].append(
                (
                    np.array(self.times[direction], dtype=np.float64),
                    np.array(self.sizes[direction], dtype=np.float64),
                )
            )
            self.times[direction].clear()
            self.sizes[direction].clear()


def _time_error(flow: object, time: float, previous: float) -> ValueError:
    if not math.isfinite(time):
        return ValueError(f"flow {flow!r} has a non-finite packet time: {time}")
    return ValueError(f"flow {flow!r} went backwards in time: {time} after {previous}")


class StreamingFeaturizer:
    """Incrementally windows and featurizes many concurrent flows.

    Args:
        window: the eavesdropping duration W in seconds.
        min_packets: windows with fewer downlink + uplink packets are
            dropped (matching the batch path's filter).

    Feed it with :meth:`push_chunk`, or packet by packet with
    :meth:`push` (or :meth:`push_event`), in per-flow time order;
    closed windows are returned as they happen.  Call :meth:`flush`
    when the capture ends to close the windows still open.
    """

    def __init__(self, window: float, min_packets: int = 2):
        require_positive(window, "window")
        require(min_packets >= 1, "min_packets must be >= 1")
        self.window = float(window)
        self.min_packets = int(min_packets)
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

    def push(
        self,
        flow: object,
        time: float,
        size: int,
        direction: int,
        label: str | None = None,
    ) -> list[ClosedWindow]:
        """Ingest one packet; return any window this packet closed.

        Packets of one flow must arrive in non-decreasing time order
        (a merged multi-station stream satisfies this per station by
        construction); a regression or a non-finite time raises instead
        of corrupting the window grid.
        """
        time = float(time)
        state = self._flows.get(flow)
        closed: list[ClosedWindow] = []
        if state is None:
            state = self._open(flow, time)
        else:
            if not state.last_time <= time < math.inf:
                raise _time_error(flow, time, state.last_time)
            index = window_index(time, state.start, self.window)
            if index != state.index:
                closed = self._close(flow, state)
                state.index = index
        state.last_time = time
        if label is not None:
            state.label = label
        d = int(direction)
        if d == 0 or d == 1:
            state.times[d].append(time)
            state.sizes[d].append(float(size))
            state.count += 1
            self._open_packets += 1
            if self._open_packets > self.peak_open_packets:
                self.peak_open_packets = self._open_packets
        return closed

    def push_event(self, event, flow: object | None = None) -> list[ClosedWindow]:
        """Ingest a :class:`~repro.stream.source.PacketEvent`.

        The flow key defaults to the event's station — the eavesdropper
        groups windows by observed identity.
        """
        return self.push(
            flow if flow is not None else event.station,
            event.time,
            event.size,
            event.direction,
            event.label,
        )

    def push_chunk(self, chunk: PacketChunk) -> list[ClosedWindow]:
        """Ingest a chunk; return the windows it closed, in close order.

        Equivalent to :meth:`push_event` on each of the chunk's packets
        in order (the flow key is the station), concatenating what each
        returns: the same windows, vectors, order and peaks.
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
        codes = chunk.stations[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        bounds = np.append(starts, n).tolist()
        times = chunk.times[order]
        # Stations in first-seen order, so new flows open (and later
        # flush) in the order the per-packet route opens them.
        visit = np.argsort(order[starts], kind="stable").tolist()
        flows = [chunk.station_names[code] for code in codes[starts].tolist()]
        states = [self._flows.get(flow) for flow in flows]
        for run in visit:
            if states[run] is None:
                states[run] = self._open(flows[run], float(times[bounds[run]]))
        self._check_order(flows, states, times, starts, bounds, visit)
        index = window_indices(
            times,
            np.repeat([state.start for state in states], np.diff(bounds)),
            self.window,
        )
        directions = chunk.directions[order]
        sizes = chunk.sizes[order].astype(np.float64)
        labels = chunk.labels[order]
        labelled = np.array([name is not None for name in chunk.label_names])[labels]

        # +1 per buffered packet; each close subtracts its window's count
        # at the chunk position of the packet that closed it.
        delta = ((chunk.directions == 0) | (chunk.directions == 1)).astype(np.int64)
        closed: list[ClosedWindow] = []
        positions: list[np.ndarray] = []
        for run in visit:
            lo, hi = bounds[run], bounds[run + 1]
            state = states[run]
            last = int(index[hi - 1])
            if last != state.index:
                # Every window before ``last`` closes inside the chunk;
                # window w closes at the flow's first packet beyond it.
                cut = lo + int(np.searchsorted(index[lo:hi], last))
                first = state.index
                window_labels = {first: state.label}
                marked = lo + np.flatnonzero(labelled[lo:cut])
                if len(marked):
                    final = marked[np.append(np.diff(index[marked]) != 0, True)]
                    for k, code in zip(index[final].tolist(), labels[final].tolist()):
                        window_labels[k] = chunk.label_names[code]
                by_direction = []
                for d in (0, 1):
                    mask = directions[lo:cut] == d
                    carried_times, carried_sizes = state.buffered(d)
                    by_direction.append(
                        (
                            np.concatenate((carried_times, times[lo:cut][mask])),
                            np.concatenate((carried_sizes, sizes[lo:cut][mask])),
                        )
                    )
                windows, totals = self._emit(
                    flows[run], state, first, last, by_direction, window_labels
                )
                occupied = np.flatnonzero(totals)
                close_at = order[
                    lo + np.searchsorted(index[lo:hi], first + occupied, side="right")
                ]
                delta[close_at] -= totals[occupied]
                closed.extend(windows)
                positions.append(close_at[totals[occupied] >= self.min_packets])
                state.clear_window()
                state.index = last
                lo = cut
            for d in (0, 1):
                mask = directions[lo:hi] == d
                count = int(np.count_nonzero(mask))
                if count:
                    state.carry(d, times[lo:hi][mask], sizes[lo:hi][mask])
                    state.count += count
            marked = np.flatnonzero(labelled[lo:hi])
            if len(marked):
                state.label = chunk.label_names[labels[lo + marked[-1]]]
            state.last_time = float(times[hi - 1])

        running = np.cumsum(delta)
        self.peak_open_packets = max(
            self.peak_open_packets, self._open_packets + int(running.max())
        )
        self._open_packets += int(running[-1])
        self._record_peaks()
        if len(closed) > 1:
            by_position = np.argsort(np.concatenate(positions))
            closed = [closed[i] for i in by_position.tolist()]
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
        windows, _ = self._emit(
            flow, state, state.index, state.index + 1, by_direction,
            {state.index: state.label},
        )
        self._open_packets -= state.count
        state.clear_window()
        self._record_peaks()
        return windows

    def _emit(
        self,
        flow: object,
        state: _FlowState,
        first: int,
        stop: int,
        by_direction: list[tuple[np.ndarray, np.ndarray]],
        labels: dict[int, str | None],
    ) -> tuple[list[ClosedWindow], np.ndarray]:
        """Featurize grid windows ``first .. stop - 1`` of a flow in one kernel call.

        ``labels`` maps a window index to its ground truth (None when
        absent).  Returns the windows that meet ``min_packets`` and every
        window's packet count; counts the emitted and dropped windows.
        """
        rows, totals = _grid_block(
            grid_edges(state.start, first, stop, self.window), by_direction, self.window
        )
        kept = np.flatnonzero(totals >= self.min_packets)
        dropped = np.count_nonzero(totals) - len(kept)
        if dropped:
            obs.add("stream.windows_dropped", dropped)
        if not len(kept):
            return [], totals
        window = self.window
        windows = [
            ClosedWindow(
                flow=flow,
                index=k,
                start=state.start + k * window,
                label=labels.get(k),
                count=count,
                features=row,
            )
            for k, count, row in zip(
                (first + kept).tolist(), totals[kept].tolist(), rows[kept]
            )
        ]
        self.windows_emitted += len(windows)
        obs.add("stream.windows_closed", len(windows))
        obs.add("stream.packets_windowed", int(totals[kept].sum()))
        return windows, totals
