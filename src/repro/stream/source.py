"""Packet streams: replaying traces as timestamp-ordered captures.

The paper's threat model is online — "the adversary keeps snooping the
WLAN channels" and classifies traffic as it is captured — so the
streaming engine consumes a capture in time order rather than whole
traces.  :class:`PacketStream` is the abstraction: a capture in
non-decreasing time order, readable two ways —

* as :class:`PacketChunk` s (:meth:`PacketStream.chunks`): time-ordered
  column blocks of about 64k packets, what
  :meth:`~repro.stream.attack.OnlineAttack.consume` runs on;
* as :class:`PacketEvent` s (iteration), one packet at a time, built
  from those chunks, for ``perfbench/tracer.py``: its ``--trace 1``
  wrapper hands ``consume`` a counting event iterator.

Constructors:

* :meth:`PacketStream.replay` turns one :class:`~repro.traffic.trace.Trace`
  into a column source: the trace's own columns (or memmap slices),
  plus station, label and time offset.  Nothing is copied up front.
* :meth:`PacketStream.replay_plan` turns one trace and a
  :class:`~repro.defenses.base.FusedPlan` into one column source that
  emits every observable flow the plan describes: each packet's station
  is its flow, each size goes through the plan's size transform.  No
  flow is materialized.
* :meth:`PacketStream.from_store` replays a persisted
  :class:`~repro.storage.TraceStore` corpus the same way, straight off
  its memory-mapped columns.
* :meth:`PacketStream.merge` interleaves many concurrent stations into
  one global capture.  Column sources merge by a vectorized k-way merge
  (a nested merge flattens into one source list): each chunk takes
  every packet up to a cutoff time from every source with
  ``searchsorted(..., "right")`` and stable-argsorts the concatenation,
  which orders equal timestamps by source, then by position within the
  source, exactly as a heap merge keyed on (time, source index,
  position) would.  Inside a plan source that is capture order, across
  its flows; each station's own packets keep their order either way.
  Memory is one chunk plus a bounded look-ahead per source, never
  O(trace length), and a merged replay is reproducible bit-for-bit.

Every route validates as it goes: a non-finite or decreasing timestamp
raises a :class:`ValueError` naming the station and the time instead
of silently producing windows that disagree with the batch oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro import obs
from repro.traffic.trace import Trace
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.defenses.base import FusedPlan

__all__ = ["PacketChunk", "PacketEvent", "PacketStream", "event_chunks"]

#: Packets per chunk (about; equal timestamps are never split).
_CHUNK_EVENTS = 1 << 16


class PacketEvent(NamedTuple):
    """One captured packet, as the streaming eavesdropper sees it.

    Attributes:
        time: capture timestamp in seconds (global clock).
        size: MAC-frame size in bytes.
        direction: 0 = downlink, 1 = uplink (:class:`~repro.traffic.packet.Direction`).
        station: identity of the emitting flow — for an eavesdropper
            this is the observed MAC address / channel slice; the
            streaming featurizer keys open windows by it.
        label: ground-truth application, when known to the evaluation
            (None for genuinely unlabeled traffic).
    """

    time: float
    size: int
    direction: int
    station: str
    label: str | None


class PacketChunk(NamedTuple):
    """A block of consecutive packets of a capture, as columns.

    ``stations`` and ``labels`` are integer codes into
    ``station_names`` / ``label_names`` (a label name may be None).
    """

    times: np.ndarray
    sizes: np.ndarray
    directions: np.ndarray
    stations: np.ndarray
    labels: np.ndarray
    station_names: tuple
    label_names: tuple

    def events(self) -> Iterator[PacketEvent]:
        """The chunk's packets as :class:`PacketEvent` s, in order."""
        # tuple.__new__ is what PacketEvent._make runs, minus a Python
        # frame per packet.
        return map(
            tuple.__new__,
            repeat(PacketEvent),
            zip(
                self.times.tolist(),
                self.sizes.tolist(),
                self.directions.tolist(),
                map(self.station_names.__getitem__, self.stations.tolist()),
                map(self.label_names.__getitem__, self.labels.tolist()),
            ),
        )


def _codes(values: Sequence[object]) -> tuple[np.ndarray, tuple]:
    """Integer codes of ``values`` and the names they index, first-seen order."""
    names = tuple(dict.fromkeys(values))
    code_of = {name: code for code, name in enumerate(names)}
    codes = np.fromiter(map(code_of.__getitem__, values), np.int64, len(values))
    return codes, names


def event_chunks(events: Iterable[PacketEvent]) -> Iterator[PacketChunk]:
    """Batch any event iterable into :class:`PacketChunk` s, order kept.

    How ``OnlineAttack.consume`` reads an event iterable.  No ordering
    is checked here: the streaming featurizer checks each flow's times
    as it ingests the chunk.
    """
    iterator = iter(events)
    while True:
        batch = list(islice(iterator, _CHUNK_EVENTS))
        if not batch:
            return
        n = len(batch)
        station_codes, station_names = _codes(list(map(itemgetter(3), batch)))
        label_codes, label_names = _codes(list(map(itemgetter(4), batch)))
        yield PacketChunk(
            np.fromiter(map(itemgetter(0), batch), np.float64, n),
            np.fromiter(map(itemgetter(1), batch), np.int64, n),
            np.fromiter(map(itemgetter(2), batch), np.int64, n),
            station_codes,
            label_codes,
            station_names,
            label_names,
        )


class _Source(NamedTuple):
    """One replayed trace: its columns plus what each packet is stamped with.

    ``stations`` holds each packet's code into ``station_names``: a
    zero-stride view for a one-station replay, a plan's flow
    assignments for a replay through a fused plan.  ``size_transform``
    (elementwise, or ``None``) rewrites sizes as they are read.
    """

    times: np.ndarray
    sizes: np.ndarray
    directions: np.ndarray
    stations: np.ndarray
    station_names: tuple
    label: str | None
    offset: float
    size_transform: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def station_at(self, index: int) -> object:
        """The station packet ``index`` is stamped with."""
        return self.station_names[int(self.stations[index])]


def _check_times(
    times: np.ndarray, previous: float, source: _Source, start: int
) -> None:
    """Raise unless ``times`` are finite and non-decreasing after ``previous``.

    ``times`` are ``source``'s packets from ``start`` on; an error names
    the station of the offending packet.
    """
    finite = np.isfinite(times)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ValueError(
            f"station {source.station_at(start + at)!r} has a non-finite "
            f"packet time: {times[at]}"
        )
    steps = np.diff(times, prepend=previous)
    if (steps < 0).any():
        at = int(np.argmax(steps < 0))
        before = times[at - 1] if at else previous
        raise ValueError(
            f"station {source.station_at(start + at)!r} went backwards in time: "
            f"{times[at]} after {before}"
        )


class _Cursor:
    """Read position and look-ahead window of one column source.

    ``codes`` maps the source's station codes to the merged capture's.
    """

    __slots__ = ("source", "codes", "label", "position", "end", "last", "ahead")

    def __init__(self, source: _Source, codes: np.ndarray, label: int):
        self.source = source
        self.codes = codes
        self.label = label
        self.position = 0
        self.end = len(source.times)
        self.last = -math.inf
        self.ahead = source.times[:0]

    def look_ahead(self, count: int) -> np.ndarray:
        """The next ``count`` (or fewer) times, offset applied and validated."""
        stop = min(self.position + count, self.end)
        start = self.position + len(self.ahead)
        if stop > start:
            times = self.source.times[start:stop]
            if self.source.offset:
                times = times + self.source.offset
            previous = self.ahead[-1] if len(self.ahead) else self.last
            _check_times(times, previous, self.source, start)
            self.ahead = np.concatenate((self.ahead, times)) if len(self.ahead) else times
        return self.ahead

    def take(self, cutoff: float, step: int) -> int:
        """Packets up to ``cutoff``; ties are followed past the look-ahead."""
        ahead = self.look_ahead(step)
        count = int(np.searchsorted(ahead, cutoff, "right"))
        while count == len(ahead) and self.position + count < self.end:
            ahead = self.look_ahead(len(ahead) + step)
            count = int(np.searchsorted(ahead, cutoff, "right"))
        return count

    def columns(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sizes (transformed), directions and station codes of the next ``count``."""
        source = self.source
        at = slice(self.position, self.position + count)
        sizes, directions = source.sizes[at], source.directions[at]
        if source.size_transform is not None:
            sizes = source.size_transform(sizes, directions)
        return sizes, directions, self.codes[source.stations[at]]

    def advance(self, count: int) -> None:
        if count:
            self.last = float(self.ahead[count - 1])
            self.position += count
            self.ahead = self.ahead[count:]


def _column_chunks(sources: Sequence[_Source]) -> Iterator[PacketChunk]:
    """Vectorized k-way merge of column sources into time-ordered chunks.

    Each chunk's cutoff is the earliest time a live source reaches
    ``step`` packets ahead (no cutoff when every source ends sooner), so
    the source that sets it contributes ``step`` packets and every other
    source at most ``step`` plus ties.
    ``step`` starts at ``chunk // sources`` and adapts: it doubles while
    chunks come out small (skewed sources) and halves until a chunk
    holds at most twice the target.
    """
    target = _CHUNK_EVENTS
    station_codes, station_names = _codes(
        [name for source in sources for name in source.station_names]
    )
    bounds = np.cumsum([0] + [len(source.station_names) for source in sources])
    label_codes, label_names = _codes([source.label for source in sources])
    live = [
        _Cursor(source, station_codes[bounds[i] : bounds[i + 1]], int(label_codes[i]))
        for i, source in enumerate(sources)
        if len(source.times)
    ]
    step = max(1, target // max(1, len(live)))
    while live:
        while True:
            # A source that ends within the look-ahead bounds nothing.
            cutoff = min(
                (
                    float(cursor.look_ahead(step)[step - 1])
                    for cursor in live
                    if cursor.end - cursor.position > step
                ),
                default=math.inf,
            )
            counts = [cursor.take(cutoff, step) for cursor in live]
            total = sum(counts)
            if total <= 2 * target or step == 1:
                break
            step //= 2
        parts = [(cursor, count) for cursor, count in zip(live, counts) if count]
        times = np.concatenate([cursor.ahead[:count] for cursor, count in parts])
        columns = [
            np.concatenate(column)
            for column in zip(*(cursor.columns(count) for cursor, count in parts))
        ]
        columns.append(
            np.repeat([cursor.label for cursor, _ in parts], [n for _, n in parts])
        )
        if len(parts) > 1:
            # Concatenation is in source order, so a stable sort on time
            # breaks ties by source, then by position within the source.
            order = np.argsort(times, kind="stable")
            times = times[order]
            columns = [column[order] for column in columns]
        for cursor, count in parts:
            cursor.advance(count)
        live = [cursor for cursor in live if cursor.position < cursor.end]
        if total < target // 2:
            step = min(2 * step, target)
        yield PacketChunk(times, *columns, station_names, label_names)


class PacketStream:
    """A capture in non-decreasing time order, as chunks or as events.

    Built from column sources by :meth:`replay`, :meth:`from_store` and
    :meth:`merge`; ``PacketStream(events)`` wraps any event iterable
    and re-checks its ordering on the way through, so downstream
    consumers (featurizer, attack loop) can assume a valid capture
    without re-validating.
    """

    def __init__(self, events: Iterable[PacketEvent]):
        self._events = events
        self._sources: tuple[_Source, ...] | None = None

    @classmethod
    def _of(cls, sources: Sequence[_Source]) -> "PacketStream":
        stream = cls(())
        stream._sources = tuple(sources)
        return stream

    def chunks(self) -> Iterator[PacketChunk]:
        """The capture as time-ordered :class:`PacketChunk` s."""
        if self._sources is None:
            return event_chunks(self)
        return _column_chunks(self._sources)

    def __iter__(self) -> Iterator[PacketEvent]:
        """The capture one :class:`PacketEvent` at a time (for
        ``perfbench``'s event-counting tracer; the engine reads chunks)."""
        if self._sources is not None:
            for chunk in _column_chunks(self._sources):
                yield from chunk.events()
            return
        last = -math.inf
        for event in self._events:
            if not math.isfinite(event.time):
                raise ValueError(
                    f"station {event.station!r} has a non-finite packet time: "
                    f"{event.time}"
                )
            if event.time < last:
                raise ValueError(
                    f"packet stream went backwards in time at station "
                    f"{event.station!r}: {event.time} after {last}"
                )
            last = event.time
            yield event

    @classmethod
    def replay(
        cls,
        trace: Trace,
        station: str = "sta0",
        label: str | None = None,
        offset: float = 0.0,
    ) -> "PacketStream":
        """Replay one trace as a stream of events from ``station``.

        Args:
            trace: the flow to replay (already time-sorted by invariant).
            station: flow identity stamped on every event.
            label: ground-truth label; defaults to ``trace.label``.
            offset: seconds added to every timestamp (for staging traces
                on a shared clock, e.g. concept-drift phases).
        """
        if label is None:
            label = trace.label
        # Counted at stream construction (the trace length is known up
        # front), not per event.
        obs.add("stream.traces_replayed")
        obs.add("stream.packets_replayed", len(trace))
        return cls._of(
            [
                _Source(
                    trace.times, trace.sizes, trace.directions,
                    np.broadcast_to(np.int64(0), (len(trace),)), (station,),
                    label, float(offset),
                )
            ]
        )

    @classmethod
    def replay_plan(
        cls,
        trace: Trace,
        plan: "FusedPlan",
        stations: Sequence[object],
        label: str | None = None,
    ) -> "PacketStream":
        """Replay ``trace`` as the observable flows ``plan`` describes.

        Packet ``k`` is emitted by ``stations[plan.assignments[k]]``,
        its size rewritten by ``plan.size_transform``: per station, the
        same packets as :meth:`replay` of the materialized flow, read
        straight off the trace's columns as one source (a gather plan's
        output packets, for morphing).  Equal timestamps of different
        flows keep the plan's order.

        Args:
            trace: the source trace the plan was built for.
            plan: its :class:`~repro.defenses.base.FusedPlan`.
            stations: one identity per plan flow, in flow order.
            label: ground-truth label; defaults to ``trace.label``.
        """
        stations = tuple(stations)
        require(
            len(stations) == plan.n_flows,
            f"need one station per plan flow ({plan.n_flows}), got {len(stations)}",
        )
        if label is None:
            label = trace.label
        times, sizes, directions = trace.times, trace.sizes, trace.directions
        assignments = plan.assignments
        if plan.source is not None:
            assignments, source, sizes = plan.gather()
            times, directions = times[source], directions[source]
        obs.add("stream.traces_replayed")
        obs.add("stream.packets_replayed", len(times))
        return cls._of(
            [
                _Source(
                    times, sizes, directions,
                    assignments, stations, label, 0.0, plan.size_transform,
                )
            ]
        )

    @classmethod
    def from_store(
        cls,
        store,
        role: str | None = None,
        label: str | None = None,
    ) -> "PacketStream":
        """Replay a persisted corpus straight off its memory-mapped columns.

        Accepts a :class:`~repro.storage.TraceStore`, a
        :class:`~repro.storage.ShardSet` federation, or a path to
        either (dispatch via :func:`repro.storage.open_corpus`).
        Every matching stored trace becomes one station (its manifest
        ``station`` if set, otherwise a stable synthetic identity), and
        the stations are interleaved with :meth:`merge` — so resident
        memory is one chunk plus a look-ahead per stored trace, plus
        whatever pages the OS keeps warm, never O(corpus packets).  The
        emitted packets are identical to replaying the same traces from
        RAM, which the parity tests and ``benchmarks/bench_corpus.py``
        assert.

        Args:
            store: an open corpus, or a filesystem path to one.
            role: only replay entries with this manifest role
                (``"train"`` / ``"eval"``); None replays everything.
            label: only replay entries with this label.
        """
        # Deferred import: keep the stream package import-light.
        from repro.storage import Corpus, open_corpus

        if not isinstance(store, Corpus):
            store = open_corpus(store)
        streams = [
            cls.replay(
                store.trace(entry.index),
                station=entry.station
                or f"{entry.label or 'trace'}/t{entry.index}",
                label=entry.label,
            )
            for entry in store.select(role=role, label=label)
        ]
        if not streams:
            return cls._of(())
        return cls.merge(streams)

    @classmethod
    def merge(cls, streams: Sequence["PacketStream"]) -> "PacketStream":
        """Interleave concurrent streams into one global capture.

        Equal timestamps order by stream position (earlier stream wins),
        matching the stable tie-break of
        :func:`repro.traffic.trace.merge_traces`, and within one column
        source by capture position.  The streams' column sources join
        one flat source list, so a merge of merges reads exactly like
        one merge of every source.
        """
        require(len(streams) >= 1, "merge needs at least one stream")
        if any(stream._sources is None for stream in streams):
            raise TypeError(
                "merge interleaves replayed streams (replay, from_store, merge); "
                "a stream wrapping an event iterable has no columns to merge"
            )
        return cls._of([source for stream in streams for source in stream._sources])
