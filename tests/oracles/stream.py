"""The per-packet streaming route: one packet at a time, the chunk route's reference.

:class:`~repro.stream.featurizer.StreamingFeaturizer` ingests column
chunks (:meth:`~repro.stream.featurizer.StreamingFeaturizer.push_chunk`)
and the arms race walks traces in column segments
(:func:`repro.stream.adaptive.run_arms_race`).  This module keeps the
obvious form of both, which they are held to:

* :class:`EventFeaturizer` — :meth:`~EventFeaturizer.push` takes one
  packet, closing the flow's open window when the packet lands beyond
  it.  It buffers the open window's packets in Python lists and hands
  them to the flow state as one block just before a close, so closes
  run the same ``_close`` → ``_grid_block`` code as a flush;
* :class:`EventAttack` — the attacker on that featurizer, with
  :meth:`~EventAttack.observe` / :meth:`~EventAttack.observe_event`;
* :func:`run_arms_race_per_event` — the defender↔attacker loop packet
  by packet: each packet scheduled by ``assign_packet``, observed under
  the flow identity of the defender's epoch, and each closed window's
  verdict fed to the trigger before the next packet.

The chunk-parity suites and ``benchmarks/bench_stream.py`` /
``benchmarks/bench_arms_race.py`` compare the production routes with
these element for element.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.windows import window_index
from repro.stream.adaptive import AdaptiveReshaper, ArmsRaceOutcome
from repro.stream.attack import OnlineAttack
from repro.stream.featurizer import ClosedWindow, StreamingFeaturizer, _time_error
from repro.stream.source import PacketStream
from repro.util.rng import derive_rng

__all__ = ["EventAttack", "EventFeaturizer", "run_arms_race_per_event"]


class EventFeaturizer(StreamingFeaturizer):
    """A :class:`StreamingFeaturizer` fed one packet at a time.

    Use :meth:`push` / :meth:`push_event` (then :meth:`flush`) instead of
    ``push_chunk``; the two routes must not be mixed on one instance.
    """

    def __init__(self, window: float):
        super().__init__(window)
        # flow -> (per-direction times, per-direction sizes) of the open
        # window, not yet handed to the flow state.
        self._pending: dict[object, tuple] = {}

    def push(
        self,
        flow: object,
        time: float,
        size: int,
        direction: int,
        label: str | None = None,
    ) -> list[ClosedWindow]:
        """Ingest one packet; return any window this packet closed.

        Packets of one flow must arrive in non-decreasing time order; a
        regression or a non-finite time raises.
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
            pending = self._pending.get(flow)
            if pending is None:
                pending = self._pending[flow] = (([], []), ([], []))
            times, sizes = pending
            times[d].append(time)
            sizes[d].append(float(size))
            state.count += 1
            self._open_packets += 1
            if self._open_packets > self.peak_open_packets:
                self.peak_open_packets = self._open_packets
        return closed

    def push_event(self, event, flow: object | None = None) -> list[ClosedWindow]:
        """Ingest a :class:`~repro.stream.source.PacketEvent`; the flow key
        defaults to the event's station."""
        return self.push(
            flow if flow is not None else event.station,
            event.time,
            event.size,
            event.direction,
            event.label,
        )

    def _close(self, flow, state) -> list[ClosedWindow]:
        pending = self._pending.pop(flow, None)
        if pending is not None:
            times, sizes = pending
            for d in (0, 1):
                if times[d]:
                    state.carry(
                        d,
                        np.array(times[d], dtype=np.float64),
                        np.array(sizes[d], dtype=np.float64),
                    )
        return super()._close(flow, state)


class EventAttack(OnlineAttack):
    """An :class:`OnlineAttack` that observes one packet at a time."""

    def __init__(self, window: float, *args, **kwargs):
        super().__init__(window, *args, **kwargs)
        self.featurizer = EventFeaturizer(window)

    def observe(
        self,
        flow: object,
        time: float,
        size: int,
        direction: int,
        label: str | None = None,
    ):
        """Ingest one packet; return predictions for windows it closed."""
        return self._handle(self.featurizer.push(flow, time, size, direction, label))

    def observe_event(self, event, flow: object | None = None):
        """Ingest one :class:`~repro.stream.source.PacketEvent`."""
        return self._handle(self.featurizer.push_event(event, flow))


def run_arms_race_per_event(
    traces_by_label,
    pipeline,
    base_factory,
    adaptive: bool = True,
    confidence_threshold: float = 0.9,
    cooldown: float = 10.0,
    seed: int = 0,
) -> tuple[ArmsRaceOutcome, EventAttack]:
    """:func:`repro.stream.adaptive.run_arms_race`, one packet at a time.

    Returns the outcome and the attacker, whose ``predictions`` are
    every window it classified, in emission order.
    """
    attacker = EventAttack.from_pipeline(pipeline)
    reallocations = 0
    overhead = 0
    trace_index = 0
    for label in traces_by_label:
        for trace in traces_by_label[label]:
            station = f"{label}/s{trace_index}"
            defender = AdaptiveReshaper(
                base_factory(),
                confidence_threshold=confidence_threshold,
                cooldown=cooldown,
                seed=int(derive_rng(seed, "arms-race", station).integers(1 << 31)),
            )
            flows = defender.flow_keys(station, defender.epoch)
            for event in PacketStream.replay(trace, station=station, label=label):
                iface = defender.base.assign_packet(
                    event.time, event.size, event.direction
                )
                for prediction in attacker.observe_event(event, flow=flows[iface]):
                    if adaptive and defender.notify(prediction):
                        for retired in flows:
                            attacker.finish_flow(retired)
                        flows = defender.flow_keys(station, defender.epoch)
            reallocations += defender.reallocations
            overhead += defender.config_overhead_bytes
            trace_index += 1
    attacker.finish()
    outcome = ArmsRaceOutcome(
        report=attacker.report(),
        reallocations=reallocations,
        config_overhead_bytes=overhead,
        windows=len(attacker.predictions),
        flows_observed=len({p.flow for p in attacker.predictions}),
    )
    return outcome, attacker
