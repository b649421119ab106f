"""The adaptive defender and the attacker↔reshaper arms race.

The paper evaluates reshaping statically — a fixed scheduler against a
fixed classifier.  Its threat model, though, is a live loop: the AP
"dynamically allocates" virtual interfaces, and nothing stops a
defender from *reacting* to the attack it knows is running.
:class:`AdaptiveReshaper` closes that loop: it wraps any
:class:`~repro.core.base.Reshaper` and runs a *simulated attacker* of
its own; when that attacker classifies one of the defender's flows
correctly at high confidence, the defender retires the current virtual
MAC set and requests a fresh one (one Fig. 2 configuration handshake),
moving all traffic to brand-new observable identities.  The real
eavesdropper then sees the old flows go silent and unknown flows
appear: its open windows fragment and its per-flow evidence resets.

:func:`run_arms_race` drives the full loop and is the engine behind the
registered ``arms_race`` experiment.  Everything is deterministic in
(scenario seed, options): fresh addresses come from a named RNG stream,
and packets process in capture order — so serial and ``--jobs N``
execution of the experiment agree bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.windows import MIN_WINDOW_PACKETS, window_indices
from repro.core.base import CONFIG_MESSAGE_BYTES, Reshaper
from repro.mac.addresses import MacAddress, random_mac
from repro.mac.virtual_iface import VirtualInterfaceSet
from repro.stream import source
from repro.stream.attack import OnlineAttack, WindowPrediction
from repro.stream.source import PacketChunk
from repro.traffic.trace import Trace
from repro.util.rng import derive_rng
from repro.util.validation import require

__all__ = ["AdaptiveReshaper", "ArmsRaceOutcome", "run_arms_race"]
_LOOK_AHEAD = 1024  # packets in the first span of a trigger-close scan


class AdaptiveReshaper:
    """A reshaper that re-allocates its virtual MACs when recognized.

    Args:
        base: the packet→interface scheduler being wrapped (OR/RA/RR...).
        confidence_threshold: the defender reallocates when its simulated
            attacker predicts a flow's true application with at least
            this confidence.
        cooldown: minimum seconds between reallocations (one handshake
            per epoch; the cooldown keeps the defender from thrashing
            on bursts of confident windows).  It counts from the firing
            window's left edge.  In :func:`run_arms_race` the packet
            that closed that window belongs to the retired epoch, so the
            next epoch's windows start at least one window length W
            after that edge: a ``cooldown`` of W or less changes nothing
            there.
        seed: randomness for fresh virtual MAC addresses.

    Each *epoch* owns a :class:`~repro.mac.virtual_iface.VirtualInterfaceSet`
    drawn from the 48-bit space, so the observable flow identities are
    real addresses and each reallocation costs exactly one Fig. 2
    request/reply exchange (:attr:`config_overhead_bytes`).
    """

    def __init__(
        self,
        base: Reshaper,
        confidence_threshold: float = 0.9,
        cooldown: float = 10.0,
        seed: int = 0,
    ):
        require(0.0 < confidence_threshold <= 1.0, "confidence_threshold must be in (0, 1]")
        require(cooldown >= 0.0, "cooldown must be >= 0")
        if not isinstance(base, Reshaper):
            # Accept the unified Scheme interface: the loop drives the
            # *same* scheduler object the batch path evaluates, unwrapped.
            from repro.schemes import Scheme

            if isinstance(base, Scheme):
                unwrapped = base.reshaper
                if unwrapped is None:
                    raise TypeError(
                        f"scheme {base.name!r} has no per-packet scheduler; "
                        "the adaptive defender needs a reshaper-backed scheme"
                    )
                base = unwrapped
            else:
                raise TypeError(
                    f"base must be a Reshaper or reshaper-backed Scheme, "
                    f"got {type(base).__name__}"
                )
        self._base = base
        self.confidence_threshold = float(confidence_threshold)
        self.cooldown = float(cooldown)
        self._rng = derive_rng(seed, "stream", "adaptive-macs")
        self._physical = random_mac(self._rng)
        self.epoch = 0
        self.reallocations = 0
        self._last_reallocation = float("-inf")
        self._vaps = self._allocate()

    def _allocate(self) -> VirtualInterfaceSet:
        return VirtualInterfaceSet.configure(
            self._physical,
            [random_mac(self._rng) for _ in range(self._base.interfaces)],
        )

    @property
    def base(self) -> Reshaper:
        """The wrapped scheduler."""
        return self._base

    @property
    def interfaces(self) -> int:
        """Virtual interfaces per epoch."""
        return self._base.interfaces

    @property
    def virtual_addresses(self) -> list[MacAddress]:
        """The current epoch's observable MAC addresses."""
        return self._vaps.addresses

    @property
    def config_overhead_bytes(self) -> int:
        """Bytes spent on configuration handshakes (initial + reallocations)."""
        return (1 + self.reallocations) * 2 * CONFIG_MESSAGE_BYTES

    def flow_keys(self, station: str, epoch: int) -> tuple[str, ...]:
        """The eavesdropper-visible identities of ``station``'s VAPs in ``epoch``."""
        return tuple(f"{station}/e{epoch}/i{iface}" for iface in range(self.interfaces))

    def notify(self, prediction: WindowPrediction) -> bool:
        """Defender's reaction to one simulated-attacker verdict.

        Reallocates — and returns True — when the attacker recognized
        the flow's true application confidently enough and the cooldown
        since the previous reallocation has passed.  The wall-clock
        reference is the closed window's left edge (the verdict exists
        shortly after it).
        """
        if prediction.true_label is None or prediction.predicted != prediction.true_label:
            return False
        if prediction.confidence < self.confidence_threshold:
            return False
        if not self.cooled(prediction.start):
            return False
        self.epoch += 1
        self.reallocations += 1
        self._last_reallocation = prediction.start
        self._vaps = self._allocate()
        return True

    def cooled(self, start: float | np.ndarray) -> bool | np.ndarray:
        """Whether a window starting at ``start`` (a float or an array of
        them) is past the cooldown since the last reallocation."""
        return start - self._last_reallocation >= self.cooldown


@dataclass(frozen=True)
class ArmsRaceOutcome:
    """One side of the arms race, scored.

    Attributes:
        report: the eavesdropper's accuracy over every window it closed.
        reallocations: virtual-MAC reallocations the defender performed.
        config_overhead_bytes: handshake bytes those reallocations cost.
        windows: windows the attacker classified.
        flows_observed: distinct observable flow identities that emitted
            at least one window (fragmentation measure).
    """

    report: AttackReport
    reallocations: int
    config_overhead_bytes: int
    windows: int
    flows_observed: int = field(default=0)


def run_arms_race(
    traces_by_label: dict[str, list[Trace]],
    pipeline: AttackPipeline,
    base_factory,
    adaptive: bool = True,
    confidence_threshold: float = 0.9,
    cooldown: float = 10.0,
    seed: int = 0,
) -> ArmsRaceOutcome:
    """Stream every trace through the defender↔attacker loop.

    Args:
        traces_by_label: evaluation traces keyed by true application.
        pipeline: the trained attack pipeline; it plays both the real
            eavesdropper and the defender's simulated attacker (the
            defender anticipates the strongest known adversary).  Only
            read — never mutated.
        base_factory: zero-argument callable building a fresh base
            reshaper per trace (scheduler state must not leak between
            associations, mirroring ``ReshaperScheme.apply``).
        adaptive: when False the defender never reallocates (the static
            baseline; everything else identical).
        confidence_threshold / cooldown: trigger tuning, see
            :class:`AdaptiveReshaper` (a ``cooldown`` no longer than the
            pipeline's window changes nothing).
        seed: address-allocation randomness (derived per trace).

    The loop is single-pass and in capture order: each packet is
    scheduled by the defender, observed by the attacker under the flow
    identity the defender chose, and every window the attacker closes
    feeds the defender's trigger before the next packet is observed.
    A reallocation changes only the epoch (the flow keys' prefix) and
    the virtual MACs, never the base scheduler, so each trace is one
    ``assign_columns`` interface column, observed in chunks
    (:func:`_race_trace`).  When a reallocation retires an epoch, the
    retired flows' open windows are flushed immediately (their
    addresses will never transmit again), so the attacker's resident
    state stays bounded by *live* flows no matter how often the
    defender churns — and the emitted windows are the ones an
    end-of-capture flush would have produced anyway.  Retirement-flush
    predictions are scored but do not feed the trigger: they describe
    the regime the defender just abandoned.  The per-packet form of
    the loop is the test oracle (``tests/oracles/stream.py``).
    """
    attacker = OnlineAttack.from_pipeline(pipeline)
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
            _race_trace(attacker, defender, trace, station, label, adaptive)
            reallocations += defender.reallocations
            overhead += defender.config_overhead_bytes
            trace_index += 1
    attacker.finish()
    flows = {p.flow for p in attacker.predictions}
    return ArmsRaceOutcome(
        report=attacker.report(),
        reallocations=reallocations,
        config_overhead_bytes=overhead,
        windows=len(attacker.predictions),
        flows_observed=len(flows),
    )


def _race_trace(attacker, defender, trace, station, label, adaptive) -> None:
    """Observe one trace (one association) in chunks of its interface column.

    A chunk's station names are the current epoch's flow keys.  In
    adaptive mode it ends just after a packet that closes a window able
    to fire the trigger (:func:`_trigger_closes`), and its windows are
    classified one at a time, so every trigger decision equals the
    per-packet loop's bit for bit.  Chunks also end after
    ``_CHUNK_EVENTS`` packets.
    """
    obs.add("stream.traces_replayed")
    obs.add("stream.packets_replayed", len(trace))
    label = trace.label if label is None else label
    adaptive = adaptive and label is not None  # unlabelled windows never fire
    times, sizes, directions = trace.times, trace.sizes, trace.directions
    ifaces = defender.base.assign_columns(times, sizes, directions).astype(np.int64)
    labels = np.broadcast_to(np.int64(0), ifaces.shape)
    window, end = attacker.featurizer.window, len(ifaces)
    cuts = _trigger_closes(trace, ifaces, 0, window, defender) if adaptive else iter(())
    target = next(cuts, end)
    position = 0
    while position < end:
        stop = min(target, position + source._CHUNK_EVENTS)
        at = slice(position, stop)
        flows = defender.flow_keys(station, defender.epoch)
        chunk = PacketChunk(
            times[at], sizes[at], directions[at], ifaces[at], labels[at],
            flows, (label,),
        )
        for prediction in attacker.observe_chunk(chunk, one_at_a_time=adaptive):
            if adaptive and defender.notify(prediction):
                for flow in defender.flow_keys(station, defender.epoch - 1):
                    attacker.finish_flow(flow)
                cuts = _trigger_closes(trace, ifaces, stop, window, defender)
                target = stop
        position = stop
        if position == target:
            target = next(cuts, end)


def _trigger_closes(trace, ifaces, begin, window, defender) -> Iterator[int]:
    """Chunk ends for the epoch starting at packet ``begin``: just past
    each packet that closes a window able to fire the trigger.

    The epoch's flows are fresh, one per interface, each anchored at its
    first packet; a packet that lands beyond its flow's open window
    closes that window, which may fire if it is emitted (at least
    ``MIN_WINDOW_PACKETS`` packets of direction 0 or 1, as every window
    engine counts) and starts past the cooldown (:meth:`~AdaptiveReshaper.cooled`).
    Cutting at every close instead costs about a quarter more time at the
    default scale.  The scan spans double from ``_LOOK_AHEAD`` packets,
    so an epoch scans at most about four times its own packets.
    """
    end, done, span = len(ifaces), begin, _LOOK_AHEAD
    while done < end:
        stop = min(end, begin + span)
        column = ifaces[begin:stop]
        found = [np.empty(0, dtype=np.int64)]
        for iface in range(defender.interfaces):
            at = begin + np.flatnonzero(column == iface)
            if len(at) < 2:
                continue
            times = trace.times[at]
            index = window_indices(times, times[0], window)
            # Flow packet ``last + 1`` closes the window ending at ``last``.
            last = np.flatnonzero(index[1:] != index[:-1])
            directions = trace.directions[at]
            counted = (directions == 0) | (directions == 1)
            runs = np.concatenate(([0], last + 1))
            counts = np.add.reduceat(counted, runs, dtype=np.int64)[:-1]
            lefts = times[0] + index[last] * window
            fires = (counts >= MIN_WINDOW_PACKETS) & defender.cooled(lefts)
            found.append(at[last[fires] + 1] + 1)
        cuts = np.sort(np.concatenate(found))
        yield from cuts[cuts > done].tolist()
        done, span = stop, 2 * span
