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

:func:`run_arms_race` drives the full loop packet by packet and is the
engine behind the registered ``arms_race`` experiment.  Everything is
deterministic in (scenario seed, options): fresh addresses come from a
named RNG stream, and events process in capture order — so serial and
``--jobs N`` execution of the experiment agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.attack import AttackPipeline, AttackReport
from repro.core.base import CONFIG_MESSAGE_BYTES, Reshaper
from repro.mac.addresses import MacAddress, random_mac
from repro.mac.virtual_iface import VirtualInterfaceSet
from repro.stream.attack import OnlineAttack, WindowPrediction
from repro.stream.source import PacketStream
from repro.traffic.trace import Trace
from repro.util.rng import derive_rng
from repro.util.validation import require

__all__ = ["AdaptiveReshaper", "ArmsRaceOutcome", "run_arms_race"]


class AdaptiveReshaper:
    """A reshaper that re-allocates its virtual MACs when recognized.

    Args:
        base: the packet→interface scheduler being wrapped (OR/RA/RR...).
        confidence_threshold: the defender reallocates when its simulated
            attacker predicts a flow's true application with at least
            this confidence.
        cooldown: minimum seconds between reallocations (one handshake
            per epoch; the cooldown keeps the defender from thrashing
            on bursts of confident windows).
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
            # Accept the unified Scheme interface: the adaptive loop
            # schedules packet by packet, so it drives the *same*
            # scheduler object the batch path evaluates, unwrapped.
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
        self._seed = int(seed)
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

    def reset(self) -> None:
        """Fresh association: restart the scheduler, epoch and addresses."""
        self._base.reset()
        self._rng = derive_rng(self._seed, "stream", "adaptive-macs")
        self._physical = random_mac(self._rng)
        self.epoch = 0
        self.reallocations = 0
        self._last_reallocation = float("-inf")
        self._vaps = self._allocate()

    def assign(self, time: float, size: int, direction: int) -> tuple[int, int]:
        """Schedule one packet; returns ``(epoch, interface index)``.

        The pair names the observable flow: the eavesdropper sees the
        epoch's virtual MAC for that interface, and a new epoch means a
        brand-new address it cannot link to the old one.
        """
        iface = self._base.assign_packet(time, size, direction)
        self._vaps.activate(iface)
        return self.epoch, iface

    def flow_key(self, station: str, epoch: int, iface: int) -> str:
        """The eavesdropper-visible identity of one (station, epoch, VAP)."""
        return f"{station}/e{epoch}/i{iface}"

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
        now = prediction.start
        if now - self._last_reallocation < self.cooldown:
            return False
        self.epoch += 1
        self.reallocations += 1
        self._last_reallocation = now
        self._vaps = self._allocate()
        return True


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
            :class:`AdaptiveReshaper`.
        seed: address-allocation randomness (derived per trace).

    The loop is event-driven and single-pass: each packet is scheduled
    by the defender, observed by the attacker under the flow identity
    the defender chose, and every window the attacker closes feeds the
    defender's trigger before the next packet is processed.  When a
    reallocation retires an epoch, the retired flows' open windows are
    flushed immediately (their addresses will never transmit again), so
    the attacker's resident state stays bounded by *live* flows no
    matter how often the defender churns — and the emitted windows are
    the ones an end-of-capture flush would have produced anyway.
    Retirement-flush predictions are scored but do not feed the trigger:
    they describe the regime the defender just abandoned.
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
            for event in PacketStream.replay(trace, station=station, label=label):
                epoch, iface = defender.assign(event.time, event.size, event.direction)
                flow = defender.flow_key(station, epoch, iface)
                for prediction in attacker.observe_event(event, flow=flow):
                    if adaptive and defender.notify(prediction):
                        retired = defender.epoch - 1
                        for index in range(defender.interfaces):
                            attacker.finish_flow(
                                defender.flow_key(station, retired, index)
                            )
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
