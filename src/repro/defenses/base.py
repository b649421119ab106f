"""The defense contract: :class:`Scheme` and what it returns.

Every defense — reshaping scheduler, byte-level baseline, the
undefended original, a composed stack — is a :class:`Scheme`: a named
transform from an application trace to :class:`DefendedTraffic`, the
set of *observable flows* an eavesdropper can distinguish (per MAC
address / virtual interface / channel slice) plus byte-overhead
accounting.  The attack pipeline then classifies each observable flow
separately.

Every scheme also describes itself as a :class:`FusedPlan`: a
per-packet flow-assignment array plus the per-stage accounting, and for
a scheme that resamples or fragments packets (morphing) a gather of
source packets with their output sizes.  The batch featurizer
(:func:`repro.analysis.batch.fused_feature_matrices`) and the streaming
replay read a plan straight off the source columns (including
``TraceStore`` memmaps) without materializing per-flow
:class:`~repro.traffic.trace.Trace` copies; ``apply`` stays the
definition each plan is held to.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import add, gauge, observe, span
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    from repro.core.base import Reshaper

__all__ = [
    "DefendedTraffic",
    "FusedPlan",
    "Scheme",
    "StageOverhead",
    "gather_flows",
]


@dataclass(frozen=True)
class StageOverhead:
    """One pipeline stage's contribution to a defended trace's cost.

    A single scheme produces one entry; a
    :class:`~repro.schemes.SchemeStack` produces one per stage, in
    application order, so the rolled-up report can attribute every
    byte to the stage that spent it.  The materializing ``apply`` and
    the fused plan report the same records.

    Attributes:
        scheme: registry name of the stage (``"padding"``, ``"or"``...).
        extra_bytes: data-path bytes this stage added (padding bytes,
            fragment headers); 0 for pure reshaping stages.
        handshake_bytes: control-path bytes this stage spent on Fig. 2
            configuration exchanges (one per association it opened).
        fanouts: observable-flow count of each of the stage's applies,
            in application order — one apply for a top-level scheme,
            one per input flow inside a stack.
    """

    scheme: str
    extra_bytes: int
    handshake_bytes: int
    fanouts: tuple[int, ...]

    @property
    def flows(self) -> int:
        """Observable flows leaving this stage."""
        return sum(self.fanouts)

    @property
    def applies(self) -> int:
        """How many times the stage was applied."""
        return len(self.fanouts)


@dataclass(frozen=True)
class DefendedTraffic:
    """What the eavesdropper can capture after a defense is applied.

    Attributes:
        original: the undefended input trace (ground truth).
        flows: observable sub-flows keyed by an opaque flow id; each is
            what one "identity" (MAC address / channel slice) emitted.
        extra_bytes: bytes added beyond the original traffic (padding,
            fragment headers); 0 for reshaping-style defenses.
        handshake_bytes: configuration-protocol bytes spent setting the
            defense up (Sec. V-B's "only message overhead"); 0 for
            defenses that need no virtual-interface handshake.
        stages: per-stage accounting; :meth:`Scheme.apply` fills in the
            one stage of a single scheme, a stack reports one per stage.
    """

    original: Trace
    flows: dict[int, Trace]
    extra_bytes: int = 0
    handshake_bytes: int = 0
    stages: tuple[StageOverhead, ...] = field(default=())

    @property
    def observable_flows(self) -> list[Trace]:
        """Flows in id order."""
        return [self.flows[key] for key in sorted(self.flows)]

    @property
    def defended_bytes(self) -> int:
        """Total bytes on the air after the defense."""
        return sum(flow.total_bytes for flow in self.flows.values())

    @property
    def overhead_fraction(self) -> float:
        """Extra bytes relative to the original traffic (Table VI metric)."""
        original = self.original.total_bytes
        if original == 0:
            return 0.0
        return self.extra_bytes / original


#: Elementwise size rewrite of a fused plan: ``(sizes, directions) ->
#: int64 sizes``, pure and vectorized (padding is the canonical case).
SizeTransform = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class FusedPlan:
    """A defense's observable flows as a vectorized plan over columns.

    Where :class:`DefendedTraffic` *materializes* flows, a plan merely
    *describes* them.  Packet ``k`` of the source trace lands in
    observable flow ``assignments[k]`` with its size rewritten by
    ``size_transform`` (identity when ``None``) — or, with a gather,
    output packet ``k`` (in time order) is source packet ``source[k]``
    with size ``sizes[k]``.  Flow numbering matches ``apply``'s
    sorted-id order, so flow ``f`` of the plan is bit-identical
    (times/sizes/directions) to ``DefendedTraffic.observable_flows[f]``.

    A gather is built per output packet and held in runs: a fragmented
    packet's frames are consecutive output packets with one source, size
    and flow, so ``assignments``, ``source`` and ``sizes`` keep one int32
    entry per run, each standing for ``repeats`` output packets.
    :meth:`gather` expands them.

    Attributes:
        assignments: int64 observable-flow index per packet (per run of
            output packets with a gather), dense in ``[0, n_flows)``.
        n_flows: observable flow count (flows may be empty — ``apply``
            emits empty flows too, e.g. identity on an empty trace).
        size_transform: elementwise size rewrite, or ``None``; always
            ``None`` with a gather, whose ``sizes`` are final.
        stages: per-stage accounting, as ``apply`` would report it.
        stack: whether the plan describes a composed scheme stack.
        source: the gather's source index per run, or ``None``.
        sizes: the gather's output size per run, or ``None``.
        stage_packets: packets leaving each stage; empty when every
            stage emits exactly the plan's :attr:`packets`.
        repeats: the gather's output packets per run, or ``None``.
    """

    assignments: np.ndarray
    n_flows: int
    size_transform: SizeTransform | None = None
    stages: tuple[StageOverhead, ...] = ()
    stack: bool = False
    source: np.ndarray | None = None
    sizes: np.ndarray | None = None
    stage_packets: tuple[int, ...] = ()
    repeats: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.source is None or self.repeats is not None:
            return
        names = ("assignments", "source", "sizes")
        columns = [np.asarray(getattr(self, name), dtype=np.int32) for name in names]
        # A run starts wherever any column changes.
        starts = np.zeros(len(columns[0]), dtype=bool)
        starts[:1] = True
        for column in columns:
            starts[1:] |= column[1:] != column[:-1]
        first = np.flatnonzero(starts)
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column[first])
        repeats = np.diff(first, append=len(starts)).astype(np.int32)
        object.__setattr__(self, "repeats", repeats)

    @classmethod
    def from_assignments(
        cls,
        raw: np.ndarray,
        *,
        n_flows: int | None = None,
        size_transform: SizeTransform | None = None,
        stages: tuple[StageOverhead, ...] = (),
    ) -> FusedPlan:
        """Build a plan from a raw per-packet assignment array.

        With ``n_flows=None`` the raw values are renumbered to their
        sorted-unique rank — the same order
        :meth:`~repro.traffic.trace.Trace.split_by_iface` emits flows
        in, which is what keeps plan flow ``f`` aligned with ``apply``'s
        flow ``f``.  Pass ``n_flows`` explicitly when ``raw`` is
        already dense (and possibly includes empty flows).
        """
        raw = np.asarray(raw)
        if n_flows is None:
            if not len(raw):
                assignments = np.zeros(0, dtype=np.int64)
                n_flows = 0
            elif (
                np.issubdtype(raw.dtype, np.integer)
                and int(raw.min()) >= 0
                and int(raw.max()) < 1 << 22
            ):
                # Scheduler/epoch ids are small non-negative ints: an
                # O(n) bincount rank replaces the sort behind np.unique
                # while preserving its sorted-unique numbering exactly.
                counts = np.bincount(raw)
                occupied = np.flatnonzero(counts)
                rank = np.zeros(len(counts), dtype=np.int64)
                rank[occupied] = np.arange(len(occupied))
                assignments = rank[raw]
                n_flows = int(len(occupied))
            else:
                occupied, assignments = np.unique(raw, return_inverse=True)
                n_flows = int(len(occupied))
                assignments = assignments.astype(np.int64, copy=False).reshape(-1)
        else:
            assignments = raw.astype(np.int64, copy=False)
        return cls(
            assignments=assignments,
            n_flows=n_flows,
            size_transform=size_transform,
            stages=stages,
        )

    def with_stages(self, stages: tuple[StageOverhead, ...]) -> FusedPlan:
        """The same plan with its accounting replaced."""
        return replace(self, stages=stages)

    @property
    def extra_bytes(self) -> int:
        """Total data-path bytes added (additive across stages)."""
        return sum(stage.extra_bytes for stage in self.stages)

    @property
    def handshake_bytes(self) -> int:
        """Total configuration bytes spent (additive across stages)."""
        return sum(stage.handshake_bytes for stage in self.stages)

    @property
    def packets(self) -> int:
        """Packets the plan emits: the source's, or the gather's output."""
        if self.repeats is None:
            return len(self.assignments)
        return int(self.repeats.sum())

    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A gather's ``(assignments, source, sizes)``, one per output packet."""
        return tuple(
            np.repeat(column, self.repeats)
            for column in (self.assignments, self.source, self.sizes)
        )

    @property
    def plan_bytes(self) -> int:
        """Bytes the plan's arrays hold: assignments, plus a gather's runs."""
        held = (self.assignments, self.source, self.sizes, self.repeats)
        return sum(array.nbytes for array in held if array is not None)


def gather_flows(
    times: np.ndarray,
    sizes: np.ndarray,
    directions: np.ndarray,
    flows: Sequence[tuple[np.ndarray | None, FusedPlan]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gather over the columns from each flow's sub-plan.

    ``flows[f]`` is ``(indices, sub)``: the positions of flow ``f``'s
    packets in the columns (``None`` for all of them) and the plan of
    that flow over those packets.  Returns ``(positions, sizes,
    assignments)``: each output packet's position in the columns, its
    output size, and its flow, the sub-plans' flows numbered in turn.
    A sub-plan without a gather keeps its flow's packets and rewrites
    their ``sizes`` through its size transform.  Output packets are in
    time order: a stable sort keeps each flow's own order.
    """
    positions, out_sizes, out_flows = [], [], []
    offset = 0
    for indices, sub in flows:
        if indices is None:
            indices = np.arange(len(sizes))
        if sub.source is not None:
            flows_of, source, flow_sizes = sub.gather()
            positions.append(indices[source])
        else:
            flows_of, flow_sizes = sub.assignments, sizes[indices]
            if sub.size_transform is not None:
                flow_sizes = sub.size_transform(flow_sizes, directions[indices])
            positions.append(indices)
        out_sizes.append(flow_sizes)
        out_flows.append(flows_of + offset)
        offset += sub.n_flows
    empty = np.zeros(0, dtype=np.int64)
    gathered = [
        np.concatenate([empty, *column]) for column in (positions, out_sizes, out_flows)
    ]
    if offset > 1:
        order = np.argsort(times[gathered[0]], kind="stable")
        gathered = [column[order] for column in gathered]
    return tuple(gathered)


def _record_stages(
    stages: tuple[StageOverhead, ...], packets: Sequence[tuple[int, int]]
) -> None:
    """Scheme telemetry for ``stages``; ``packets[i]`` is stage ``i``'s (in, out).

    Counters are additive per apply — aggregate totals plus a
    ``scheme[<name>].*`` breakdown (the paper's per-stage overhead
    accounting, as counters) — and record into whatever collection
    context is active, so the window cache's capture-and-replay makes
    them follow logical requests, not physical executions.  Both routes
    record through here: a materializing ``apply`` with its one stage
    and its real packet counts, a fused plan with all its stages and
    each stage's packets in and out in total over its applies (a
    fragmenting stage emits more than it takes).  A cell's profile is
    therefore identical whichever route ran.
    """
    for stage, (packets_in, packets_out) in zip(stages, packets):
        if not stage.fanouts:
            # A dead stack arm: no flow ever reached the stage.
            continue
        add("scheme.apply_calls", stage.applies)
        add("scheme.packets_in", packets_in)
        add("scheme.packets_out", packets_out)
        add("scheme.extra_bytes", stage.extra_bytes)
        add("scheme.handshake_bytes", stage.handshake_bytes)
        add(f"scheme[{stage.scheme}].apply_calls", stage.applies)
        add(f"scheme[{stage.scheme}].packets_out", packets_out)
        add(f"scheme[{stage.scheme}].extra_bytes", stage.extra_bytes)
        add(f"scheme[{stage.scheme}].handshake_bytes", stage.handshake_bytes)
        for fanout in stage.fanouts:
            observe("scheme.fanout", fanout)


class Scheme(abc.ABC):
    """A named, composable defense: trace in, observable flows out.

    Subclasses implement :meth:`transform`; :meth:`apply` is the one
    instrumented entry point around it.  A scheme that applies another
    scheme internally calls the inner one's ``transform``, so a logical
    application is counted once.
    """

    #: Registry name (stacks use the ``a+b`` composition label).
    name: str = "scheme"

    @abc.abstractmethod
    def transform(self, trace: Trace) -> DefendedTraffic:
        """Defend ``trace`` without recording telemetry.

        Deterministic in ``(self, trace)``.  Leaves ``stages`` empty
        unless the scheme is itself a pipeline of stages.
        """

    def apply(self, trace: Trace) -> DefendedTraffic:
        """Defend ``trace``, with per-stage accounting and telemetry."""
        with span(f"scheme.apply[{self.name}]"):
            defended = self.transform(trace)
            if not defended.stages:
                defended = replace(
                    defended,
                    stages=(
                        StageOverhead(
                            self.name,
                            defended.extra_bytes,
                            defended.handshake_bytes,
                            (len(defended.flows),),
                        ),
                    ),
                )
        packets = (len(trace), sum(len(flow) for flow in defended.flows.values()))
        _record_stages(defended.stages, [packets] * len(defended.stages))
        return defended

    def reset(self) -> None:
        """Clear any online state (delegated to wrapped objects)."""

    @property
    def reshaper(self) -> Reshaper | None:
        """The underlying packet scheduler, when the scheme has one.

        The streaming loop (:mod:`repro.stream.adaptive`) schedules
        packet by packet, so it unwraps the scheduler from whatever
        scheme the batch path evaluates; byte-level defenses return
        ``None`` (they have no online form).
        """
        return None

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Describe :meth:`apply` as a :class:`FusedPlan`.

        The fusion protocol: the plan says which observable flow each
        packet lands in, and either rewrites sizes elementwise
        (padding) or carries a gather of source packets with their
        output sizes (morphing resamples sizes and fragments packets).
        The batch featurizer and the streaming replay evaluate it with
        zero intermediate ``Trace`` allocation.  Implementations must be
        deterministic in ``(self, columns)`` and bit-identical to
        ``apply``: plan flow ``f`` holds exactly the packets of
        ``apply(trace).observable_flows[f]``, in order, and the plan's
        ``stages`` equal the applied traffic's.  A scheme without one
        raises a ``NotImplementedError`` that names it.
        """
        raise NotImplementedError(
            f"scheme {self.name!r} has no fused plan: "
            f"{type(self).__name__} implements no fused_plan_columns"
        )

    def fused_plan(self, trace: Trace) -> FusedPlan:
        """The fused plan for ``trace``, with scheme telemetry recorded.

        Records the exact ``scheme.*`` counters ``apply`` would have
        (see :func:`_record_stages`), packets in and out per stage
        included.
        """
        with span(f"scheme.fuse[{self.name}]"):
            plan = self.fused_plan_columns(
                trace.times, trace.sizes, trace.directions, trace.label
            )
        out = plan.stage_packets or (plan.packets,) * len(plan.stages)
        _record_stages(plan.stages, list(zip((len(trace), *out[:-1]), out)))
        if plan.stack:
            add("scheme.stacks_applied")
            observe("scheme.stack_fanout", plan.n_flows)
        add("batch.fused_plans")
        gauge("batch.plan_bytes", plan.plan_bytes)
        return plan
