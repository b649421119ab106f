"""The defense contract: :class:`Scheme` and what it returns.

Every defense — reshaping scheduler, byte-level baseline, the
undefended original, a composed stack — is a :class:`Scheme`: a named
transform from an application trace to :class:`DefendedTraffic`, the
set of *observable flows* an eavesdropper can distinguish (per MAC
address / virtual interface / channel slice) plus byte-overhead
accounting.  The attack pipeline then classifies each observable flow
separately.

Reshaping-style schemes — whose observable flows are masked selections
and relabelings of the source columns, optionally with an elementwise
size rewrite — can additionally describe themselves as a
:class:`FusedPlan`: a per-packet flow-assignment array plus the
per-stage accounting, letting the batch featurizer
(:func:`repro.analysis.batch.fused_feature_matrices`) read straight off
the source columns (including ``TraceStore`` memmaps) without ever
materializing per-flow :class:`~repro.traffic.trace.Trace` copies.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import add, gauge, observe, span
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    from repro.core.base import Reshaper

__all__ = [
    "ChainedSizeTransform",
    "DefendedTraffic",
    "FusedPlan",
    "Scheme",
    "StageOverhead",
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


@dataclass(frozen=True)
class ChainedSizeTransform:
    """Composition of per-stage size transforms, applied left to right."""

    transforms: tuple[SizeTransform, ...]

    def __call__(self, sizes: np.ndarray, directions: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            sizes = transform(sizes, directions)
        return sizes


@dataclass(frozen=True, eq=False)
class FusedPlan:
    """A defense's observable flows as a vectorized plan over columns.

    Where :class:`DefendedTraffic` *materializes* flows, a plan merely
    *describes* them: packet ``k`` of the source trace lands in
    observable flow ``assignments[k]`` with its size rewritten by
    ``size_transform`` (identity when ``None``).  Flow numbering matches
    the legacy path's sorted-id order, so flow ``f`` of the plan is
    bit-identical (times/sizes/directions) to
    ``DefendedTraffic.observable_flows[f]``.

    ``order``/``flow_bounds`` are the gather index: packets of flow
    ``f`` are ``order[flow_bounds[f]:flow_bounds[f + 1]]`` in time
    order.  Both are computed lazily (one stable ``argsort`` / one
    ``bincount`` on first access) and cached — intermediate plans built
    during stack composition are consumed assignments-only and never
    pay for an index they don't use.

    Attributes:
        assignments: int64 observable-flow index per packet, dense in
            ``[0, n_flows)``.
        n_flows: observable flow count (flows may be empty — the legacy
            path emits empty flows too, e.g. identity on an empty trace).
        size_transform: elementwise size rewrite, or ``None``.
        stages: per-stage accounting, as ``apply`` would report it.
        stack: whether the plan describes a composed scheme stack.
    """

    assignments: np.ndarray
    n_flows: int
    size_transform: SizeTransform | None = None
    stages: tuple[StageOverhead, ...] = ()
    stack: bool = False

    @classmethod
    def from_assignments(
        cls,
        raw: np.ndarray,
        *,
        n_flows: int | None = None,
        size_transform: SizeTransform | None = None,
        stages: tuple[StageOverhead, ...] = (),
        stack: bool = False,
    ) -> FusedPlan:
        """Build a plan from a raw per-packet assignment array.

        With ``n_flows=None`` the raw values are renumbered to their
        sorted-unique rank — the same order
        :meth:`~repro.traffic.trace.Trace.split_by_iface` emits flows
        in, which is what keeps plan flow ``f`` aligned with the legacy
        path's flow ``f``.  Pass ``n_flows`` explicitly when ``raw`` is
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
            stack=stack,
        )

    def with_stages(
        self, stages: tuple[StageOverhead, ...], stack: bool = False
    ) -> FusedPlan:
        """The same plan with its accounting replaced."""
        return replace(self, stages=stages, stack=stack)

    @cached_property
    def flow_bounds(self) -> np.ndarray:
        """``(n_flows + 1,)`` prefix offsets into :attr:`order`."""
        counts = np.bincount(self.assignments, minlength=self.n_flows)
        flow_bounds = np.zeros(self.n_flows + 1, dtype=np.int64)
        np.cumsum(counts, out=flow_bounds[1:])
        return flow_bounds

    @cached_property
    def order(self) -> np.ndarray:
        """Stable argsort of :attr:`assignments` (the flow gather index)."""
        return np.argsort(self.assignments, kind="stable")

    def flow_indices(self, flow: int) -> np.ndarray:
        """Source-column indices of observable flow ``flow``, in time order."""
        lo, hi = self.flow_bounds[flow], self.flow_bounds[flow + 1]
        return self.order[lo:hi]

    @property
    def extra_bytes(self) -> int:
        """Total data-path bytes added (additive across stages)."""
        return sum(stage.extra_bytes for stage in self.stages)

    @property
    def handshake_bytes(self) -> int:
        """Total configuration bytes spent (additive across stages)."""
        return sum(stage.handshake_bytes for stage in self.stages)

    @property
    def plan_bytes(self) -> int:
        """Bytes the plan's index arrays occupy once fully realized.

        Counts ``assignments`` plus the lazily built ``order`` and
        ``flow_bounds`` at their known shapes — a deterministic formula,
        independent of which lazy indexes happen to be cached yet.
        """
        return 2 * self.assignments.nbytes + (self.n_flows + 1) * 8


def _record_stages(
    stages: tuple[StageOverhead, ...], packets_in: int, packets_out: int
) -> None:
    """Scheme telemetry for ``stages``, each seeing ``packets_in``/``_out``.

    Counters are additive per apply — aggregate totals plus a
    ``scheme[<name>].*`` breakdown (the paper's per-stage overhead
    accounting, as counters) — and record into whatever collection
    context is active, so the window cache's capture-and-replay makes
    them follow logical requests, not physical executions.  Both routes
    record through here: a materializing ``apply`` with its one stage
    and its real packet counts, a fused plan with all its stages (fused
    schemes conserve packets, so each stage's applies see the trace's
    packet count in and out in total).  A cell's profile is therefore
    identical whichever route ran.
    """
    for stage in stages:
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
        packets_out = sum(len(flow) for flow in defended.flows.values())
        _record_stages(defended.stages, len(trace), packets_out)
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
    ) -> FusedPlan | None:
        """Describe :meth:`apply` as a :class:`FusedPlan`, if possible.

        The fusion protocol: reshaping-only schemes — whose observable
        flows are masked selections/relabelings of the source columns,
        optionally with an elementwise size rewrite — return a plan the
        batch featurizer evaluates with zero intermediate ``Trace``
        allocation.  Schemes that genuinely rewrite traffic (morphing)
        return ``None`` (the default) and the pipeline falls back to
        :meth:`apply`.  Implementations must be deterministic in
        ``(self, columns)`` and bit-identical to ``apply``: plan flow
        ``f`` selects exactly the packets of
        ``apply(trace).observable_flows[f]``, in order, and the plan's
        ``stages`` equal the applied traffic's.
        """
        return None

    def fused_plan(self, trace: Trace) -> FusedPlan | None:
        """The fused plan for ``trace``, with scheme telemetry recorded.

        Returns ``None`` for non-fusable schemes without recording
        anything — the fallback's real ``apply`` will count itself.  On
        success records the exact ``scheme.*`` counters ``apply`` would
        have (see :func:`_record_stages`).
        """
        with span(f"scheme.fuse[{self.name}]"):
            plan = self.fused_plan_columns(
                trace.times, trace.sizes, trace.directions, trace.label
            )
        if plan is None:
            return None
        _record_stages(plan.stages, len(trace), len(trace))
        if plan.stack:
            add("scheme.stacks_applied")
            observe("scheme.stack_fanout", plan.n_flows)
        add("batch.fused_plans")
        gauge("batch.plan_bytes", plan.plan_bytes)
        return plan
