"""The scheme pipeline: the undefended original and stacks of schemes.

Every defense speaks one contract, :class:`~repro.defenses.base.Scheme`
(defined next to the :class:`~repro.defenses.base.DefendedTraffic` it
returns and re-exported here): a named, resettable transform
``apply(trace) -> DefendedTraffic`` whose output carries its own
overhead/handshake accounting.  Reshaping schedulers join through
:class:`~repro.core.base.ReshaperScheme`; the byte-level baselines are
schemes themselves.  Because every scheme speaks the same contract, they
**compose**: :class:`SchemeStack` chains any sequence (padding → OR →
FH, ...), fanning each stage over the previous stage's observable flows
and rolling the per-stage accounting up into one report.

Composition semantics:

* Stage *k+1* is applied to **each** observable flow stage *k* emitted,
  independently (each flow is its own association); its outputs
  concatenate, renumbered in stage-major order.
* ``extra_bytes`` / ``handshake_bytes`` are **additive** across stages:
  the stack's totals are the per-stage sums, and every stage's own
  contribution is preserved in ``DefendedTraffic.stages``.
* Determinism: ``apply`` resets scheme state first, so a stack is a
  pure function of ``(stack construction, trace)`` — the property the
  flow cache and the parallel executor both rely on.
* RNG hygiene: stages inside a stack are built with per-stage seeds
  derived from ``derive_seed(seed, "scheme-stack", position, name)``
  (see :func:`~repro.schemes.registry.build_stack`), so two instances
  of the same stochastic scheme in one stack can never alias RNG
  streams, whatever their order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.base import Reshaper, ReshaperScheme
from repro.defenses.base import (
    DefendedTraffic,
    FusedPlan,
    Scheme,
    StageOverhead,
    gather_flows,
)
from repro.obs import add, observe, span
from repro.traffic.trace import Trace

__all__ = [
    "IdentityScheme",
    "ReshaperScheme",
    "Scheme",
    "SchemeStack",
]


class IdentityScheme(Scheme):
    """The undefended original: one flow, the trace itself, zero cost."""

    name = "original"

    def transform(self, trace: Trace) -> DefendedTraffic:
        return DefendedTraffic(original=trace, flows={0: trace})

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        # transform() always emits one flow — the trace itself — even empty.
        return FusedPlan.from_assignments(
            np.zeros(len(times), dtype=np.int64),
            n_flows=1,
            stages=(StageOverhead(self.name, 0, 0, (1,)),),
        )


class SchemeStack(Scheme):
    """A chain of schemes applied flow-wise, with rolled-up accounting."""

    def __init__(self, stages: Sequence[Scheme], name: str | None = None):
        if not stages:
            raise ValueError("a SchemeStack needs at least one stage")
        self._stages = tuple(stages)
        self.name = name if name is not None else "+".join(s.name for s in self._stages)

    @property
    def stages(self) -> tuple[Scheme, ...]:
        """The chained schemes, in application order."""
        return self._stages

    @property
    def reshaper(self) -> Reshaper | None:
        """The scheduler of a single-stage stack (stacks have no online form)."""
        if len(self._stages) == 1:
            return self._stages[0].reshaper
        return None

    def reset(self) -> None:
        for stage in self._stages:
            stage.reset()

    def transform(self, trace: Trace) -> DefendedTraffic:
        return self._chain(trace, lambda stage, flow: stage.transform(flow))

    def apply(self, trace: Trace) -> DefendedTraffic:
        # Stage applies are leaves: they record their own counters and
        # spans (nested under this one), so the stack adds only its
        # fan-out observation — byte totals stay additive.
        with span(f"scheme.apply[{self.name}]"):
            defended = self._chain(trace, lambda stage, flow: stage.apply(flow))
        add("scheme.stacks_applied")
        observe("scheme.stack_fanout", len(defended.flows))
        return defended

    def _chain(
        self, trace: Trace, step: Callable[[Scheme, Trace], DefendedTraffic]
    ) -> DefendedTraffic:
        """Run ``step(stage, flow)`` over every flow, stage by stage."""
        flows: list[Trace] = [trace]
        accounting: list[StageOverhead] = []
        for stage in self._stages:
            emitted: list[Trace] = []
            fanouts: list[int] = []
            extra = 0
            handshake = 0
            for flow in flows:
                result = step(stage, flow)
                emitted.extend(result.observable_flows)
                fanouts.append(len(result.flows))
                extra += result.extra_bytes
                handshake += result.handshake_bytes
            accounting.append(
                StageOverhead(stage.name, extra, handshake, tuple(fanouts))
            )
            flows = emitted
        return DefendedTraffic(
            original=trace,
            flows=dict(enumerate(flows)),
            extra_bytes=sum(stage.extra_bytes for stage in accounting),
            handshake_bytes=sum(stage.handshake_bytes for stage in accounting),
            stages=tuple(accounting),
        )

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Compose the stages' plans into one stack plan.

        Mirrors :meth:`apply` at the column level: stage *k+1* plans
        each of stage *k*'s flows independently, and flows renumber in
        stage-major order (input-flow order, then each sub-plan's own
        sorted order) — exactly the order ``apply`` emits.  Later stages
        plan against the running (rewritten) sizes; one elementwise size
        rewrite stays the plan's ``size_transform``.  A stage that
        gathers (morphing), or that rewrites sizes a second time or
        differently per flow, turns the stack into a gather: later
        stages plan over the gathered columns, and each stage's
        per-flow gather composes back to source indices.  A stage that
        is itself a stack raises the error of a scheme without a plan.
        """
        times = np.asarray(times)
        directions = np.asarray(directions)
        current_sizes = np.asarray(sizes)
        # Packet k of the current columns is source packet source[k]
        # (packet k itself while no stage has gathered) in flow
        # assignments[k].
        source = None
        current_times, current_directions = times, directions
        assignments = np.zeros(len(times), dtype=np.int64)
        n_flows = 1
        size_transform = None
        stage_records: list[StageOverhead] = []
        stage_packets: list[int] = []
        for stage in self._stages:
            flows = []
            for flow in range(n_flows):
                # A single input flow (every stack's first stage, and any
                # stage after a non-partitioning one) plans on the columns
                # directly instead of copying them.
                indices = None if n_flows == 1 else np.flatnonzero(assignments == flow)
                columns = [
                    column if indices is None else column[indices]
                    for column in (current_times, current_sizes, current_directions)
                ]
                sub = stage.fused_plan_columns(*columns, label)
                if sub.stack:
                    raise NotImplementedError(
                        f"scheme {self.name!r} has no fused plan: "
                        f"stage {stage.name!r} is itself a stack"
                    )
                flows.append((indices, sub))
            subs = [sub for _, sub in flows]
            stage_records.append(
                StageOverhead(
                    stage.name,
                    sum(sub.extra_bytes for sub in subs),
                    sum(sub.handshake_bytes for sub in subs),
                    tuple(sub.n_flows for sub in subs),
                )
            )
            rewrites = {sub.size_transform for sub in subs}
            rewrite = next(iter(rewrites), None)
            if (
                len(rewrites) > 1
                or (rewrite is not None and size_transform is not None)
                or any(sub.source is not None for sub in subs)
            ):
                positions, current_sizes, assignments = gather_flows(
                    current_times, current_sizes, current_directions, flows
                )
                source = positions if source is None else source[positions]
                current_times, current_directions = times[source], directions[source]
                size_transform = None
            else:
                renumbered = np.empty(len(assignments), dtype=np.int64)
                offset = 0
                for indices, sub in flows:
                    if indices is None:
                        np.add(sub.assignments, offset, out=renumbered)
                    else:
                        renumbered[indices] = sub.assignments + offset
                    offset += sub.n_flows
                assignments = renumbered
                if rewrite is not None:
                    current_sizes = rewrite(current_sizes, current_directions)
                    size_transform = rewrite
            n_flows = sum(sub.n_flows for sub in subs)
            stage_packets.append(len(assignments))
        return FusedPlan(
            assignments,
            n_flows,
            size_transform=size_transform,
            stages=tuple(stage_records),
            stack=True,
            source=source,
            sizes=None if source is None else current_sizes,
            stage_packets=tuple(stage_packets),
        )
