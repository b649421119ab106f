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
    ChainedSizeTransform,
    DefendedTraffic,
    FusedPlan,
    Scheme,
    StageOverhead,
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
    ) -> FusedPlan | None:
        """Compose the stages' plans into one stack plan.

        Mirrors :meth:`apply` at the column level: stage *k+1* plans
        each of stage *k*'s flows independently, and flows renumber in
        stage-major order (input-flow order, then each sub-plan's own
        sorted order) — exactly the order ``apply`` emits.  Size
        transforms chain: later stages plan against the running
        (transformed) sizes, and the final plan's transform is the whole
        chain applied to the original column.  Any stage that cannot
        fuse — or that is itself a stack (nested stacks keep their own
        accounting; not worth flattening) — makes the whole stack fall
        back.
        """
        n = len(times)
        times = np.asarray(times)
        current_sizes = np.asarray(sizes)
        directions = np.asarray(directions)
        assignments = np.zeros(n, dtype=np.int64)
        n_flows = 1
        transforms: list = []
        stage_records: list[StageOverhead] = []
        for stage in self._stages:
            new_assignments = np.empty(n, dtype=np.int64)
            new_sizes = None
            stage_transform = None
            offset = 0
            fanouts: list[int] = []
            extra = 0
            handshake = 0
            for flow in range(n_flows):
                if n_flows == 1:
                    # Single input flow (every stack's first stage, and
                    # any stage after a non-partitioning one): the mask
                    # is all-true — plan on the columns directly instead
                    # of copying them through a full-length gather.
                    mask = None
                    flow_times = times
                    flow_sizes = current_sizes
                    flow_directions = directions
                else:
                    mask = assignments == flow
                    flow_times = times[mask]
                    flow_sizes = current_sizes[mask]
                    flow_directions = directions[mask]
                sub = stage.fused_plan_columns(
                    flow_times, flow_sizes, flow_directions, label
                )
                if sub is None or sub.stack:
                    return None
                if mask is None:
                    np.add(sub.assignments, offset, out=new_assignments)
                else:
                    new_assignments[mask] = sub.assignments + offset
                offset += sub.n_flows
                fanouts.append(sub.n_flows)
                extra += sub.extra_bytes
                handshake += sub.handshake_bytes
                if sub.size_transform is not None:
                    if stage_transform is None:
                        stage_transform = sub.size_transform
                        if mask is not None:
                            new_sizes = current_sizes.astype(np.int64, copy=True)
                    elif stage_transform != sub.size_transform:
                        # Flows disagree on the rewrite: not elementwise.
                        return None
                    if mask is None:
                        new_sizes = sub.size_transform(flow_sizes, flow_directions)
                    else:
                        new_sizes[mask] = sub.size_transform(
                            flow_sizes, flow_directions
                        )
            assignments = new_assignments
            n_flows = offset
            if stage_transform is not None:
                transforms.append(stage_transform)
                current_sizes = new_sizes
            stage_records.append(
                StageOverhead(stage.name, extra, handshake, tuple(fanouts))
            )
        if not transforms:
            size_transform = None
        elif len(transforms) == 1:
            size_transform = transforms[0]
        else:
            size_transform = ChainedSizeTransform(tuple(transforms))
        return FusedPlan.from_assignments(
            assignments,
            n_flows=n_flows,
            size_transform=size_transform,
            stages=tuple(stage_records),
            stack=True,
        )
