"""Flow-aggregation counter-attack.

Sec. II-B warns that coarse traffic partitioning fails because "if the
adversary accumulates the traffic traces in discrete time intervals, it
is as if the adversary is monitoring all traffic in a smaller time
scale".  The same idea threatens reshaping itself: if an adversary can
*link* a card's virtual interfaces (e.g. by RSSI, Sec. V-A), it can
merge their flows back together — and the merged flow IS the original
traffic, so classification accuracy returns to the undefended level.

This module implements that stronger adversary.  It quantifies why the
paper needs the TPC counter-measure: reshaping's protection rests on the
unlinkability of the virtual interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.batch import flow_feature_matrix
from repro.analysis.linking import RssiLinker
from repro.traffic.trace import Trace, merge_traces

__all__ = ["AggregationAttack", "AggregationOutcome"]


@dataclass(frozen=True)
class AggregationOutcome:
    """Reports for the split (per-interface) and merged adversary views."""

    split_report: AttackReport
    merged_report: AttackReport
    groups_formed: int

    @property
    def accuracy_recovered(self) -> float:
        """Mean-accuracy gain the adversary obtains by merging (points)."""
        return self.merged_report.mean_accuracy - self.split_report.mean_accuracy


class AggregationAttack:
    """Links observable flows, merges each group, classifies the unions.

    Args:
        pipeline: a trained :class:`AttackPipeline`.
        linker: the flow-linking adversary (defaults to RSSI clustering;
            pass ``linker=None`` for the oracle that merges every flow of
            a label — the upper bound on aggregation power).
    """

    def __init__(self, pipeline: AttackPipeline, linker: RssiLinker | None = None):
        if not pipeline.is_trained:
            raise ValueError("pipeline must be trained before aggregation")
        self._pipeline = pipeline
        self._linker = linker

    def merge_flows(self, flows: list[Trace]) -> list[Trace]:
        """Group flows with the linker and merge each group on one clock."""
        if not flows:
            return []
        if self._linker is None:
            return [merge_traces(flows, label=flows[0].label)]
        groups = self._linker.link(flows)
        merged = []
        for members in groups:
            group_flows = [flows[index] for index in members]
            merged.append(merge_traces(group_flows, label=group_flows[0].label))
        return merged

    def _report(self, flows_by_label: dict[str, list[Trace]]) -> AttackReport:
        """Featurize every (split or merged) flow and score the lot."""
        pipeline = self._pipeline
        return pipeline.evaluate_matrices(
            {
                label: [flow_feature_matrix(flow, pipeline.window) for flow in flows]
                for label, flows in flows_by_label.items()
            }
        )

    def evaluate(self, flows_by_label: dict[str, list[Trace]]) -> AggregationOutcome:
        """Attack both the split and the merged views of the same traffic."""
        split_report = self._report(flows_by_label)
        merged_by_label: dict[str, list[Trace]] = {}
        groups = 0
        for label, flows in flows_by_label.items():
            relabeled = [flow.with_label(label) for flow in flows]
            merged = self.merge_flows(relabeled)
            merged_by_label[label] = merged
            groups += len(merged)
        merged_report = self._report(merged_by_label)
        return AggregationOutcome(
            split_report=split_report,
            merged_report=merged_report,
            groups_formed=groups,
        )
