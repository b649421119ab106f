"""Table VI: efficiency comparison — padding & morphing vs reshaping.

Sec. IV-D pits packet padding (pad to 1576 B) and traffic morphing
(paper's morph pairs) against reshaping.  Because both baselines only
change packet *sizes*, the adversary falls back on the timing attack:
"we use the traffic analysis attack based on the feature, the packet
interarrival time. Since packet padding and traffic morphing only change
the packet size, they have the same accuracy in terms of timing attack."

The table therefore reports, per application: the timing-attack accuracy
(shared by padding and morphing) plus the byte overhead of each
baseline.  Reshaping's numbers (accuracy from Table II, overhead 0) are
included for the comparison row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.attack import AttackPipeline
from repro.analysis.windows import window_key
from repro.defenses.morphing import TrafficMorphing
from repro.defenses.overhead import overhead_percent
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import SchemeSpec
from repro.traffic.apps import AppType
from repro.util.results import ExperimentResult

__all__ = ["Table6Result"]

#: Feature indices of the timing-only attacker: packet count and mean
#: interarrival per direction (sizes are masked — padded traffic makes
#: them uninformative, which is the point of the timing attack).
_TIMING_FEATURES = (0, 5, 6, 11)


@dataclass(frozen=True)
class Table6Result:
    """Per-application Table VI entries."""

    accuracy: dict[str, float]
    padding_overhead: dict[str, float]
    morphing_overhead: dict[str, float]

    @property
    def mean_accuracy(self) -> float:
        """Mean timing-attack accuracy (%) across applications."""
        values = [v for v in self.accuracy.values() if v == v]
        return sum(values) / len(values) if values else float("nan")

    @property
    def mean_padding_overhead(self) -> float:
        """Mean padding overhead (%)."""
        values = list(self.padding_overhead.values())
        return sum(values) / len(values) if values else float("nan")

    @property
    def mean_morphing_overhead(self) -> float:
        """Mean morphing overhead (%)."""
        values = list(self.morphing_overhead.values())
        return sum(values) / len(values) if values else float("nan")

    def rows(self) -> list[list[object]]:
        """One row per app plus the Mean row."""
        order = (
            "browsing",
            "chatting",
            "gaming",
            "downloading",
            "uploading",
            "video",
            "bittorrent",
        )
        rows: list[list[object]] = []
        for app in order:
            rows.append(
                [
                    app,
                    self.accuracy[app],
                    self.padding_overhead[app],
                    self.morphing_overhead[app],
                ]
            )
        rows.append(
            [
                "Mean",
                self.mean_accuracy,
                self.mean_padding_overhead,
                self.mean_morphing_overhead,
            ]
        )
        return rows


#: The padding baseline, as the registry recipe (pad to 1576 B).
_PADDING = SchemeSpec("padding")


def _app_row(
    runner: ExperimentRunner,
    pipeline: AttackPipeline,
    app: AppType,
) -> tuple[float, float, float]:
    """One application's timing-attack accuracy and mean overheads.

    Padded flows are featurized through the runner's dispatch and the
    padding overhead read from the same cached plan; morphing only
    needs its byte overhead (the timing attack is shared).  Per-class
    accuracy depends only on that class's confusion row, so scoring
    each application on its own yields the joint evaluation's numbers.
    """
    scenario = runner.scenario
    padding = runner.scheme(_PADDING)
    target_app = TrafficMorphing.paper_morph_pairs().get(app.value)
    pad_overheads: list[float] = []
    morph_overheads: list[float] = []
    matrices: list[np.ndarray] = []
    for session_index, trace in enumerate(scenario.evaluation_by_app()[app]):
        matrices.extend(
            runner.flow_feature_matrices(
                padding, trace, pipeline.window, pipeline.min_packets
            )
        )
        extra = sum(stage.extra_bytes for stage in runner.stage_overhead(padding, trace))
        pad_overheads.append(
            100.0 * extra / trace.total_bytes if trace.total_bytes else 0.0
        )
        if target_app is None:
            morph_overheads.append(0.0)
        else:
            morpher = TrafficMorphing(
                target_trace=scenario.evaluation_trace(AppType(target_app)),
                seed=scenario.seed + session_index,
            )
            # Only the byte cost is read, so the morph is not counted
            # as an evaluated scheme application.
            morph_overheads.append(overhead_percent(morpher.transform(trace)))
    report = pipeline.evaluate_matrices({app.value: matrices})
    return (
        report.accuracy_by_class[app.value],
        sum(pad_overheads) / len(pad_overheads),
        sum(morph_overheads) / len(morph_overheads),
    )


def _timing_attack(scenario: EvaluationScenario, window: float) -> AttackPipeline:
    """The size-blind attacker, trained on the scenario's training split."""
    pipeline = AttackPipeline(
        window=window,
        seed=scenario.seed,
        feature_indices=_TIMING_FEATURES,
    )
    return pipeline.train(scenario.training_traces())


def _table(rows: list[tuple[float, float, float]]) -> Table6Result:
    """Per-app ``(accuracy, padding %, morphing %)`` rows, in AppType order."""
    apps = [app.value for app in AppType]
    accuracy, padding, morphing = (dict(zip(apps, column)) for column in zip(*rows))
    return Table6Result(
        accuracy=accuracy, padding_overhead=padding, morphing_overhead=morphing
    )


# ----------------------------------------------------------------------
# Registry integration: one cell per application
# ----------------------------------------------------------------------


def _timing_pipeline(params: ScenarioParams, window: float) -> AttackPipeline:
    """Process-local timing-attack pipeline (trained once per worker)."""
    return parallel.worker_cached(
        ("table6-pipeline", params, window_key(window)),
        lambda: _timing_attack(parallel.shared_scenario(params), window),
    )


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "table6",
            f"app={app.value}",
            {
                "scenario": params,
                "app": app.value,
                "window": float(options["window"]),
            },
            params.seed,
        )
        for app in AppType
    )


def _run_cell(cell: ExperimentCell) -> tuple[float, float, float]:
    params = cell.params["scenario"]
    return _app_row(
        parallel.shared_runner(params),
        _timing_pipeline(params, float(cell.params["window"])),
        AppType(cell.params["app"]),
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[tuple[float, float, float]],
) -> Table6Result:
    return _table(results)


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: Table6Result,
) -> ExperimentResult:
    return ExperimentResult(
        experiment="table6",
        title="Table VI — timing-attack accuracy % and byte overhead %",
        headers=("app", "timing acc %", "padding ovh %", "morphing ovh %"),
        rows=tuple(tuple(row) for row in result.rows()),
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="table6",
        title="Table VI — efficiency: padding & morphing vs reshaping",
        description=(
            "Timing-attack accuracy (shared by padding/morphing) plus the "
            "byte overhead of each baseline; one cell per application."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={"window": 5.0},
    )
)
