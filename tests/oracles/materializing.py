"""The materializing evaluation oracle: apply → featurize → score.

Every experiment featurizes through
:meth:`repro.experiments.ExperimentRunner.flow_feature_matrices`, which
plans every scheme (morphing as a gather) and never applies one.
This module is the reference that route is held to: every scheme is
applied for real, every observable flow is featurized on its own with
:func:`~repro.analysis.batch.flow_feature_matrix`, byte accounting is
read off the applied :class:`~repro.defenses.base.DefendedTraffic`, and
nothing is cached.  The experiment oracles below recompute the rows of
``combined_grid``, ``table6``, ``combined`` and ``population_scale``
that way.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.batch import flow_feature_matrix
from repro.analysis.metrics import ConfusionMatrix, mean_accuracy
from repro.core.combined import CombinedDefense
from repro.defenses.base import DefendedTraffic
from repro.defenses.morphing import TrafficMorphing
from repro.defenses.overhead import overhead_percent
from repro.defenses.padding import PacketPadding
from repro.analysis.classifiers import CLASSIFIERS
from repro.experiments.combined_grid import _parse_compositions
from repro.experiments.registry import ScenarioParams
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import Scheme, build_raw, build_scheme, build_stack, legacy_scheme_spec
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.trace import Trace
from repro.util.rng import derive_seed

__all__ = [
    "combined_grid_oracle",
    "combined_oracle",
    "defended_matrices",
    "evaluate_scheme",
    "population_oracle",
    "table6_oracle",
    "training_split",
]


def training_split(scenario: EvaluationScenario) -> dict[str, list[Trace]]:
    """The whole training split, by label, read one session at a time."""
    return {
        app.value: [
            scenario.training_session(app, session)
            for session in range(scenario.train_sessions)
        ]
        for app in scenario.apps
    }


def defended_matrices(
    scheme: Scheme,
    trace: Trace,
    window: float,
) -> tuple[list[np.ndarray], DefendedTraffic]:
    """Per-flow matrices of ``trace`` under ``scheme`` via a real ``apply``."""
    defended = scheme.apply(trace)
    matrices = [flow_feature_matrix(flow, window) for flow in defended.observable_flows]
    return matrices, defended


def evaluate_scheme(
    pipeline: AttackPipeline,
    scheme: Scheme,
    traces_by_label: dict[str, list[Trace]],
) -> AttackReport:
    """The materializing counterpart of ``ExperimentRunner.evaluate_scheme``."""
    matrices_by_label = {
        label: [
            matrix
            for trace in traces
            for matrix in defended_matrices(scheme, trace, pipeline.window)[0]
        ]
        for label, traces in traces_by_label.items()
    }
    return pipeline.evaluate_matrices(matrices_by_label)


def combined_grid_oracle(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[list[tuple], dict[str, dict[str, int]]]:
    """``combined_grid``'s rows and ``stage_overhead`` extra, materialized.

    Honors the ``schemes``/``classifiers``/``window`` options (not
    ``scheme_params``).
    """
    scenario = params.build()
    window = float(options["window"])
    classifiers = [
        name.strip() for name in str(options["classifiers"]).split(",") if name.strip()
    ]
    training = training_split(scenario)
    pipelines = {
        name: AttackPipeline(
            window=window,
            seed=scenario.seed,
            attackers=[CLASSIFIERS[name](scenario.seed)],
        ).train(training)
        for name in classifiers
    }
    rows: list[tuple] = []
    stage_overhead: dict[str, dict[str, int]] = {}
    for composition in _parse_compositions(options):
        stack = build_stack(
            composition,
            seed=derive_seed(params.seed, "combined-grid-stack", composition),
        )
        matrices_by_label: dict[str, list[np.ndarray]] = {}
        everything: list[DefendedTraffic] = []
        for label, traces in scenario.evaluation_by_label().items():
            matrices_by_label[label] = []
            for trace in traces:
                matrices, defended = defended_matrices(stack, trace, window)
                matrices_by_label[label].extend(matrices)
                everything.append(defended)
        original = sum(d.original.total_bytes for d in everything)
        per_stage: dict[str, int] = {}
        for defended in everything:
            for stage in defended.stages:
                per_stage[stage.scheme] = (
                    per_stage.get(stage.scheme, 0) + stage.extra_bytes
                )
        for name, pipeline in pipelines.items():
            report = pipeline.evaluate_matrices(matrices_by_label)
            rows.append(
                (
                    composition,
                    name,
                    report.mean_accuracy,
                    100.0 * sum(d.extra_bytes for d in everything) / max(original, 1),
                    sum(d.handshake_bytes for d in everything),
                    sum(len(d.flows) for d in everything),
                )
            )
            stage_overhead[f"{composition}/{name}"] = dict(per_stage)
    return rows, stage_overhead


_TIMING_FEATURES = (0, 5, 6, 11)


def table6_oracle(params: ScenarioParams, window: float = 5.0) -> list[list[object]]:
    """Table VI's rows: padded flows applied and featurized one by one."""
    from repro.experiments.table6 import Table6Result

    scenario = params.build()
    pipeline = AttackPipeline(
        window=window, seed=scenario.seed, feature_indices=_TIMING_FEATURES
    ).train(training_split(scenario))
    morph_pairs = TrafficMorphing.paper_morph_pairs()
    padding = PacketPadding()
    accuracy, padding_overhead, morphing_overhead = {}, {}, {}
    for app in AppType:
        matrices, pad, morph = [], [], []
        for session, trace in enumerate(scenario.evaluation_by_app()[app]):
            padded, defended = defended_matrices(padding, trace, window)
            matrices.extend(padded)
            pad.append(overhead_percent(defended))
            target = morph_pairs.get(app.value)
            if target is None:
                morph.append(0.0)
            else:
                morpher = TrafficMorphing(
                    target_trace=scenario.evaluation_trace(AppType(target)),
                    seed=scenario.seed + session,
                )
                morph.append(overhead_percent(morpher.apply(trace)))
        report = pipeline.evaluate_matrices({app.value: matrices})
        accuracy[app.value] = report.accuracy_by_class[app.value]
        padding_overhead[app.value] = sum(pad) / len(pad)
        morphing_overhead[app.value] = sum(morph) / len(morph)
    return Table6Result(accuracy, padding_overhead, morphing_overhead).rows()


def combined_oracle(
    params: ScenarioParams, window: float = 5.0
) -> tuple[list[tuple], float]:
    """The ``combined`` rows and overhead, with a fresh defense per trace."""
    scenario = params.build()
    pipeline = AttackPipeline(window=window, seed=scenario.seed).train(
        training_split(scenario)
    )
    orthogonal = build_scheme(legacy_scheme_spec("or"), scenario.seed)
    targets = {
        0: scenario.evaluation_trace(AppType.GAMING),
        1: scenario.evaluation_trace(AppType.BROWSING),
    }
    or_matrices, combined_matrices = {}, {}
    extra = original = 0
    for app in AppType:
        or_matrices[app.value], combined_matrices[app.value] = [], []
        for trace in scenario.evaluation_by_app()[app]:
            original += trace.total_bytes
            or_matrices[app.value].extend(
                defended_matrices(orthogonal, trace, window)[0]
            )
            defense = CombinedDefense(
                build_raw(legacy_scheme_spec("or"), scenario.seed),
                targets,
                seed=scenario.seed,
            )
            matrices, defended = defended_matrices(defense, trace, window)
            combined_matrices[app.value].extend(matrices)
            extra += defended.extra_bytes
    or_report = pipeline.evaluate_matrices(or_matrices)
    combined_report = pipeline.evaluate_matrices(combined_matrices)
    rows = [
        (app, or_report.accuracy_by_class[app], combined_report.accuracy_by_class[app])
        for app in or_report.accuracy_by_class
    ]
    rows.append(("Mean", or_report.mean_accuracy, combined_report.mean_accuracy))
    return rows, 100.0 * extra / max(original, 1)


def population_oracle(
    params: ScenarioParams,
    populations: tuple[int, ...],
    scheme: str,
    station_duration: float,
    classifier: str = "svm",
    window: float = 5.0,
) -> list[tuple]:
    """``population_scale``'s rows: every station in memory, applied for real."""
    from repro.experiments.population_scale import station_app, station_name

    scenario = params.build()
    pipeline = AttackPipeline(
        window=window,
        seed=scenario.seed,
        attackers=[CLASSIFIERS[classifier](scenario.seed)],
    ).train(training_split(scenario))
    index = {label: i for i, label in enumerate(pipeline.classes)}
    rows = []
    for population in populations:
        counts = np.zeros((len(index), len(index)), dtype=np.int64)
        packets = windows = flows = original = extra = handshake = 0
        for station in map(station_name, range(population)):
            truth = station_app(params.seed, station)
            trace = TrafficGenerator(
                seed=derive_seed(params.seed, "population", "traffic", station)
            ).generate(truth, station_duration)
            stack = build_stack(
                scheme, seed=derive_seed(params.seed, "population", "defense", station)
            )
            matrices, defended = defended_matrices(stack, trace, window)
            packets += len(trace)
            original += trace.total_bytes
            extra += defended.extra_bytes
            handshake += defended.handshake_bytes
            flows += len(defended.flows)
            for matrix in matrices:
                windows += len(matrix)
                for predicted in pipeline.classify_matrix(matrix):
                    counts[index[truth.value], index[predicted]] += 1
        rows.append(
            (
                population,
                packets,
                windows,
                flows,
                mean_accuracy(ConfusionMatrix(pipeline.classes, counts)),
                100.0 * extra / max(original, 1),
                handshake,
            )
        )
    return rows
