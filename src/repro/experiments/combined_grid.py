"""``combined_grid``: stacked-defense sweep — the scheme pipeline's payoff.

The paper evaluates each defense in isolation and only gestures at
combinations ("traffic reshaping together with traffic morphing",
Sec. V-C).  With every defense behind the unified
:class:`~repro.schemes.Scheme` interface, arbitrary *stacks* are one
registry recipe away — this experiment sweeps a grid of compositions
(``padding+or``, ``pseudonym+or``, ``padding+or+fh``, ...) against a
grid of attacking classifiers and reports, per cell:

* the attacker's mean accuracy over the defended observable flows,
* the data-path byte overhead (additive across stages, Table VI metric),
* the Fig. 2 handshake bytes the stack's reshaping stages spent, and
* the flow fan-out (how many observable identities one trace becomes).

Cells are (composition × classifier) and fully independent: each builds
its stack from a seed derived from the composition alone (so every
classifier column attacks the same defended traffic) and trains (or
reuses a process-cached) single-classifier pipeline, so ``--jobs N``
reproduces the serial numbers exactly — the acceptance bar
``repro run combined_grid --scheme padding+or --jobs 2`` == serial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.attack import AttackPipeline
from repro.analysis.classifiers import (
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSvm,
    MlpClassifier,
)
from repro.analysis.windows import window_key
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.schemes import Scheme, SchemeSpec, canonical_stack, stack_label
from repro.schemes.registry import build_stack, get_scheme
from repro.util.results import ExperimentResult
from repro.util.rng import derive_seed

__all__ = ["CombinedGridResult", "GridCell"]

#: The default composition grid: every single defense plus the stacked
#: combinations the paper's discussion motivates (reshaping after a
#: size-normalizing defense, pseudonym epochs on top of reshaping,
#: channel hopping as a final partitioning stage).
DEFAULT_COMPOSITIONS = (
    "padding",
    "or",
    "fh",
    "pseudonym",
    "morphing",
    "padding+or",
    "padding+fh",
    "or+fh",
    "pseudonym+or",
    "morphing+or",
    "padding+or+fh",
    "padding+pseudonym+or",
)

_CLASSIFIERS = {
    "svm": lambda seed: LinearSvm(seed=seed),
    "nn": lambda seed: MlpClassifier(seed=seed),
    "bayes": lambda seed: GaussianNaiveBayes(),
    "knn": lambda seed: KNearestNeighbors(),
}


@dataclass(frozen=True)
class GridCell:
    """One (composition, classifier) evaluation."""

    composition: str
    classifier: str
    mean_accuracy: float
    overhead_percent: float
    handshake_bytes: int
    flows: int
    stage_overhead: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CombinedGridResult:
    """The full grid, in (composition-major, classifier-minor) order."""

    cells: tuple[GridCell, ...]

    def best_defense(self) -> GridCell:
        """The cell with the lowest attacker accuracy (strongest defense)."""
        return min(self.cells, key=lambda cell: cell.mean_accuracy)


def _unique(option: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """``names``, refusing a repeat (it would yield duplicate cells)."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(
                f"{option} lists {name!r} more than once "
                f"(after canonicalization: {', '.join(names)})"
            )
        seen.add(name)
    return names


def _parse_compositions(options: dict[str, object]) -> tuple[str, ...]:
    """The canonicalized composition list from the ``schemes`` option."""
    raw = [part.strip() for part in str(options["schemes"]).split(",") if part.strip()]
    if not raw:
        raise ValueError(
            "schemes must name at least one composition "
            "(comma-separated, stages joined with '+')"
        )
    return _unique(
        "schemes", tuple(stack_label(canonical_stack(text)) for text in raw)
    )


def _parse_scheme_params(options: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """``scheme_params``: ``key=value`` pairs applied to matching stages.

    Entries are separated by ``;`` so *values* may contain commas
    (``channels=1,6,11``, ``boundaries=525,1050,1576``).
    """
    pairs = []
    for part in str(options["scheme_params"]).split(";"):
        part = part.strip()
        if not part:
            continue
        key, separator, value = part.partition("=")
        if not separator or not key:
            raise ValueError(
                f"bad scheme_params entry {part!r}; expected KEY=VALUE "
                "(separate entries with ';')"
            )
        pairs.append((key.strip(), value.strip()))
    return tuple(pairs)


def _specs_for(
    composition: str, scheme_params: tuple[tuple[str, str], ...]
) -> tuple[SchemeSpec, ...]:
    """The composition's stage specs, with grid-wide param overrides.

    Each ``scheme_params`` pair applies to every stage that declares
    the key (``interfaces=5`` hits ra/rr/or, not padding); stages that
    don't declare it pass through — whether the key hits *anywhere in
    the grid* is checked by :func:`_cells`, so sweeping the default
    grid with ``--scheme-set interfaces=2`` works even though some
    compositions have no interface-parameterized stage.
    """
    specs = list(canonical_stack(composition))
    for key, value in scheme_params:
        for index, spec in enumerate(specs):
            definition = get_scheme(spec.scheme)
            if key in definition.params:
                specs[index] = spec.with_params(
                    **{key: definition.resolve_params({key: value})[key]}
                )
    return tuple(specs)


def _classifiers(options: dict[str, object]) -> tuple[str, ...]:
    names = tuple(
        part.strip() for part in str(options["classifiers"]).split(",") if part.strip()
    )
    unknown = set(names) - set(_CLASSIFIERS)
    if not names or unknown:
        known = ", ".join(sorted(_CLASSIFIERS))
        raise ValueError(
            f"classifiers must be a comma-separated subset of {{{known}}}, "
            f"got {options['classifiers']!r}"
        )
    return _unique("classifiers", names)


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    scheme_params = _parse_scheme_params(options)
    compositions = _parse_compositions(options)
    classifiers = _classifiers(options)
    specs_by_composition = {
        composition: _specs_for(composition, scheme_params)
        for composition in compositions
    }
    # A scheme_params key nothing in the whole grid declares is a typo;
    # a key only *some* compositions declare is the normal sweep case.
    declared = {
        key
        for specs in specs_by_composition.values()
        for spec in specs
        for key in get_scheme(spec.scheme).params
    }
    for key, _ in scheme_params:
        if key not in declared:
            known = ", ".join(sorted(declared)) or "(none)"
            raise ValueError(
                f"scheme_params key {key!r} matches no stage of any "
                f"selected composition; declared parameters: {known}"
            )
    cells = []
    for composition in compositions:
        for classifier in classifiers:
            cells.append(
                make_cell(
                    "combined_grid",
                    f"scheme={composition}/clf={classifier}",
                    {
                        "scenario": params,
                        "composition": composition,
                        "specs": specs_by_composition[composition],
                        "classifier": classifier,
                        "window": float(options["window"]),
                    },
                    params.seed,
                )
            )
    return tuple(cells)


def _grid_pipeline(
    params: ScenarioParams, classifier: str, window: float
) -> AttackPipeline:
    """Process-local single-classifier pipeline (trained once per worker)."""

    def build() -> AttackPipeline:
        scenario = parallel.shared_scenario(params)
        pipeline = AttackPipeline(
            window=window,
            seed=scenario.seed,
            attackers=[_CLASSIFIERS[classifier](scenario.seed)],
        )
        return pipeline.train(scenario.training_traces())

    return parallel.worker_cached(
        ("combined_grid-pipeline", params, classifier, window_key(window)), build
    )


def _grid_stack(
    params: ScenarioParams, composition: str, specs: tuple[SchemeSpec, ...]
) -> Scheme:
    """The composition's stack, built once per process.

    The stack seed is derived from the composition alone — NOT the
    cell name, which also carries the classifier — so every classifier
    column attacks the *same* defended traffic and the accuracy
    comparison is not confounded by a different stochastic defense
    realization per column.  Still a pure function of
    (root seed, composition): identical in any process.  The memo keeps
    the stack's identity stable, so the runner's window cache plans
    (or applies) and featurizes each trace once per composition, not
    once per classifier.
    """
    return parallel.worker_cached(
        ("combined_grid-stack", params, specs),
        lambda: build_stack(
            specs, seed=derive_seed(params.seed, "combined-grid-stack", composition)
        ),
    )


def _run_cell(cell: ExperimentCell) -> GridCell:
    params = cell.params["scenario"]
    composition = str(cell.params["composition"])
    stack = _grid_stack(params, composition, cell.params["specs"])
    pipeline = _grid_pipeline(
        params, str(cell.params["classifier"]), float(cell.params["window"])
    )
    runner = parallel.shared_runner(params)
    matrices_by_label: dict[str, list[np.ndarray]] = {}
    original_bytes = extra_bytes = handshake_bytes = flow_count = 0
    per_stage: dict[str, int] = {}
    for label, traces in runner.scenario.evaluation_by_label().items():
        matrices_by_label[label] = []
        for trace in traces:
            matrices_by_label[label].extend(
                runner.flow_feature_matrices(
                    stack, trace, pipeline.window, pipeline.min_packets
                )
            )
            stages = runner.stage_overhead(stack, trace)
            original_bytes += trace.total_bytes
            extra_bytes += sum(stage.extra_bytes for stage in stages)
            handshake_bytes += sum(stage.handshake_bytes for stage in stages)
            flow_count += stages[-1].flows
            for stage in stages:
                per_stage[stage.scheme] = (
                    per_stage.get(stage.scheme, 0) + stage.extra_bytes
                )
    report = pipeline.evaluate_matrices(matrices_by_label)
    return GridCell(
        composition=composition,
        classifier=str(cell.params["classifier"]),
        mean_accuracy=report.mean_accuracy,
        overhead_percent=100.0 * extra_bytes / max(original_bytes, 1),
        handshake_bytes=handshake_bytes,
        flows=flow_count,
        stage_overhead=tuple(per_stage.items()),
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[GridCell],
) -> CombinedGridResult:
    return CombinedGridResult(cells=tuple(results))


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: CombinedGridResult,
) -> ExperimentResult:
    rows = tuple(
        (
            cell.composition,
            cell.classifier,
            cell.mean_accuracy,
            cell.overhead_percent,
            cell.handshake_bytes,
            cell.flows,
        )
        for cell in result.cells
    )
    best = result.best_defense()
    return ExperimentResult(
        experiment="combined_grid",
        title="Combined-defense grid — stacked schemes vs attacking classifiers",
        headers=(
            "composition", "classifier", "mean acc %",
            "overhead %", "handshake B", "flows",
        ),
        rows=rows,
        params={**params.as_dict(), **options},
        extras={
            "best_composition": best.composition,
            "best_classifier": best.classifier,
            "best_accuracy": best.mean_accuracy,
            "stage_overhead": {
                f"{cell.composition}/{cell.classifier}": dict(cell.stage_overhead)
                for cell in result.cells
            },
        },
    )


registry.register(
    ExperimentSpec(
        name="combined_grid",
        title="Combined defenses — stacked scheme compositions vs classifiers",
        description=(
            "Sweeps scheme stacks (padding+or, pseudonym+or, ...) against "
            "attacking classifiers; reports accuracy, additive byte "
            "overhead, handshake bytes, and flow fan-out per cell."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={
            "window": 5.0,
            "schemes": ",".join(DEFAULT_COMPOSITIONS),
            "classifiers": "svm,bayes",
            "scheme_params": "",
        },
    )
)
