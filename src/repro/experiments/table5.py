"""Table V: OR accuracy as the interface count I sweeps over {2, 3, 5}.

The paper's finding: accuracy decreases with I but with diminishing
returns — "generally I = 3 ... is enough for OR to thwart the traffic
analysis attack".

Registered as ``table5``: one cell per interface count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.attack import AttackReport
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
    parse_number_list,
)
from repro.schemes import PAPER_INTERFACE_COUNTS, legacy_scheme_spec
from repro.util.results import ExperimentResult

__all__ = ["Table5Result"]


@dataclass(frozen=True)
class Table5Result:
    """Per-app OR accuracy per interface count."""

    accuracies: dict[int, dict[str, float]]
    means: dict[int, float]

    def rows(self) -> list[list[object]]:
        """One row per app (+ Mean), one column per I."""
        order = (
            "browsing",
            "chatting",
            "gaming",
            "downloading",
            "uploading",
            "video",
            "bittorrent",
        )
        counts = sorted(self.accuracies)
        rows: list[list[object]] = []
        for app in order:
            rows.append([app] + [self.accuracies[i][app] for i in counts])
        rows.append(["Mean"] + [self.means[i] for i in counts])
        return rows


# ----------------------------------------------------------------------
# Registry integration: one cell per interface count
# ----------------------------------------------------------------------


def _counts(options: dict[str, object]) -> tuple[int, ...]:
    return parse_number_list(options["interfaces"], int)


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "table5",
            f"interfaces={count}",
            {
                "scenario": params,
                "interfaces": count,
                "spec": legacy_scheme_spec("or", count),
                "window": float(options["window"]),
            },
            params.seed,
        )
        for count in _counts(options)
    )


def _run_cell(cell: ExperimentCell) -> AttackReport:
    runner = parallel.shared_runner(cell.params["scenario"])
    scheme = runner.scheme(cell.params["spec"])
    return runner.evaluate_scheme(scheme, float(cell.params["window"]))


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[AttackReport],
) -> Table5Result:
    accuracies: dict[int, dict[str, float]] = {}
    means: dict[int, float] = {}
    for count, report in zip(_counts(options), results):
        accuracies[count] = report.accuracy_by_class
        means[count] = report.mean_accuracy
    return Table5Result(accuracies=accuracies, means=means)


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: Table5Result,
) -> ExperimentResult:
    counts = sorted(result.accuracies)
    return ExperimentResult(
        experiment="table5",
        title="Table V — OR accuracy % per interface count",
        headers=("app", *(f"I={count}" for count in counts)),
        rows=tuple(tuple(row) for row in result.rows()),
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="table5",
        title="Table V — OR accuracy per interface count",
        description=(
            "OR accuracy at W = 5 s as the interface count sweeps over "
            "{2, 3, 5}; one cell per interface count."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={
            "window": 5.0,
            "interfaces": ",".join(str(c) for c in PAPER_INTERFACE_COUNTS),
        },
    )
)
