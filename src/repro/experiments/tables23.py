"""Tables II and III: classification accuracy per scheme.

Table II evaluates at W = 5 s, Table III at W = 60 s; both report the
per-application accuracy and the mean for Original / FH / RA / RR / OR.

Registered as ``table2`` and ``table3``: one cell per scheme, so the
five (train-once, evaluate-scheme) units fan out independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.attack import AttackReport
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.experiments.scenarios import SCHEME_NAMES
from repro.schemes import DEFAULT_INTERFACES, legacy_scheme_spec
from repro.util.results import ExperimentResult

__all__ = ["AccuracyTable"]


@dataclass(frozen=True)
class AccuracyTable:
    """Per-scheme accuracies for one eavesdropping duration."""

    window: float
    reports: dict[str, AttackReport]

    def accuracy(self, scheme: str, app: str) -> float:
        """Accuracy (%) of ``app`` under ``scheme``."""
        return self.reports[scheme].accuracy_by_class[app]

    def mean(self, scheme: str) -> float:
        """Mean accuracy (%) of ``scheme``."""
        return self.reports[scheme].mean_accuracy

    def rows(self) -> list[list[object]]:
        """Table rows: one per app plus a Mean row, columns per scheme."""
        runner_order = (
            "browsing",
            "chatting",
            "gaming",
            "downloading",
            "uploading",
            "video",
            "bittorrent",
        )
        rows: list[list[object]] = []
        for app in runner_order:
            rows.append([app] + [self.accuracy(scheme, app) for scheme in SCHEME_NAMES])
        rows.append(["Mean"] + [self.mean(scheme) for scheme in SCHEME_NAMES])
        return rows


# ----------------------------------------------------------------------
# Registry integration: one cell per scheme
# ----------------------------------------------------------------------


def _accuracy_cells(
    params: ScenarioParams,
    options: dict[str, object],
    experiment: str,
) -> tuple[ExperimentCell, ...]:
    # The scheme grid is declared as registry specs: the cell carries
    # the picklable recipe, never a live scheduler object.
    return tuple(
        make_cell(
            experiment,
            f"scheme={scheme}",
            {
                "scenario": params,
                "scheme": scheme,
                "spec": legacy_scheme_spec(scheme, int(options["interfaces"])),
                "window": float(options["window"]),
                "interfaces": int(options["interfaces"]),
            },
            params.seed,
        )
        for scheme in SCHEME_NAMES
    )


def _run_accuracy_cell(cell: ExperimentCell) -> AttackReport:
    runner = parallel.shared_runner(cell.params["scenario"])
    scheme = runner.scheme(cell.params["spec"])
    return runner.evaluate_scheme(scheme, float(cell.params["window"]))


def _combine_accuracy(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[AttackReport],
) -> AccuracyTable:
    return AccuracyTable(
        window=float(options["window"]),
        reports=dict(zip(SCHEME_NAMES, results)),
    )


def _accuracy_result(
    params: ScenarioParams,
    options: dict[str, object],
    table: AccuracyTable,
    experiment: str,
    title: str,
) -> ExperimentResult:
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=("app", *SCHEME_NAMES),
        rows=tuple(tuple(row) for row in table.rows()),
        params={**params.as_dict(), **options},
    )


for _name, _window, _title in (
    ("table2", 5.0, "Table II — classification accuracy %, W = 5 s"),
    ("table3", 60.0, "Table III — classification accuracy %, W = 60 s"),
):
    registry.register(
        ExperimentSpec(
            name=_name,
            title=_title,
            description=(
                "Per-application accuracy of the best attacker under "
                "Original/FH/RA/RR/OR; one cell per scheme."
            ),
            build_cells=partial(_accuracy_cells, experiment=_name),
            run_cell=_run_accuracy_cell,
            combine=_combine_accuracy,
            to_result=partial(_accuracy_result, experiment=_name, title=_title),
            options={"window": _window, "interfaces": DEFAULT_INTERFACES},
        )
    )
