"""Table IV: false-positive rates, Original versus OR, W in {5, 60} s.

Registered as ``table4``: one cell per (window, scheme) pair — four
independent (train-at-W, evaluate-scheme) units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.attack import AttackReport
from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentSpec,
    GridEntry,
    ScenarioParams,
    parse_number_list,
)
from repro.schemes import DEFAULT_INTERFACES, legacy_scheme_spec
from repro.traffic.apps import ALL_APPS
from repro.util.results import ExperimentResult

__all__ = ["Table4Result"]


@dataclass(frozen=True)
class Table4Result:
    """FP rates keyed by (window, scheme)."""

    fp_rates: dict[tuple[float, str], dict[str, float]]
    mean_fp: dict[tuple[float, str], float]

    def columns(self) -> list[tuple[float, str]]:
        """The (window, scheme) columns: by window, Original before OR."""
        return sorted(self.fp_rates, key=lambda key: (key[0], key[1] != "Original"))

    def rows(self) -> list[list[object]]:
        """One row per app (+ Mean): FP% per column of :meth:`columns`."""
        columns = self.columns()
        rows: list[list[object]] = []
        for app in (app.value for app in ALL_APPS):
            rows.append([app] + [self.fp_rates[column][app] for column in columns])
        rows.append(["Mean"] + [self.mean_fp[column] for column in columns])
        return rows


# ----------------------------------------------------------------------
# Registry integration: a scoring grid, one cell per (window, scheme)
# ----------------------------------------------------------------------


def _columns(options: dict[str, object]) -> tuple[tuple[float, str], ...]:
    return tuple(
        (window, scheme)
        for window in parse_number_list(options["windows"])
        for scheme in ("Original", "OR")
    )


def _grid(options: dict[str, object]) -> tuple[GridEntry, ...]:
    interfaces = int(options["interfaces"])
    return tuple(
        (
            f"window={window:g}/scheme={scheme}",
            window,
            legacy_scheme_spec(scheme, interfaces),
        )
        for window, scheme in _columns(options)
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[AttackReport],
) -> Table4Result:
    fp_rates: dict[tuple[float, str], dict[str, float]] = {}
    mean_fp: dict[tuple[float, str], float] = {}
    for column, report in zip(_columns(options), results):
        fp_rates[column] = report.false_positive_by_class
        mean_fp[column] = report.mean_false_positive
    return Table4Result(fp_rates=fp_rates, mean_fp=mean_fp)


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: Table4Result,
) -> ExperimentResult:
    return ExperimentResult(
        experiment="table4",
        title="Table IV — false-positive rates %, Original vs OR",
        headers=(
            "app",
            *(f"{scheme} W={window:g}s" for window, scheme in result.columns()),
        ),
        rows=tuple(tuple(row) for row in result.rows()),
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="table4",
        title="Table IV — false-positive rates, Original vs OR",
        description=(
            "Per-application false-positive rate at W = 5 s and W = 60 s, "
            "undefended vs OR; one cell per (window, scheme)."
        ),
        build_cells=partial(registry.grid_cells, experiment="table4", grid=_grid),
        run_cell=registry.score_cell,
        combine=_combine,
        to_result=_to_result,
        options={"windows": "5,60", "interfaces": DEFAULT_INTERFACES},
        pipelines=partial(registry.grid_pipelines, grid=_grid),
    )
)
