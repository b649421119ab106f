"""Table IV: false-positive rates, Original versus OR, W in {5, 60} s.

Registered as ``table4``: one cell per (window, scheme) pair — four
independent (train-at-W, evaluate-scheme) units.
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
from repro.schemes import DEFAULT_INTERFACES, legacy_scheme_spec
from repro.traffic.apps import ALL_APPS
from repro.util.results import ExperimentResult

__all__ = ["Table4Result"]


@dataclass(frozen=True)
class Table4Result:
    """FP rates keyed by (window, scheme)."""

    fp_rates: dict[tuple[float, str], dict[str, float]]
    mean_fp: dict[tuple[float, str], float]

    def rows(self) -> list[list[object]]:
        """One row per app (+ Mean): FP% at (5s orig, 5s OR, 60s orig, 60s OR)."""
        order = (
            "browsing",
            "chatting",
            "gaming",
            "downloading",
            "uploading",
            "video",
            "bittorrent",
        )
        columns = [(5.0, "Original"), (5.0, "OR"), (60.0, "Original"), (60.0, "OR")]
        rows: list[list[object]] = []
        for app in order:
            rows.append([app] + [self.fp_rates[column][app] for column in columns])
        rows.append(["Mean"] + [self.mean_fp[column] for column in columns])
        return rows


# ----------------------------------------------------------------------
# Registry integration: one cell per (window, scheme)
# ----------------------------------------------------------------------


def _grid(options: dict[str, object]) -> tuple[tuple[float, str], ...]:
    return tuple(
        (window, scheme)
        for window in parse_number_list(options["windows"])
        for scheme in ("Original", "OR")
    )


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "table4",
            f"window={window:g}/scheme={scheme}",
            {
                "scenario": params,
                "window": window,
                "scheme": scheme,
                "spec": legacy_scheme_spec(scheme, int(options["interfaces"])),
                "interfaces": int(options["interfaces"]),
            },
            params.seed,
        )
        for window, scheme in _grid(options)
    )


def _run_cell(cell: ExperimentCell) -> AttackReport:
    runner = parallel.shared_runner(cell.params["scenario"])
    scheme = runner.scheme(cell.params["spec"])
    return runner.evaluate_scheme(scheme, float(cell.params["window"]))


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[AttackReport],
) -> Table4Result:
    fp_rates: dict[tuple[float, str], dict[str, float]] = {}
    mean_fp: dict[tuple[float, str], float] = {}
    for (window, scheme), report in zip(_grid(options), results):
        fp_rates[(window, scheme)] = report.false_positive_by_class
        mean_fp[(window, scheme)] = report.mean_false_positive
    return Table4Result(fp_rates=fp_rates, mean_fp=mean_fp)


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: Table4Result,
) -> ExperimentResult:
    columns = sorted(result.fp_rates, key=lambda key: (key[0], key[1] != "Original"))
    headers = ["app"] + [f"{scheme} W={window:g}s" for window, scheme in columns]
    rows: list[tuple[object, ...]] = []
    for app in (a.value for a in ALL_APPS):
        rows.append((app, *(result.fp_rates[column][app] for column in columns)))
    rows.append(("Mean", *(result.mean_fp[column] for column in columns)))
    return ExperimentResult(
        experiment="table4",
        title="Table IV — false-positive rates %, Original vs OR",
        headers=tuple(headers),
        rows=tuple(rows),
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
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={"windows": "5,60", "interfaces": DEFAULT_INTERFACES},
    )
)
