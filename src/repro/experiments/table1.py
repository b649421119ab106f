"""Table I: per-virtual-interface traffic features under OR.

For every application, the downlink (AP -> user) mean packet size and
mean interarrival time of the original flow and of each of the three
OR interfaces, with the paper's default configuration (I = 3, ranges
(0, 232], (232, 1540], (1540, 1576]).

Registered as ``table1``: one cell per application (reshaping one
evaluation trace and summarizing its per-interface flows is
independent across applications).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.experiments.scenarios import EvaluationScenario
from repro.schemes import DEFAULT_INTERFACES, build_scheme, legacy_scheme_spec
from repro.traffic.apps import ALL_APPS, AppType
from repro.traffic.stats import summarize_trace
from repro.util.results import ExperimentResult

__all__ = ["Table1Row"]


@dataclass(frozen=True)
class Table1Row:
    """One application's Table I entry."""

    app: str
    original_mean_size: float
    original_interarrival: float
    interface_mean_sizes: dict[int, float]
    interface_interarrivals: dict[int, float]


def _app_row(
    scenario: EvaluationScenario,
    app: AppType,
    interfaces: int,
) -> Table1Row:
    """Table I entry for one application (one independent cell)."""
    scheme = build_scheme(legacy_scheme_spec("or", interfaces), scenario.seed)
    trace = scenario.evaluation_trace(app)
    original = summarize_trace(trace)
    result = scheme.apply(trace)
    sizes: dict[int, float] = {}
    interarrivals: dict[int, float] = {}
    for iface in range(interfaces):
        flow = result.flows.get(iface)
        if flow is None or len(flow) == 0:
            sizes[iface] = float("nan")
            interarrivals[iface] = float("nan")
            continue
        summary = summarize_trace(flow)
        sizes[iface] = summary.mean_size
        interarrivals[iface] = summary.mean_interarrival
    return Table1Row(
        app=app.value,
        original_mean_size=original.mean_size,
        original_interarrival=original.mean_interarrival,
        interface_mean_sizes=sizes,
        interface_interarrivals=interarrivals,
    )


# ----------------------------------------------------------------------
# Registry integration: one cell per application
# ----------------------------------------------------------------------


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "table1",
            f"app={app.value}",
            {
                "scenario": params,
                "app": app.value,
                "interfaces": int(options["interfaces"]),
            },
            params.seed,
        )
        for app in ALL_APPS
    )


def _run_cell(cell: ExperimentCell) -> Table1Row:
    scenario = parallel.shared_scenario(cell.params["scenario"])
    return _app_row(
        scenario, AppType(cell.params["app"]), int(cell.params["interfaces"])
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[Table1Row],
) -> list[Table1Row]:
    return list(results)


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    rows: list[Table1Row],
) -> ExperimentResult:
    interfaces = int(options["interfaces"])
    headers = ["app", "orig size B", "orig IAT s"]
    for iface in range(interfaces):
        headers.extend([f"I{iface} size B", f"I{iface} IAT s"])
    body = []
    for row in rows:
        cells: list[object] = [row.app, row.original_mean_size, row.original_interarrival]
        for iface in range(interfaces):
            cells.extend(
                [row.interface_mean_sizes[iface], row.interface_interarrivals[iface]]
            )
        body.append(tuple(cells))
    return ExperimentResult(
        experiment="table1",
        title="Table I — per-interface downlink features under OR",
        headers=tuple(headers),
        rows=tuple(body),
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="table1",
        title="Table I — per-interface traffic features under OR",
        description=(
            "Downlink mean packet size and interarrival of the original flow "
            "and each OR virtual interface; one cell per application."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={"interfaces": DEFAULT_INTERFACES},
    )
)
