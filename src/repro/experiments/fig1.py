"""Figure 1: packet-size CDF of the seven applications (receiver side).

Registered as ``fig1``: one cell per application.  Trace generation
draws from named RNG streams (seed × app × session), so per-app cells
produce the same CDFs no matter which process generates them or in
what order.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    make_cell,
)
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.packet import DOWNLINK
from repro.traffic.stats import empirical_cdf
from repro.util.results import ExperimentResult

__all__: list[str] = []


def _app_series(
    app: AppType,
    duration: float,
    seed: int,
    grid_step: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One application's downlink size CDF on the shared grid.

    Reproduces one curve of Figure 1: the application's cumulative
    packet-size distribution on the receiver (AP -> user) side.  The
    shape targets are the two mass modes around [108, 232] and
    [1546, 1576] with per-application weights (chatting mostly small,
    downloading/video mostly full-size, BT bimodal, ...).
    """
    generator = TrafficGenerator(seed=seed)
    grid = np.arange(0, 1576 + 1, grid_step, dtype=np.float64)
    trace = generator.generate(app, duration=duration)
    downlink = trace.direction_view(DOWNLINK)
    return empirical_cdf(downlink.sizes, grid)


# ----------------------------------------------------------------------
# Registry integration: one cell per application
# ----------------------------------------------------------------------


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return tuple(
        make_cell(
            "fig1",
            f"app={app.value}",
            {
                "app": app.value,
                "duration": float(options["duration"]),
                "seed": params.seed,
                "grid_step": int(options["grid_step"]),
            },
            params.seed,
        )
        for app in AppType
    )


def _run_cell(cell: ExperimentCell) -> tuple[np.ndarray, np.ndarray]:
    return _app_series(
        AppType(cell.params["app"]),
        float(cell.params["duration"]),
        int(cell.params["seed"]),
        int(cell.params["grid_step"]),
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[tuple[np.ndarray, np.ndarray]],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {app.value: series for app, series in zip(AppType, results)}


def _quantile(grid: np.ndarray, cdf: np.ndarray, q: float) -> float:
    index = int(np.searchsorted(cdf, q, side="left"))
    return float(grid[min(index, len(grid) - 1)])


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    series: dict[str, tuple[np.ndarray, np.ndarray]],
) -> ExperimentResult:
    rows: list[tuple[object, ...]] = []
    for app, (grid, cdf) in series.items():
        small = float(np.interp(232.0, grid, cdf))
        large = 1.0 - float(np.interp(1540.0, grid, cdf))
        rows.append(
            (
                app,
                _quantile(grid, cdf, 0.5),
                _quantile(grid, cdf, 0.9),
                100.0 * small,
                100.0 * large,
            )
        )
    return ExperimentResult(
        experiment="fig1",
        title="Figure 1 — downlink packet-size CDF summary per application",
        headers=("app", "median B", "p90 B", "mass <= 232 B %", "mass > 1540 B %"),
        rows=tuple(rows),
        params={**params.as_dict(), **options},
        extras={
            "series": {
                app: {"grid": grid, "cdf": cdf} for app, (grid, cdf) in series.items()
            }
        },
    )


registry.register(
    ExperimentSpec(
        name="fig1",
        title="Figure 1 — per-application packet-size CDFs",
        description=(
            "Downlink cumulative packet-size distribution of the seven "
            "activities; one cell per application."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={"duration": 300.0, "grid_step": 8},
    )
)
