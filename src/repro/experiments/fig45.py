"""Figures 4 and 5: OR scheduling of a BitTorrent flow.

Figure 4 partitions BT packets over three *size ranges*
(0, 525], (525, 1050], (1050, 1576]; Figure 5 hashes packets by
``i = L(s_k) mod I``.  Both figures show per-interface size histograms
plus the per-interface CDFs against the original.

Registered as ``fig4`` and ``fig5``: a single cell each (one trace,
one reshaping pass — nothing to fan out).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.targets import FIG4_RANGES
from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    single_cell,
    take_only,
)
from repro.schemes import DEFAULT_INTERFACES, SchemeSpec, build_scheme
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.stats import empirical_cdf, size_histogram
from repro.traffic.trace import Trace
from repro.util.results import ExperimentResult

__all__ = ["InterfaceSeries"]


@dataclass(frozen=True)
class InterfaceSeries:
    """The data behind one of the figures."""

    original_histogram: tuple[np.ndarray, np.ndarray]
    interface_histograms: dict[int, tuple[np.ndarray, np.ndarray]]
    original_cdf: tuple[np.ndarray, np.ndarray]
    interface_cdfs: dict[int, tuple[np.ndarray, np.ndarray]]
    packets_per_interface: dict[int, int]


def _series_for(trace: Trace, flows: dict[int, Trace]) -> InterfaceSeries:
    return InterfaceSeries(
        original_histogram=size_histogram(trace),
        interface_histograms={i: size_histogram(f) for i, f in flows.items()},
        original_cdf=empirical_cdf(trace.sizes),
        interface_cdfs={i: empirical_cdf(f.sizes) for i, f in flows.items()},
        packets_per_interface={i: len(f) for i, f in flows.items()},
    )


#: Fig. 4's scheme, as a registry recipe: OR over three equal ranges.
FIG4_SPEC = SchemeSpec(
    "or", (("boundaries", ",".join(str(b) for b in FIG4_RANGES)),)
)


# ----------------------------------------------------------------------
# Registry integration: a single cell per figure
# ----------------------------------------------------------------------


def _cells(
    params: ScenarioParams, options: dict[str, object], experiment: str
) -> tuple[ExperimentCell, ...]:
    cell_params = {
        "duration": float(options["duration"]),
        "seed": params.seed,
    }
    if experiment == "fig5":
        cell_params["interfaces"] = int(options["interfaces"])
    return single_cell(experiment, params, cell_params, name="bt")


def _reshaped_bt(cell: ExperimentCell, spec: SchemeSpec) -> InterfaceSeries:
    """The cell's BT flow reshaped by ``spec``, as figure series."""
    seed = int(cell.params["seed"])
    trace = TrafficGenerator(seed=seed).generate(
        AppType.BITTORRENT, duration=float(cell.params["duration"])
    )
    return _series_for(trace, build_scheme(spec, seed).apply(trace).flows)


def _run_fig4_cell(cell: ExperimentCell) -> InterfaceSeries:
    """Figure 4: OR over the three equal ranges of a BT flow."""
    return _reshaped_bt(cell, FIG4_SPEC)


def _run_fig5_cell(cell: ExperimentCell) -> InterfaceSeries:
    """Figure 5: OR by size modulo over a BT flow."""
    interfaces = int(cell.params["interfaces"])
    return _reshaped_bt(cell, SchemeSpec("modulo", (("interfaces", interfaces),)))


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    series: InterfaceSeries,
    experiment: str,
    title: str,
) -> ExperimentResult:
    total = sum(series.packets_per_interface.values())
    rows: list[tuple[object, ...]] = []
    for iface in sorted(series.packets_per_interface):
        count = series.packets_per_interface[iface]
        share = 100.0 * count / total if total else float("nan")
        # 1-based like the paper's Fig. 4 b-d and the bench output.
        rows.append((f"interface {iface + 1}", count, share))
    rows.append(("total", total, 100.0 if total else float("nan")))
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=("flow", "packets", "share %"),
        rows=tuple(rows),
        params={**params.as_dict(), **options},
        extras={"packets_per_interface": dict(series.packets_per_interface)},
    )


for _name, _runner_fn, _title, _options in (
    (
        "fig4",
        _run_fig4_cell,
        "Figure 4 — OR over three equal size ranges of a BT flow",
        {"duration": 300.0},
    ),
    (
        "fig5",
        _run_fig5_cell,
        "Figure 5 — OR by size modulo over a BT flow",
        {"duration": 300.0, "interfaces": DEFAULT_INTERFACES},
    ),
):
    registry.register(
        ExperimentSpec(
            name=_name,
            title=_title,
            description=(
                "Per-interface packet counts of a reshaped BitTorrent flow "
                "(histogram/CDF series ride in the combined InterfaceSeries)."
            ),
            build_cells=partial(_cells, experiment=_name),
            run_cell=_runner_fn,
            combine=take_only,
            to_result=partial(_to_result, experiment=_name, title=_title),
            options=_options,
        )
    )
