"""Sec. V experiments: combined defense, TPC vs power analysis, scalability.

Registered as ``combined``, ``tpc``, and ``scalability`` — each a
single cell (their work is one indivisible pipeline).  ``scalability``
measures wall-clock on the current machine, so it is flagged
non-deterministic and excluded from the serial/parallel equivalence
guarantee.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.linking import RssiLinker, linking_accuracy
from repro.core.combined import CombinedDefense
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    parse_number_list,
    single_cell,
    take_only,
)
from repro.net.channel import Position
from repro.net.wlan import WlanSimulation
from repro.schemes import (
    DEFAULT_INTERFACES,
    build_raw,
    build_scheme,
    legacy_scheme_spec,
)
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.util.results import ExperimentResult

__all__ = ["CombinedDefenseResult", "ScalabilityResult", "TpcLinkingResult"]


# ----------------------------------------------------------------------
# D-COMB: reshaping + morphing (Sec. V-C)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CombinedDefenseResult:
    """Accuracy and overhead of OR and OR+morphing side by side."""

    or_accuracy: dict[str, float]
    combined_accuracy: dict[str, float]
    or_mean: float
    combined_mean: float
    combined_overhead_percent: float


def _combined_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return single_cell(
        "combined",
        params,
        {"scenario": params, "window": float(options["window"])},
    )


def _run_combined_cell(cell: ExperimentCell) -> CombinedDefenseResult:
    """The Sec. V-C claim: combined defense mean accuracy < OR's.

    Per the paper's text we morph the small-packet interface (the
    chatting look-alike) toward gaming and the mid-size interface toward
    browsing, morphing the downlink only (the ack streams riding the
    small interface are left alone so downloading/uploading keep their
    Table II accuracy, as the paper reports).  Under our calibrated
    models the morph reduces chatting's residual accuracy partially
    rather than to zero — deviation documented in EXPERIMENTS.md.

    The attacker is the shared runner's pipeline (trained once per
    process).  OR plans and fuses; the combined defense morphs, so the
    runner falls back to applying it — once per trace, with its byte
    overhead read from that same cached application.
    """
    window = float(cell.params["window"])
    runner = parallel.shared_runner(cell.params["scenario"])
    scenario = runner.scenario
    pipeline = runner.pipeline(window)
    orthogonal = runner.scheme(legacy_scheme_spec("or"))
    combined = CombinedDefense(
        build_raw(legacy_scheme_spec("or"), scenario.seed),
        {
            0: scenario.evaluation_trace(AppType.GAMING),
            1: scenario.evaluation_trace(AppType.BROWSING),
        },
        seed=scenario.seed,
    )

    or_matrices: dict[str, list[np.ndarray]] = {}
    combined_matrices: dict[str, list[np.ndarray]] = {}
    extra_bytes = 0
    original_bytes = 0
    for label, traces in scenario.evaluation_by_label().items():
        or_matrices[label] = []
        combined_matrices[label] = []
        for trace in traces:
            original_bytes += trace.total_bytes
            or_matrices[label].extend(
                runner.flow_feature_matrices(
                    orthogonal, trace, window, pipeline.min_packets
                )
            )
            combined_matrices[label].extend(
                runner.flow_feature_matrices(
                    combined, trace, window, pipeline.min_packets
                )
            )
            extra_bytes += sum(
                stage.extra_bytes for stage in runner.stage_overhead(combined, trace)
            )

    or_report = pipeline.evaluate_matrices(or_matrices)
    combined_report = pipeline.evaluate_matrices(combined_matrices)
    return CombinedDefenseResult(
        or_accuracy=or_report.accuracy_by_class,
        combined_accuracy=combined_report.accuracy_by_class,
        or_mean=or_report.mean_accuracy,
        combined_mean=combined_report.mean_accuracy,
        combined_overhead_percent=100.0 * extra_bytes / max(original_bytes, 1),
    )


def _combined_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: CombinedDefenseResult,
) -> ExperimentResult:
    rows: list[tuple[object, ...]] = [
        (app, result.or_accuracy[app], result.combined_accuracy[app])
        for app in result.or_accuracy
    ]
    rows.append(("Mean", result.or_mean, result.combined_mean))
    return ExperimentResult(
        experiment="combined",
        title="Sec. V-C — OR vs OR+morphing accuracy % (D-COMB)",
        headers=("app", "OR %", "OR+morph %"),
        rows=tuple(rows),
        params={**params.as_dict(), **options},
        extras={"combined_overhead_percent": result.combined_overhead_percent},
    )


registry.register(
    ExperimentSpec(
        name="combined",
        title="Sec. V-C — combined defense (reshaping + morphing)",
        description="OR and OR+morphing accuracy side by side, with overhead.",
        build_cells=_combined_cells,
        run_cell=_run_combined_cell,
        combine=take_only,
        to_result=_combined_to_result,
        options={"window": 5.0},
    )
)


# ----------------------------------------------------------------------
# D-TPC: RSSI linking of virtual interfaces, with and without TPC
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TpcLinkingResult:
    """Pairwise linking accuracy of the RSSI adversary."""

    accuracy_without_tpc: float
    accuracy_with_tpc: float
    flows_observed: int


def _tpc_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return single_cell(
        "tpc",
        params,
        {
            "seed": params.seed,
            "duration": float(options["duration"]),
            "stations": int(options["stations"]),
            "interfaces": int(options["interfaces"]),
            "tpc_range_db": float(options["tpc_range_db"]),
        },
    )


def _run_tpc_cell(cell: ExperimentCell) -> TpcLinkingResult:
    """Sec. V-A: can the sniffer link virtual interfaces by RSSI?

    Runs two WLAN simulations — one with fixed transmit power, one with
    per-packet TPC — each with several stations at distinct distances,
    all reshaping over ``interfaces`` VAPs.  The RSSI linker then tries
    to group the observed virtual identities by physical transmitter.
    """
    seed = int(cell.params["seed"])
    duration = float(cell.params["duration"])
    stations = int(cell.params["stations"])
    interfaces = int(cell.params["interfaces"])

    def run(tpc: float) -> tuple[float, int]:
        sim = WlanSimulation.build(seed=seed)
        generator = TrafficGenerator(seed=seed + 1)
        linker = RssiLinker(threshold_db=3.0)
        owners: dict[str, int] = {}
        for index in range(stations):
            name = f"sta{index}"
            position = Position(4.0 + 14.0 * index, 2.0)
            station = sim.add_station(
                name,
                position,
                scheduler=build_raw(legacy_scheme_spec("or", interfaces), seed),
                tpc_range_db=tpc,
            )
            sim.configure_virtual_interfaces(station, interfaces)
            # BT exercises all three OR interfaces in both directions.
            trace = generator.generate(AppType.BITTORRENT, duration, session=index)
            sim.replay_trace(name, trace)
            for virtual in station.driver.vaps.addresses:
                owners[str(virtual)] = index
        sim.run()
        flows = sim.captured_flows()
        flow_list, owner_list = [], []
        for address, flow in flows.items():
            key = str(address)
            if key not in owners:
                continue  # physical addresses seen before configuration
            if math.isnan(linker.flow_signature(flow)):
                continue  # downlink-only identities carry no client power
            flow_list.append(flow)
            owner_list.append(owners[key])
        groups = linker.link(flow_list)
        return linking_accuracy(groups, owner_list), len(flow_list)

    accuracy_fixed, observed = run(0.0)
    accuracy_tpc, _ = run(float(cell.params["tpc_range_db"]))
    return TpcLinkingResult(
        accuracy_without_tpc=accuracy_fixed,
        accuracy_with_tpc=accuracy_tpc,
        flows_observed=observed,
    )


def _tpc_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: TpcLinkingResult,
) -> ExperimentResult:
    return ExperimentResult(
        experiment="tpc",
        title="Sec. V-A — RSSI linking accuracy, fixed power vs TPC (D-TPC)",
        headers=("metric", "value"),
        rows=(
            ("linking accuracy (fixed power)", result.accuracy_without_tpc),
            ("linking accuracy (TPC)", result.accuracy_with_tpc),
            ("virtual flows observed", result.flows_observed),
        ),
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="tpc",
        title="Sec. V-A — RSSI linking vs transmit power control",
        description="Can a sniffer link virtual interfaces by RSSI, with/without TPC?",
        build_cells=_tpc_cells,
        run_cell=_run_tpc_cell,
        combine=take_only,
        to_result=_tpc_to_result,
        options={
            "duration": 30.0,
            "stations": 3,
            "interfaces": DEFAULT_INTERFACES,
            "tpc_range_db": 24.0,
        },
    )
)


# ----------------------------------------------------------------------
# D-SCALE: O(N) scheduling cost (Sec. V-B)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalabilityResult:
    """Throughput of the OR scheduler across trace sizes."""

    packet_counts: tuple[int, ...]
    seconds_per_run: tuple[float, ...]
    packets_per_second: tuple[float, ...]


def _scalability_cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    return single_cell(
        "scalability",
        params,
        {"seed": params.seed, "durations": str(options["durations"])},
    )


def _run_scalability_cell(cell: ExperimentCell) -> ScalabilityResult:
    """Measure OR's batch scheduling cost as traffic volume grows.

    The paper claims O(N) complexity; the measured packets-per-second
    rate should stay roughly flat across trace sizes.
    """
    seed = int(cell.params["seed"])
    generator = TrafficGenerator(seed=seed)
    scheme = build_scheme(legacy_scheme_spec("or"), seed)
    counts, times, rates = [], [], []
    for duration in parse_number_list(cell.params["durations"]):
        trace = generator.generate(AppType.DOWNLOADING, duration)
        # repro-lint: allow[nondeterminism]: this experiment *measures* wall-clock (registered deterministic=False, excluded from bit-identity)
        start = time.perf_counter()
        scheme.apply(trace)
        # repro-lint: allow[nondeterminism]: this experiment *measures* wall-clock (registered deterministic=False, excluded from bit-identity)
        elapsed = time.perf_counter() - start
        counts.append(len(trace))
        times.append(elapsed)
        rates.append(len(trace) / elapsed if elapsed > 0 else float("inf"))
    return ScalabilityResult(
        packet_counts=tuple(counts),
        seconds_per_run=tuple(times),
        packets_per_second=tuple(rates),
    )


def _scalability_to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: ScalabilityResult,
) -> ExperimentResult:
    rows = tuple(
        (count, seconds, rate)
        for count, seconds, rate in zip(
            result.packet_counts, result.seconds_per_run, result.packets_per_second
        )
    )
    return ExperimentResult(
        experiment="scalability",
        title="Sec. V-B — OR scheduling throughput vs trace size (D-SCALE)",
        headers=("packets", "seconds", "packets/s"),
        rows=rows,
        params={**params.as_dict(), **options},
    )


registry.register(
    ExperimentSpec(
        name="scalability",
        title="Sec. V-B — O(N) scheduling cost (wall-clock measurement)",
        description=(
            "OR batch-scheduling throughput across trace sizes.  Measures "
            "this machine's wall-clock: numbers vary run to run by design."
        ),
        build_cells=_scalability_cells,
        run_cell=_run_scalability_cell,
        combine=take_only,
        to_result=_scalability_to_result,
        options={"durations": "30,60,120,240"},
        deterministic=False,
    )
)
