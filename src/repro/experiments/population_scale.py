"""``population_scale``: accuracy and overhead vs station population.

The paper's testbed has ~10 stations; the ROADMAP's north star asks
what the eavesdropping attack and the MAC-layer defenses look like at
**population scale** — does per-station classification accuracy hold
up, and does defense overhead stay proportional, when a city block
(or a city) of stations is observed?  This experiment is the first
beyond-paper scale result: it sweeps a grid of population sizes,
synthesizing one labeled station at a time, and reports the attacker's
mean accuracy over defended traffic plus the defense's byte overhead
at each size.

The out-of-core contract is the point, not a convenience:

* **Cells are (population × shard)** via
  :func:`repro.experiments.parallel.shard_grid_cells`.  Station
  ``sta000042`` belongs to shard ``shard_for_key("sta000042", shards)``
  — the same hash rule the storage federation uses — so each cell
  generates **only its shard's stations** and no cell ever sees the
  whole population.
* **Stations are never resident.**  A cell streams each generated
  trace straight into a per-cell scratch :class:`TraceStore` (one
  shard's slice, in a temporary directory), drops it, then replays the
  store memory-mapped to defend + classify station by station.  Peak
  per-worker ``store.bytes_mapped`` is one shard's slice — the bound
  ``tests/integration/test_population_scale.py`` asserts from the
  per-cell ``obs`` profiles.
* **Results roll up additively.**  A cell returns raw confusion
  *counts* plus byte/flow totals; ``combine`` sums shards into one
  confusion matrix per population, so serial and ``--jobs N`` runs are
  bit-identical under fork and spawn.

Every per-station quantity (application, traffic, defense
realization) derives from ``derive_seed(root, "population", ...,
station)``, so station ``i`` carries identical traffic at every
population size — the sweep varies *population*, not the stations
themselves — and any process reproduces any station independently.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.attack import PipelineKey
from repro.analysis.classifiers import CLASSIFIERS
from repro.analysis.metrics import ConfusionMatrix, mean_accuracy
from repro.experiments import parallel, registry
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    parse_number_list,
)
from repro.experiments.runner import ExperimentRunner
from repro.schemes import canonical_stack, stack_label
from repro.schemes.registry import build_stack
from repro.storage import TraceStore, TraceStoreWriter, shard_for_key
from repro.traffic.apps import ALL_APPS
from repro.traffic.generator import TrafficGenerator
from repro.util.results import ExperimentResult
from repro.util.rng import derive_seed

__all__ = [
    "PopulationRow",
    "PopulationScaleResult",
    "PopulationShardResult",
    "station_app",
    "station_name",
]


def station_name(index: int) -> str:
    """The stable identity of station ``index`` (any population size)."""
    return f"sta{index:06d}"


def station_app(root_seed: int, station: str):
    """The application station ``station`` runs — a pure seed derivation.

    Derived from the station identity alone (not the population size or
    the shard count), so station ``i`` behaves identically in every
    cell of the sweep: growing the population *adds* stations, it never
    reshuffles existing ones.
    """
    return ALL_APPS[
        derive_seed(root_seed, "population", "app", station) % len(ALL_APPS)
    ]


@dataclass(frozen=True)
class PopulationShardResult:
    """One cell's additive tallies: one shard's slice of one population.

    ``confusion`` is raw window counts (``rows[true][predicted]`` over
    ``classes``), not percentages — shards merge by summation, exactly
    like :meth:`~repro.analysis.metrics.ConfusionMatrix.merge`.
    """

    population: int
    shard: int
    stations: int
    packets: int
    windows: int
    flows: int
    original_bytes: int
    extra_bytes: int
    handshake_bytes: int
    classes: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PopulationRow:
    """One population size, with every shard rolled back up."""

    population: int
    stations: int
    packets: int
    windows: int
    flows: int
    mean_accuracy: float
    overhead_percent: float
    handshake_bytes: int


@dataclass(frozen=True)
class PopulationScaleResult:
    """The sweep, in ascending population order."""

    scheme: str
    classifier: str
    shards: int
    rows: tuple[PopulationRow, ...]
    shard_packets: tuple[tuple[str, int], ...]


def _pipeline(options: dict[str, object]) -> PipelineKey:
    """The attacker, profiled offline (Sec. IV) on the training split.

    The population's synthetic stations are traffic it has never seen.
    """
    classifier = str(options["classifier"])
    if classifier not in CLASSIFIERS:
        known = ", ".join(sorted(CLASSIFIERS))
        raise ValueError(
            f"classifier must be one of {{{known}}}, got {classifier!r}"
        )
    return PipelineKey(float(options["window"]), (classifier,))


def _cells(
    params: ScenarioParams, options: dict[str, object]
) -> tuple[ExperimentCell, ...]:
    populations = parse_number_list(options["populations"], int)
    if any(n < 1 for n in populations):
        raise ValueError(f"populations must be >= 1, got {populations!r}")
    specs = canonical_stack(str(options["scheme"]))
    classifier = _pipeline(options).attackers[0]
    grid = [
        (
            f"pop={population}",
            {
                "population": int(population),
                "station_duration": float(options["station_duration"]),
                "specs": specs,
                "classifier": classifier,
                "window": float(options["window"]),
            },
        )
        for population in populations
    ]
    return parallel.shard_grid_cells(
        "population_scale", params, grid, int(options["shards"])
    )


def _generate_shard_store(
    store_dir: str,
    root_seed: int,
    population: int,
    shard: int,
    shards: int,
    duration: float,
) -> TraceStore:
    """Stream this shard's stations into a scratch store, one at a time.

    Only stations the placement rule routes to ``shard`` are generated;
    each trace is written and dropped immediately, so resident memory
    is one station's trace regardless of the population size.
    """
    with TraceStoreWriter(store_dir, overwrite=True) as writer:
        for index in range(population):
            station = station_name(index)
            if shard_for_key(station, shards) != shard:
                continue
            app = station_app(root_seed, station)
            generator = TrafficGenerator(
                seed=derive_seed(root_seed, "population", "traffic", station)
            )
            trace = generator.generate(app, duration)
            writer.add(trace, role="eval", station=station)
            obs.add("population.stations_generated")
            obs.add("population.packets_generated", len(trace))
    return TraceStore.open(store_dir)


def _run_cell(cell: ExperimentCell) -> PopulationShardResult:
    params = cell.params["scenario"]
    population = int(cell.params["population"])
    shard = int(cell.params["shard"])
    shards = int(cell.params["shards"])
    duration = float(cell.params["station_duration"])
    window = float(cell.params["window"])
    specs = cell.params["specs"]
    pipeline = parallel.shared_runner(params).pipeline(_pipeline(cell.params))
    # A private runner: each station's entries are released after it.
    runner = ExperimentRunner(parallel.shared_scenario(params))
    classes = pipeline.classes
    class_index = {label: i for i, label in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    stations = packets = windows = flows = 0
    original_bytes = extra_bytes = handshake_bytes = 0
    with tempfile.TemporaryDirectory(prefix="population-scale-") as scratch:
        store = _generate_shard_store(
            os.path.join(scratch, f"shard-{shard}.store"),
            params.seed, population, shard, shards, duration,
        )
        with store:
            for entry in store.entries():
                trace = store.trace(entry.index)
                station = entry.station or station_name(entry.index)
                truth = station_app(params.seed, station).value
                # Each station realizes its own defense instance — a
                # pure function of (root seed, station), so any process
                # defends the station identically.
                stack = build_stack(
                    specs,
                    seed=derive_seed(
                        params.seed, "population", "defense", station
                    ),
                )
                matrices = runner.flow_feature_matrices(stack, trace, window)
                stages = runner.stage_overhead(stack, trace)
                # Out of core: nothing cached may outlive its station.
                runner.window_cache.release(stack)
                stations += 1
                packets += len(trace)
                original_bytes += trace.total_bytes
                extra_bytes += sum(stage.extra_bytes for stage in stages)
                handshake_bytes += sum(stage.handshake_bytes for stage in stages)
                flows += stages[-1].flows
                for matrix in matrices:
                    if not len(matrix):
                        continue
                    windows += len(matrix)
                    for predicted in pipeline.classify_matrix(matrix):
                        confusion[class_index[truth], class_index[predicted]] += 1
    return PopulationShardResult(
        population=population,
        shard=shard,
        stations=stations,
        packets=packets,
        windows=windows,
        flows=flows,
        original_bytes=original_bytes,
        extra_bytes=extra_bytes,
        handshake_bytes=handshake_bytes,
        classes=classes,
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
    )


def _combine(
    params: ScenarioParams,
    options: dict[str, object],
    results: list[PopulationShardResult],
) -> PopulationScaleResult:
    populations = parse_number_list(options["populations"], int)
    shards = int(options["shards"])
    by_population: dict[int, list[PopulationShardResult]] = {}
    for result in results:
        by_population.setdefault(result.population, []).append(result)
    rows = []
    shard_packets = []
    for population in populations:
        cells = by_population[int(population)]
        stations = sum(cell.stations for cell in cells)
        if stations != population:
            raise AssertionError(
                f"population {population}: shards tallied {stations} "
                "stations — the placement rule must partition the "
                "population exactly"
            )
        classes = cells[0].classes
        merged = ConfusionMatrix(
            classes,
            sum(np.array(cell.confusion, dtype=np.int64) for cell in cells),
        )
        original = sum(cell.original_bytes for cell in cells)
        extra = sum(cell.extra_bytes for cell in cells)
        rows.append(
            PopulationRow(
                population=int(population),
                stations=stations,
                packets=sum(cell.packets for cell in cells),
                windows=sum(cell.windows for cell in cells),
                flows=sum(cell.flows for cell in cells),
                mean_accuracy=mean_accuracy(merged),
                overhead_percent=100.0 * extra / max(original, 1),
                handshake_bytes=sum(cell.handshake_bytes for cell in cells),
            )
        )
        shard_packets.extend(
            (f"pop={cell.population}/shard={cell.shard}", cell.packets)
            for cell in cells
        )
    return PopulationScaleResult(
        scheme=stack_label(canonical_stack(str(options["scheme"]))),
        classifier=str(options["classifier"]),
        shards=shards,
        rows=tuple(rows),
        shard_packets=tuple(shard_packets),
    )


def _to_result(
    params: ScenarioParams,
    options: dict[str, object],
    result: PopulationScaleResult,
) -> ExperimentResult:
    return ExperimentResult(
        experiment="population_scale",
        title=(
            f"Attack accuracy and defense overhead vs population size "
            f"(scheme {result.scheme}, {result.classifier} attacker, "
            f"{result.shards} shards)"
        ),
        headers=(
            "population", "packets", "windows", "flows",
            "mean acc %", "overhead %", "handshake B",
        ),
        rows=tuple(
            (
                row.population,
                row.packets,
                row.windows,
                row.flows,
                row.mean_accuracy,
                row.overhead_percent,
                row.handshake_bytes,
            )
            for row in result.rows
        ),
        params={**params.as_dict(), **options},
        extras={
            "scheme": result.scheme,
            "classifier": result.classifier,
            "shards": result.shards,
            # Per-cell scratch-store packet counts: the memory-bound
            # tests derive each cell's mapped bytes from these (24 B
            # per packet across the six columns).
            "shard_packets": dict(result.shard_packets),
        },
    )


registry.register(
    ExperimentSpec(
        name="population_scale",
        title="Population scale — attack accuracy and overhead vs station count",
        description=(
            "Synthesizes N labeled stations shard-by-shard (never "
            "resident; one scratch TraceStore slice per cell), defends "
            "each with the selected scheme stack, and sweeps the "
            "attacker's mean accuracy and the defense's byte overhead "
            "as the population grows beyond the paper's testbed."
        ),
        build_cells=_cells,
        run_cell=_run_cell,
        combine=_combine,
        to_result=_to_result,
        options={
            "populations": "10,20,40",
            "shards": 4,
            "station_duration": 15.0,
            "scheme": "or",
            "classifier": "svm",
            "window": 5.0,
        },
        pipelines=lambda params, options: (_pipeline(options),),
    )
)
