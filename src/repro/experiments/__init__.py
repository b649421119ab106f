"""Experiment harness: regenerates every table and figure of the paper.

Every experiment is a registered :class:`ExperimentSpec`
(:mod:`repro.experiments.registry`) under a stable name (``table1`` ..
``table6``, ``fig1``, ``fig4``, ``fig5``, ``window_sweep``,
``combined``, ``tpc``, ``scalability``, the streaming trio
``stream_replay`` / ``drift`` / ``arms_race``, the stacked-defense
sweep ``combined_grid`` and ``population_scale``); importing this
package registers them all.  The registry is the one way to run an
experiment: :func:`run_experiment` returns the combined result object
(e.g. :class:`~repro.experiments.tables23.AccuracyTable`) and
:func:`run_experiment_result` its rendered
:class:`~repro.util.results.ExperimentResult`, serially or with the
cells fanned out over worker processes
(:mod:`repro.experiments.parallel`).  The CLI (``repro list`` /
``repro run``), the benchmarks in ``benchmarks/`` and the examples all
go through it.  Defense schemes are declared as registry specs
(:mod:`repro.schemes`), never hand-wired.
"""

# Importing a module registers its specs; this order is the registry's
# (and ``repro list``'s) order.
from repro.experiments import (  # noqa: F401
    fig1,
    fig45,
    table1,
    tables23,
    table4,
    table5,
    table6,
    discussion,
    combined_grid,
    population_scale,
    window_sweep,
    streaming,
)
from repro.experiments.combined_grid import CombinedGridResult
from repro.experiments.parallel import run_experiment, run_experiment_result
from repro.experiments.population_scale import PopulationScaleResult
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    all_specs,
)
from repro.experiments.registry import get as get_experiment
from repro.experiments.registry import names as experiment_names
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.experiments.streaming import (
    ArmsRaceResult,
    DriftResult,
    StreamReplayResult,
)
from repro.experiments.window_sweep import WindowSweepResult

__all__ = [
    "ArmsRaceResult",
    "CombinedGridResult",
    "DriftResult",
    "EvaluationScenario",
    "ExperimentCell",
    "ExperimentRunner",
    "ExperimentSpec",
    "PopulationScaleResult",
    "ScenarioParams",
    "StreamReplayResult",
    "WindowSweepResult",
    "all_specs",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "run_experiment_result",
]
