"""Experiment harness: regenerates every table and figure of the paper.

Each experiment module produces the same rows/series the paper reports
(see the tables/figures map in the top-level README) and registers itself
with the experiment registry (:mod:`repro.experiments.registry`) under
a stable name (``table1`` .. ``table6``, ``fig1``, ``fig4``, ``fig5``,
``window_sweep``, ``combined``, ``tpc``, ``scalability``, the
streaming trio ``stream_replay`` / ``drift`` / ``arms_race``, and the
stacked-defense sweep ``combined_grid``).  Defense schemes are
declared as registry specs (:mod:`repro.schemes`), never hand-wired.  The
registry powers the unified CLI (``repro list`` / ``repro run``) and
the parallel executor (:mod:`repro.experiments.parallel`), which fans
an experiment's independent cells out over worker processes while the
serial path stays bit-identical to the module entry points.  The
benchmarks in ``benchmarks/`` wrap these functions with
pytest-benchmark and print the regenerated tables next to the
published values.
"""

from repro.experiments.scenarios import EvaluationScenario, SCHEME_NAMES
from repro.experiments.registry import (
    ExperimentCell,
    ExperimentSpec,
    ScenarioParams,
    all_specs,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.fig1 import figure1_cdf_series
from repro.experiments.fig45 import figure4_series, figure5_series
from repro.experiments.table1 import table1_interface_features
from repro.experiments.tables23 import classification_accuracy_table
from repro.experiments.table4 import table4_false_positives
from repro.experiments.table5 import table5_interface_sweep
from repro.experiments.table6 import table6_efficiency
from repro.experiments.discussion import (
    combined_defense_accuracy,
    reshaping_scalability,
    tpc_linking_experiment,
)
from repro.experiments.combined_grid import CombinedGridResult, combined_grid
from repro.experiments.population_scale import (
    PopulationScaleResult,
    population_scale,
)
from repro.experiments.window_sweep import WindowSweepResult, window_sweep
from repro.experiments.streaming import (
    ArmsRaceResult,
    DriftResult,
    StreamReplayResult,
)
from repro.experiments.parallel import run_experiment, run_experiment_result
from repro.experiments.registry import get as get_experiment
from repro.experiments.registry import names as experiment_names

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
    "SCHEME_NAMES",
    "all_specs",
    "classification_accuracy_table",
    "combined_defense_accuracy",
    "combined_grid",
    "experiment_names",
    "figure1_cdf_series",
    "figure4_series",
    "figure5_series",
    "get_experiment",
    "population_scale",
    "reshaping_scalability",
    "run_experiment",
    "run_experiment_result",
    "table1_interface_features",
    "table4_false_positives",
    "table5_interface_sweep",
    "table6_efficiency",
    "tpc_linking_experiment",
    "window_sweep",
]
