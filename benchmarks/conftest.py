"""Shared benchmark fixtures.

Every paper-table bench runs its experiment through the registry
(``run_registered``), the path ``repro run`` takes, at one benchmark
scale (``BENCH_PARAMS``).  The ``scenario`` and ``runner`` fixtures are
the registry's process-local ``shared_scenario`` / ``shared_runner`` of
those params, so the corpus is generated and each window's classifiers
are trained once per session, whichever bench asks first.  Each bench
renders its regenerated table to stdout and to
``benchmarks/results/<name>.txt``; table-shaped benches additionally
persist ``results/<name>.json`` (via ``save_table``) so comparisons
across runs diff structured rows instead of re-parsing the printed
tables.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments import parallel
from repro.experiments.registry import ScenarioParams
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario
from repro.util.results import ExperimentResult

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The benchmark-scale home-WLAN scenario (Sec. IV-A).
BENCH_PARAMS = ScenarioParams(
    seed=7,
    train_duration=420.0,
    eval_duration=300.0,
    train_sessions=6,
    eval_sessions=4,
)


@pytest.fixture(scope="session")
def scenario() -> EvaluationScenario:
    """The registry's shared scenario for ``BENCH_PARAMS``."""
    return parallel.shared_scenario(BENCH_PARAMS)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The registry's shared runner (trained pipelines, window cache)."""
    return parallel.shared_runner(BENCH_PARAMS)


@pytest.fixture
def run_registered(benchmark):
    """Time one registered experiment at ``BENCH_PARAMS``; return its result.

    ``run_registered("table3", window=60.0)`` is
    ``run_experiment("table3", BENCH_PARAMS, {"window": 60.0})`` under
    one pedantic benchmark round.
    """

    def _run(name: str, **options):
        return benchmark.pedantic(
            parallel.run_experiment,
            args=(name, BENCH_PARAMS, options),
            rounds=1,
            iterations=1,
        )

    return _run


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered table and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, text: str) -> None:
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print("\n" + text)

    return _save


@pytest.fixture(scope="session")
def save_table(save_result):
    """Persist a table as aligned text (.txt) AND structured JSON (.json).

    The text baseline stays byte-compatible with the legacy
    ``format_table`` output; the JSON twin carries headers/rows so
    before/after perf comparisons diff values, not ASCII art.
    """

    def _save(
        name: str,
        headers: list[str],
        rows: list[list[object]],
        title: str,
        float_digits: int = 2,
    ) -> None:
        result = ExperimentResult(
            experiment=name,
            title=title,
            headers=tuple(headers),
            rows=tuple(tuple(row) for row in rows),
        )
        save_result(name, result.to_text(float_digits=float_digits))
        result.write(os.path.join(RESULTS_DIR, f"{name}.json"))

    return _save


@pytest.fixture(scope="session")
def save_profile():
    """Persist a captured obs profile next to the bench's results.

    Takes the v1 JSON payload (:func:`repro.obs.profile_to_json`) and
    writes ``results/<name>.profile.json`` — the same schema ``repro
    run --profile-output`` emits, so bench telemetry diffs with the
    same tooling.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, payload) -> None:
        obs.write_profile(
            payload, os.path.join(RESULTS_DIR, f"{name}.profile.json")
        )

    return _save
