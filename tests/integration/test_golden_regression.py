"""Golden-regression suite: frozen experiment outputs, exact equality.

Tiny reduced-scale runs of representative experiments are frozen as
JSON snapshots under ``tests/golden/``; every tier-1 pass re-runs them
and asserts the *entire* rendered result — params, headers, rows, and
extras — is equal to the committed snapshot.  Floats survive the JSON
round trip exactly (``repr`` shortest form), so this is bit-level
equality, not approximate: a storage refactor, a cache change, or a
"harmless" numeric reordering that shifts any value in any cell fails
loudly here.

When an intentional change shifts the numbers, regenerate deliberately::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_regression.py \
        --regenerate-golden -q

and commit the diff with the change that caused it.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.parallel import run_experiment_result
from repro.experiments.registry import ScenarioParams

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Reduced-scale scenario shared by every golden run (identical to the
#: CLI smoke tests' TINY_FLAGS, so the in-process corpus memo is shared).
GOLDEN_PARAMS = ScenarioParams(
    seed=5,
    train_duration=30.0,
    eval_duration=20.0,
    train_sessions=1,
    eval_sessions=1,
)

#: Experiment -> option overrides for the frozen runs.  fig1 exercises
#: the generator path, table1 the reshaping engine, stream_replay the
#: whole train -> reshape -> featurize -> classify pipeline in both its
#: batch and streaming incarnations (plus their parity audit).  The
#: accuracy grids (table2-5, window_sweep), the stacked-defense grid,
#: the combined defense and table6 pin every route that scores a scheme
#: over the evaluation split.
GOLDEN_RUNS: dict[str, dict[str, object]] = {
    "table1": {},
    "fig1": {"duration": 20.0, "grid_step": 64},
    "stream_replay": {},
    "table2": {},
    "table3": {},
    "table4": {},
    "table5": {},
    "table6": {},
    "window_sweep": {},
    "combined": {},
    "combined_grid": {},
}


def compute(name: str) -> dict:
    """The JSON payload of one reduced-scale run (exact float round trip)."""
    result = run_experiment_result(name, params=GOLDEN_PARAMS, options=GOLDEN_RUNS[name])
    return json.loads(result.to_json())


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden_snapshot(name: str, request: pytest.FixtureRequest):
    payload = compute(name)
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regenerate-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing snapshot {path}; run pytest --regenerate-golden once and "
        "commit the result"
    )
    frozen = json.loads(path.read_text())
    assert payload == frozen, (
        f"{name} output drifted from its golden snapshot; if the change is "
        "intentional, rerun with --regenerate-golden and commit the diff"
    )


def test_snapshots_have_no_strays():
    """Every committed snapshot corresponds to a registered golden run."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed == set(GOLDEN_RUNS)
