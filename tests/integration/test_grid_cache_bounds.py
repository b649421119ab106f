"""combined_grid holds one composition's cache entries at a time.

Cells are composition-major and every process takes them in grid
order, so when a process moves to the next composition it releases the
previous stack's plans, flows and matrices from its
:class:`~repro.analysis.batch.WindowCache`.  The results must not
notice, the cache's high-water mark must be one composition's worth,
and nothing released may be requested (and so rebuilt) again.
"""

import json

import pytest

from repro import obs
from repro.experiments import parallel
from repro.experiments.combined_grid import DEFAULT_COMPOSITIONS
from repro.experiments.registry import ScenarioParams

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)
EVALUATION_TRACES = 7 * TINY.eval_sessions


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


def _run(options=None, **executor):
    """The grid's JSON payload (the profile popped into a second value)."""
    result = parallel.run_experiment_result(
        "combined_grid", TINY, options=options, profile=True, **executor
    )
    payload = json.loads(result.to_json())
    return payload, payload.pop("profile")


class TestOneCompositionAtATime:
    def test_rows_identical_serially_and_across_start_methods(self):
        serial, serial_profile = _run()
        for start_method in ("fork", "spawn"):
            parallel.clear_worker_state()
            fanned, fanned_profile = _run(jobs=2, start_method=start_method)
            assert fanned == serial
            assert obs.profiles_equal_deterministic(fanned_profile, serial_profile)
            process = fanned_profile["process"]
            assert process["counters"]["proc.window_cache.released_bytes"] > 0

    def test_peak_is_the_largest_composition_and_nothing_is_rebuilt(self):
        _, profile = _run()
        counters = profile["process"]["counters"]
        peak = profile["process"]["gauges"]["proc.window_cache.pinned_bytes"]
        # Serially each composition plans every evaluation trace once:
        # a release never drops anything a later cell asks for.
        assert counters["proc.window_cache.plan_misses"] == (
            len(DEFAULT_COMPOSITIONS) * EVALUATION_TRACES
        )
        alone = []
        for composition in DEFAULT_COMPOSITIONS:
            _, solo = _run({"schemes": composition})
            alone.append(solo["process"]["gauges"]["proc.window_cache.pinned_bytes"])
        assert 0 < peak <= max(alone)
        # Every composition but the last is released in full.
        assert counters["proc.window_cache.released_bytes"] == sum(alone[:-1])
