"""combined_grid holds one composition's cache entries at a time.

Cells are composition-major and every process takes them in grid
order, so when a process moves to the next composition it releases the
previous stack's plans and matrices from its
:class:`~repro.analysis.batch.WindowCache`.  The results must not
notice, the cache's high-water mark must be one composition's worth,
and nothing released may be requested (and so rebuilt) again.  Over a
stored corpus the training stage also evicts each training trace's
pages once its rows are computed, and no scheme applies or pins flows.
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


def _run(options=None, params=TINY, **executor):
    """The grid's JSON payload (the profile popped into a second value)."""
    result = parallel.run_experiment_result(
        "combined_grid", params, options=options, profile=True, **executor
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


class TestStoredCorpus:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("grid") / "corpus.store"
        TINY.build().save_corpus(str(path)).close()
        return ScenarioParams.for_corpus(str(path))

    def test_rows_match_the_generated_corpus_at_every_executor(self, stored):
        generated, _ = _run()
        serial, serial_profile = _run(params=stored)
        assert serial["rows"] == generated["rows"]
        for start_method in ("fork", "spawn"):
            parallel.clear_worker_state()
            fanned, fanned_profile = _run(params=stored, jobs=2, start_method=start_method)
            assert fanned["rows"] == serial["rows"]
            assert obs.profiles_equal_deterministic(fanned_profile, serial_profile)
            counters = fanned_profile["process"]["counters"]
            assert counters["proc.store.evicted_bytes"] > 0

    def test_training_pages_are_evicted_and_no_flows_are_pinned(self, stored):
        _, profile = _run(params=stored)
        counters = profile["process"]["counters"]
        assert counters["proc.store.evicted_bytes"] > 0
        # Every composition, morphing and morphing+or included, plans
        # each evaluation trace once; nothing is applied or pinned.
        assert counters["proc.window_cache.plan_misses"] == (
            len(DEFAULT_COMPOSITIONS) * EVALUATION_TRACES
        )
        removed = ("proc.window_cache.applied_", "proc.window_cache.flow_")
        assert not [name for name in counters if name.startswith(removed)]
        assert "proc.window_cache.reapplies" not in counters

    def test_a_warm_rerun_profiles_like_a_cold_run(self, stored):
        # One composition, so the rerun finds it still held: every
        # plan and matrix request hits.
        options = {"schemes": "morphing"}
        cold, cold_profile = _run(options, params=stored)
        warm, warm_profile = _run(options, params=stored)
        assert warm == cold
        warm_counters = warm_profile["process"]["counters"]
        assert "proc.window_cache.plan_misses" not in warm_counters
        assert warm_counters["proc.window_cache.plan_hits"] > 0
        # Gauges included: the warm run reopens nothing, but records the
        # store.* gauges of the corpus it holds open.
        assert "store.bytes_mapped" in cold_profile["gauges"]
        assert obs.deterministic_view(warm_profile) == obs.deterministic_view(
            cold_profile
        )
