"""Integration: the unified scheme pipeline across CLI, storage, executor.

Covers the acceptance bars of the scheme refactor:

* ``repro schemes list`` and the ``--scheme`` / ``--scheme-set`` flags
  (smoke-marked, so the CLI surface rides tier-1);
* ``repro run combined_grid --scheme padding+or --jobs 2`` equals the
  serial run bit for bit;
* a :class:`~repro.schemes.SchemeSpec` embedded in a corpus manifest
  rehydrates — serially and at ``--jobs 2`` — to a scheme whose output
  is ``np.array_equal`` to the recording scheme's.
"""

import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import parallel
from repro.experiments.registry import ScenarioParams
from repro.schemes import build_stack, canonical_stack, stack_label
from repro.storage import TraceStore

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0,
    train_sessions=1, eval_sessions=1,
)

TINY_FLAGS = [
    "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
]


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


@pytest.mark.smoke
class TestSchemesCli:
    def test_schemes_list_names_the_catalog(self, capsys):
        assert main(["schemes", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("original", "fh", "ra", "rr", "or", "padding", "morphing"):
            assert name in out

    def test_schemes_list_json_carries_params(self, capsys):
        assert main(["schemes", "list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["or"]["params"]["interfaces"] == 3
        assert by_name["or"]["kind"] == "reshaper"
        assert "OR" in by_name["or"]["aliases"]

    def test_run_with_scheme_flag(self, capsys):
        assert main([
            "run", "combined_grid", *TINY_FLAGS,
            "--scheme", "padding+or", "--set", "classifiers=bayes",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["schemes"] == "padding+or"
        assert [row[0] for row in payload["rows"]] == ["padding+or"]

    def test_scheme_set_overrides_matching_stages(self, capsys):
        assert main([
            "run", "combined_grid", *TINY_FLAGS,
            "--scheme", "padding+or", "--scheme-set", "interfaces=2",
            "--set", "classifiers=bayes", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["scheme_params"] == "interfaces=2"
        # I=2 caps the OR fan-out at 2 flows per trace (7 traces).
        flows = payload["rows"][0][5]
        assert flows <= 2 * 7

    def test_scheme_flag_maps_to_single_scheme_experiments(self, capsys):
        assert main([
            "run", "arms_race", *TINY_FLAGS,
            "--scheme", "RR", "--set", "threshold=0.6", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["scheme"] == "RR"

    def test_unknown_scheme_exits_2_with_catalog(self, capsys):
        assert main(["run", "combined_grid", "--scheme", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "registered schemes" in err

    def test_scheme_flag_on_schemeless_experiment_exits_2(self, capsys):
        assert main(["run", "table1", "--scheme", "or"]) == 2
        assert "no scheme selection" in capsys.readouterr().err

    def test_composed_scheme_on_single_scheme_experiment_exits_2(self, capsys):
        assert main(["run", "arms_race", "--scheme", "padding+or"]) == 2
        assert "single scheme" in capsys.readouterr().err

    def test_scheme_set_without_grid_experiment_exits_2(self, capsys):
        assert main(["run", "table1", "--scheme-set", "interfaces=5"]) == 2
        assert "scheme_params" in capsys.readouterr().err

    def test_malformed_scheme_set_exits_2(self, capsys):
        assert main([
            "run", "combined_grid", "--scheme-set", "interfaces",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_scheme_set_sweeps_the_default_grid(self):
        # A key only some compositions declare is the normal sweep
        # case: padding (no interfaces param) must pass through while
        # ra/rr/or stages pick the override up.
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        cells = spec.build_cells(
            TINY, spec.resolve_options({"scheme_params": "interfaces=2"})
        )
        by_composition = {
            cell.params["composition"]: cell.params["specs"] for cell in cells
        }
        (padding_spec,) = by_composition["padding"]
        assert padding_spec.param_dict() == {}
        stamped = [
            spec
            for specs in by_composition.values()
            for spec in specs
            if spec.param_dict().get("interfaces") == 2
        ]
        assert stamped  # the override landed somewhere in the grid

    def test_scheme_set_values_may_contain_commas(self, capsys):
        assert main([
            "run", "combined_grid", *TINY_FLAGS,
            "--scheme", "fh", "--scheme-set", "channels=1,6",
            "--scheme-set", "dwell=0.25",
            "--set", "classifiers=bayes", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["scheme_params"] == "channels=1,6;dwell=0.25"
        # Two channels -> at most 2 observable slices per trace (7 traces).
        assert payload["rows"][0][5] <= 2 * 7

    @pytest.mark.parametrize(
        "options, duplicate",
        [
            ({"schemes": "or,OR"}, "'or'"),
            ({"schemes": "padding+or,Padding+Orthogonal"}, "'padding+or'"),
            ({"schemes": "or", "classifiers": "bayes,bayes"}, "'bayes'"),
        ],
    )
    def test_duplicate_grid_entries_are_refused(self, options, duplicate):
        # Duplicates used to yield identical rows under one cell name,
        # and the stage_overhead extra silently collapsed them.
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        with pytest.raises(
            ValueError, match=re.escape(f"lists {duplicate} more than once")
        ):
            spec.build_cells(TINY, spec.resolve_options(options))

    def test_duplicate_grid_entries_exit_2(self, capsys):
        assert main([
            "run", "combined_grid", *TINY_FLAGS,
            "--set", "schemes=or,OR", "--set", "classifiers=bayes",
        ]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_scheme_flag_conflicting_with_set_exits_2(self, capsys):
        assert main([
            "run", "combined_grid", "--set", "schemes=or", "--scheme", "padding",
        ]) == 2
        assert "use one spelling" in capsys.readouterr().err

    def test_canonical_spellings_reach_legacy_experiments(self, capsys):
        # The catalog prints canonical lowercase names; arms_race and
        # stream_replay must accept them (and aliases), not just the
        # uppercase table-column spellings.
        assert main([
            "run", "arms_race", *TINY_FLAGS,
            "--scheme", "rr", "--set", "threshold=0.6", "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["scheme"] == "rr"
        assert main([
            "run", "stream_replay", *TINY_FLAGS,
            "--scheme", "or", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["rows"]] == ["OR"]  # display fold

    def test_stream_replay_audits_defense_schemes_too(self, capsys):
        assert main([
            "run", "stream_replay", *TINY_FLAGS,
            "--scheme", "pseudonym", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["rows"]
        assert row[0] == "pseudonym"
        assert row[4] == "yes"  # streaming == batch, per the parity audit

    def test_stream_replay_rejects_compositions(self, capsys):
        assert main(["run", "stream_replay", "--scheme", "padding+or"]) == 2
        assert "one scheme at a time" in capsys.readouterr().err


class TestCombinedGridParity:
    def test_jobs_2_equals_serial(self):
        options = {"schemes": "padding+or", "classifiers": "bayes"}
        serial = parallel.run_experiment_result(
            "combined_grid", TINY, options=options
        )
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result(
            "combined_grid", TINY, options=options, jobs=2
        )
        assert json.loads(fanned.to_json()) == json.loads(serial.to_json())

    def test_default_grid_is_wide(self):
        from repro.experiments import registry as experiment_registry

        spec = experiment_registry.get("combined_grid")
        cells = spec.build_cells(TINY, spec.resolve_options(None))
        compositions = {cell.params["composition"] for cell in cells}
        assert len(compositions) >= 8  # the scenario-diversity bar
        stacked = [c for c in compositions if "+" in c]
        assert len(stacked) >= 4
        assert len(cells) == len(compositions) * 2  # x classifiers

    def test_defended_traffic_identical_across_classifier_columns(self):
        # The stack seed derives from the composition alone, so the
        # classifier columns attack the same stochastic defense
        # realization: overhead/handshake/fan-out must agree per
        # composition even for seed-consuming schemes (morphing, ra).
        result = parallel.run_experiment(
            "combined_grid", TINY,
            options={"schemes": "morphing,ra", "classifiers": "svm,bayes"},
        )
        by_composition = {}
        for cell in result.cells:
            by_composition.setdefault(cell.composition, []).append(cell)
        for cells in by_composition.values():
            assert len(cells) == 2
            assert cells[0].overhead_percent == cells[1].overhead_percent
            assert cells[0].handshake_bytes == cells[1].handshake_bytes
            assert cells[0].flows == cells[1].flows

    def test_overhead_reported_additively(self):
        result = parallel.run_experiment(
            "combined_grid", TINY,
            options={"schemes": "padding,padding+or", "classifiers": "bayes"},
        )
        by_composition = {cell.composition: cell for cell in result.cells}
        # OR adds no data bytes, so padding+or books exactly padding's
        # overhead (identical padded input, identical accounting).
        assert by_composition["padding+or"].overhead_percent == pytest.approx(
            by_composition["padding"].overhead_percent
        )
        assert by_composition["padding+or"].handshake_bytes > 0
        assert by_composition["padding"].handshake_bytes == 0


class TestCorpusSchemeRoundTrip:
    @pytest.fixture()
    def store_path(self, tmp_path):
        path = str(tmp_path / "defended.store")
        assert main([
            "corpus", "build", path, *TINY_FLAGS, "--scheme", "padding+OR",
        ]) == 0
        return path

    def test_manifest_carries_canonical_specs(self, store_path):
        store = TraceStore.open(store_path)
        specs = store.scheme_specs()
        assert stack_label(specs) == "padding+or"
        assert specs == canonical_stack("padding+or")

    def test_rehydrated_scheme_output_is_bit_identical(self, store_path):
        store = TraceStore.open(store_path)
        params = ScenarioParams.for_corpus(store_path)
        assert params.schemes == store.scheme_specs()

        recorded = build_stack(canonical_stack("padding+or"), seed=TINY.seed)
        rehydrated = build_stack(params.schemes, seed=params.seed)
        scenario = params.build()
        for traces in scenario.evaluation_by_label().values():
            for trace in traces:
                ours = rehydrated.apply(trace)
                reference = recorded.apply(trace)
                assert sorted(ours.flows) == sorted(reference.flows)
                for key in ours.flows:
                    assert np.array_equal(
                        ours.flows[key].times, reference.flows[key].times
                    )
                    assert np.array_equal(
                        ours.flows[key].sizes, reference.flows[key].sizes
                    )
                    assert np.array_equal(
                        ours.flows[key].ifaces, reference.flows[key].ifaces
                    )
                assert ours.extra_bytes == reference.extra_bytes

    def test_corpus_run_serial_matches_jobs_2(self, store_path, capsys):
        args = [
            "run", "combined_grid", "--corpus", store_path,
            "--scheme", "padding+or", "--set", "classifiers=bayes",
            "--format", "json",
        ]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        parallel.clear_worker_state()
        assert main([*args, "--jobs", "2"]) == 0
        fanned = json.loads(capsys.readouterr().out)
        assert fanned == serial
        # The corpus's scheme recipe rides into the artifact params.
        assert serial["params"]["schemes"] == "padding+or"

    def test_corpus_info_displays_scheme(self, store_path, capsys):
        assert main(["corpus", "info", store_path]) == 0
        assert "padding+or" in capsys.readouterr().out

    def test_corpus_info_json_carries_specs(self, store_path, capsys):
        assert main(["corpus", "info", store_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemes"] == [
            {"scheme": "padding", "params": {}},
            {"scheme": "or", "params": {}},
        ]

    def test_plain_corpus_has_no_schemes(self, tmp_path, capsys):
        path = str(tmp_path / "plain.store")
        assert main(["corpus", "build", path, *TINY_FLAGS]) == 0
        capsys.readouterr()
        store = TraceStore.open(path)
        assert store.scheme_specs() == ()
        assert ScenarioParams.for_corpus(path).schemes is None

    def test_build_with_unknown_scheme_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.store")
        assert main(["corpus", "build", path, "--scheme", "nosuch"]) == 2
        assert "registered schemes" in capsys.readouterr().err
        import os

        assert not os.path.exists(os.path.join(path, "manifest.json"))

    def test_malformed_schemes_recipe_raises_store_error(self, store_path):
        from repro.storage import StoreFormatError

        store = TraceStore.open(store_path)
        store.schemes = [{"params": {}}]  # missing the scheme name
        with pytest.raises(StoreFormatError, match="malformed schemes recipe"):
            store.scheme_specs()
