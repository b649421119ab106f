"""Smoke tests for the unified ``repro`` CLI.

Marked ``smoke`` and collected by the tier-1 run, so the CLI cannot
silently rot: ``repro run --help``, ``repro list``, and one tiny
experiment run end-to-end on every test pass.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.smoke

#: Tiny-scenario flags shared by the end-to-end runs (seconds, sessions).
TINY_FLAGS = [
    "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
]


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_run_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out and "--set" in out

    def test_parser_builds_without_side_effects(self):
        assert build_parser().prog == "repro"


class TestList:
    def test_list_names_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "table6", "fig1", "window_sweep"):
            assert name in out

    def test_list_json_is_parseable(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {"name", "cells", "deterministic", "options", "title"} <= set(entries[0])
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["table2"]["cells"] == 5
        assert by_name["scalability"]["deterministic"] is False

    def test_list_verbose_spells_out_every_option(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        # Knob discovery without reading source: exact --set spellings
        # with type and default for every experiment.
        assert "--set KEY=VALUE" in out
        assert "--set windows=<str>  (default: 5,15,30,60)" in out
        assert "--set threshold=<float>  (default: 0.85)" in out
        assert "--set interfaces=<int>" in out

    def test_list_verbose_json_carries_option_details(self, capsys):
        assert main(["list", "--verbose", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        details = {
            option["name"]: option
            for option in by_name["arms_race"]["option_details"]
        }
        assert details["threshold"] == {
            "name": "threshold", "type": "float", "default": 0.85,
        }
        assert by_name["table1"]["option_details"][0]["type"] == "int"


class TestRun:
    def test_run_table1_end_to_end_text(self, capsys):
        assert main(["run", "table1", *TINY_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "bittorrent" in out

    def test_run_fig1_json_round_trips(self, capsys):
        assert (
            main(["run", "fig1", *TINY_FLAGS, "--set", "duration=5",
                  "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig1"
        assert payload["params"]["duration"] == 5.0
        assert len(payload["rows"]) == 7
        assert "series" in payload["extras"]

    def test_run_writes_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.json"
        assert (
            main(["run", "fig4", *TINY_FLAGS, "--set", "duration=5",
                  "--output", str(out_path)])
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "fig4"

    def test_explicit_format_overrides_output_suffix(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.txt"
        assert (
            main(["run", "fig4", *TINY_FLAGS, "--set", "duration=5",
                  "--format", "csv", "--output", str(out_path)])
            == 0
        )
        assert out_path.read_text().startswith("flow,packets,share %")

    def test_unknown_experiment_exits_2_with_catalog(self, capsys):
        assert main(["run", "table99", *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert "table99" in err and "table2" in err

    def test_unknown_option_exits_2(self, capsys):
        assert main(["run", "fig4", *TINY_FLAGS, "--set", "bogus=1"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, capsys):
        assert main(["run", "fig4", *TINY_FLAGS, "--set", "no-equals-sign"]) == 2
        assert "expected KEY=VALUE" in capsys.readouterr().err

    def test_infinite_duration_fails_fast_naming_it(self):
        # A subprocess with a timeout, so a regression (the generator
        # looping forever on an endless capture) fails instead of hanging.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig1", *TINY_FLAGS,
             "--set", "duration=inf"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode != 0
        assert "experiment 'fig1' cell 'app=browsing' failed" in completed.stderr
        assert "duration must be finite, got inf" in completed.stderr

    def test_empty_evaluation_split_fails_naming_it(self):
        with pytest.raises(RuntimeError, match="eval_sessions must be >= 1, got 0"):
            main(["run", "table2", *TINY_FLAGS, "--eval-sessions", "0"])


class TestCorpus:
    """`repro corpus build` -> `repro run --corpus` round trip."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-corpus") / "tiny.store")
        assert main(["corpus", "build", path, *TINY_FLAGS]) == 0
        return path

    def test_build_prints_summary(self, capsys, store_path):
        # The fixture already built it; `info` re-reads the manifest.
        assert main(["corpus", "info", store_path]) == 0
        out = capsys.readouterr().out
        assert "packets" in out and "train" in out and "eval" in out

    def test_info_json_is_parseable(self, capsys, store_path):
        assert main(["corpus", "info", store_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["seed"] == 5
        assert payload["packets"] > 0
        assert {"role", "label", "traces", "packets"} <= set(payload["splits"][0])

    def test_run_against_corpus_matches_regenerated(self, capsys, store_path):
        assert main(["run", "table1", "--corpus", store_path,
                     "--format", "json"]) == 0
        from_corpus = json.loads(capsys.readouterr().out)
        assert main(["run", "table1", *TINY_FLAGS, "--format", "json"]) == 0
        regenerated = json.loads(capsys.readouterr().out)
        # Bit-identical cells: the stored corpus replays the exact traces
        # the generator would produce at these params.
        assert from_corpus["rows"] == regenerated["rows"]
        assert from_corpus["params"]["corpus"] == store_path

    def test_corpus_run_subcommand_is_equivalent(self, capsys, store_path):
        assert main(["corpus", "run", "table1", store_path,
                     "--format", "json"]) == 0
        via_subcommand = json.loads(capsys.readouterr().out)
        assert main(["run", "table1", "--corpus", store_path,
                     "--format", "json"]) == 0
        via_flag = json.loads(capsys.readouterr().out)
        assert via_subcommand["rows"] == via_flag["rows"]

    def test_corpus_run_with_jobs_matches_serial(self, capsys, store_path):
        # Cells carry only the store path; each worker opens the corpus
        # read-only, so fan-out must reproduce the serial rows exactly.
        assert main(["run", "table1", "--corpus", store_path,
                     "--jobs", "2", "--format", "json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(["run", "table1", "--corpus", store_path,
                     "--format", "json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert parallel["rows"] == serial["rows"]

    def test_conflicting_scenario_flag_exits_2(self, capsys, store_path):
        assert main(["run", "table1", "--corpus", store_path, "--seed", "9"]) == 2
        assert "conflicts with the corpus" in capsys.readouterr().err

    def test_explicit_flag_equal_to_default_still_conflicts(
        self, capsys, store_path
    ):
        # The corpus stores seed=5; --seed 0 happens to equal the
        # built-in default but was passed explicitly, so it must be
        # rejected, not silently replaced by the stored value.
        assert main(["run", "table1", "--corpus", store_path, "--seed", "0"]) == 2
        assert "conflicts with the corpus" in capsys.readouterr().err

    def test_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["run", "table1", "--corpus", str(tmp_path / "nope")]) == 2
        assert "cannot use corpus" in capsys.readouterr().err

    def test_build_refuses_overwrite_without_flag(self, capsys, store_path):
        assert main(["corpus", "build", store_path, *TINY_FLAGS]) == 2
        assert "overwrite" in capsys.readouterr().err


class TestShardedCorpus:
    """`corpus build --shards` -> info/run, transparently federated."""

    @pytest.fixture(scope="class")
    def shards_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-shards") / "tiny.shards")
        assert main(["corpus", "build", path, "--shards", "3", *TINY_FLAGS]) == 0
        return path

    def test_build_creates_a_federation(self, shards_path):
        from repro.storage import ShardSet, is_shardset

        assert is_shardset(shards_path)
        federation = ShardSet.open(shards_path)
        assert federation.shard_count == 3
        assert federation.packets > 0
        federation.close()

    def test_info_reports_shard_count(self, capsys, shards_path):
        assert main(["corpus", "info", shards_path]) == 0
        out = capsys.readouterr().out
        assert "3 shards" in out
        assert "train" in out and "eval" in out

    def test_info_json_carries_shards_key(self, capsys, shards_path):
        assert main(["corpus", "info", shards_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 3
        assert payload["scenario"]["seed"] == 5

    def test_run_against_federation_matches_regenerated(
        self, capsys, shards_path
    ):
        # The federation hydrates the same scenario the generator
        # produces at these params — rows must be bit-identical.
        assert main(["run", "table1", "--corpus", shards_path,
                     "--format", "json"]) == 0
        from_corpus = json.loads(capsys.readouterr().out)
        assert main(["run", "table1", *TINY_FLAGS, "--format", "json"]) == 0
        regenerated = json.loads(capsys.readouterr().out)
        assert from_corpus["rows"] == regenerated["rows"]

    def test_corpus_run_with_jobs_matches_serial(self, capsys, shards_path):
        assert main(["corpus", "run", "table1", shards_path,
                     "--jobs", "2", "--format", "json"]) == 0
        fanned = json.loads(capsys.readouterr().out)
        assert main(["corpus", "run", "table1", shards_path,
                     "--format", "json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert fanned["rows"] == serial["rows"]

    def test_population_scale_runs_against_federation(
        self, capsys, shards_path
    ):
        assert main(["corpus", "run", "population_scale", shards_path,
                     "--set", "populations=4", "--set", "shards=2",
                     "--set", "station_duration=5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "population_scale"
        (row,) = payload["rows"]
        assert row[0] == 4 and row[1] > 0

    def test_invalid_shard_count_exits_2(self, capsys, tmp_path):
        assert main(["corpus", "build", str(tmp_path / "bad.shards"),
                     "--shards", "0", *TINY_FLAGS]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_build_refuses_federation_overwrite_without_flag(
        self, capsys, shards_path
    ):
        assert main(["corpus", "build", shards_path, "--shards", "3",
                     *TINY_FLAGS]) == 2
        assert "overwrite" in capsys.readouterr().err


class TestJobsFlag:
    @pytest.mark.parametrize("command", [["run", "table1"], ["bench", "table1"]])
    def test_negative_jobs_is_a_usage_error_naming_the_flag(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *TINY_FLAGS, "--jobs", "-2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs/-j: must be >= 0" in err

    def test_corpus_run_rejects_negative_jobs(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "run", "table1", str(tmp_path), "--jobs", "-1"])
        assert excinfo.value.code == 2
        assert "argument --jobs/-j" in capsys.readouterr().err

    def test_non_integer_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "table1", *TINY_FLAGS, "--jobs", "two"])
        assert "expected an integer, got 'two'" in capsys.readouterr().err


class TestBench:
    def test_bench_serial_only_prints_timing(self, capsys):
        assert main(["bench", "fig4", *TINY_FLAGS, "--set", "duration=5"]) == 0
        out = capsys.readouterr().out
        assert "serial (--jobs 1)" in out

    def test_bench_with_jobs_prints_speedup_row(self, capsys):
        assert (
            main(["bench", "fig1", *TINY_FLAGS, "--set", "duration=5",
                  "--jobs", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "parallel (--jobs 2)" in out and "speedup" in out


class TestProfile:
    """`--profile` surfaces: run, bench, and corpus info telemetry."""

    def test_run_profile_renders_counters_and_spans(self, capsys):
        assert main(["run", "table1", *TINY_FLAGS, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: table1 (repro-profile v1" in out
        assert "scheme.apply_calls" in out
        assert "cell[app=browsing]" in out
        assert "scenario.generate" in out

    def test_run_profile_output_writes_v1_payload(self, capsys, tmp_path):
        path = tmp_path / "table1.profile.json"
        assert (
            main(["run", "table1", *TINY_FLAGS,
                  "--profile-output", str(path)])
            == 0
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-profile"
        assert payload["version"] == 1
        assert payload["experiment"] == "table1"
        assert payload["counters"]["executor.cells_run"] == 7
        assert len(payload["cells"]) == 7
        # --profile-output implies --profile, so the text render shows too.
        assert "profile: table1" in capsys.readouterr().out

    def test_run_format_json_embeds_profile_key(self, capsys):
        assert main(["run", "table1", *TINY_FLAGS, "--profile",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["experiment"] == "table1"

    def test_run_without_profile_has_no_profile_key(self, capsys):
        assert main(["run", "table1", *TINY_FLAGS, "--format", "json"]) == 0
        assert "profile" not in json.loads(capsys.readouterr().out)

    def test_bench_profile_spans_carry_durations(self, capsys):
        assert main(["bench", "table1", *TINY_FLAGS, "--jobs", "1",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: table1" in out
        assert " ms]" in out  # wall-clock sink attached on the serial leg

    def test_parallel_bench_profile_shows_the_training_stage(self, capsys):
        assert main(["bench", "table2", *TINY_FLAGS, "--jobs", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        spans = out.split("process spans:")[1].split("process counters:")[0]
        lines = [line.strip() for line in spans.strip().splitlines()]
        assert lines[0].startswith("stage.train[W=5] ×1  [")
        names = [line.split(" ×")[0] for line in lines[1:]]
        assert names == ["train.rows", "fit[svm]", "fit[nn]", "select"]
        assert all(line.endswith(" ms]") for line in lines)

    def test_corpus_info_profile_shows_store_gauges(
        self, capsys, tmp_path_factory
    ):
        path = str(tmp_path_factory.mktemp("cli-profile") / "tiny.store")
        assert main(["corpus", "build", path, *TINY_FLAGS]) == 0
        capsys.readouterr()
        assert main(["corpus", "info", path, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "store.bytes_mapped" in out
        assert "proc.store.opens" in out
        assert main(["corpus", "info", path, "--profile",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["gauges"]["store.traces_stored"] == 14


class TestLint:
    """Exit-code contract: 0 clean, 1 findings, 2 engine error."""

    @pytest.fixture()
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import numpy as np\n_taint = np.random.rand(3)\n")
        return str(path)

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s) (0 error(s))" in captured.err

    def test_clean_tree_json_schema(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == 0 and payload["errors"] == 0
        assert len(payload["rules"]) == 7

    def test_findings_exit_one_with_clickable_location(self, capsys, bad_file):
        assert main(["lint", bad_file]) == 1
        captured = capsys.readouterr()
        assert f"{bad_file}:2:9: global-rng [error]:" in captured.out
        assert "1 finding(s) (1 error(s))" in captured.err

    def test_findings_json_carries_location_fields(self, capsys, bad_file):
        assert main(["lint", bad_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["findings"]
        assert entry["file"] == bad_file
        assert (entry["line"], entry["col"]) == (2, 9)
        assert entry["rule"] == "global-rng" and entry["severity"] == "error"

    def test_rules_subset_narrows_the_run(self, capsys, bad_file):
        # The planted violation is R1-only; a run restricted to R2
        # must pass it, and say which rules actually ran.
        assert main(["lint", bad_file, "--rules", "nondeterminism"]) == 0
        assert "[rules: nondeterminism]" in capsys.readouterr().err

    def test_unknown_rule_is_a_loud_usage_error(self, capsys):
        assert main(["lint", "--rules", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "valid rules" in err and "global-rng" in err

    def test_empty_rules_selection_exits_two(self, capsys):
        assert main(["lint", "--rules", ","]) == 2
        assert "no rules selected" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_unparseable_file_is_a_finding_not_a_crash(self, capsys, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main(["lint", str(path)]) == 1
        assert "syntax-error" in capsys.readouterr().out

    def test_list_rules_renders_the_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for token in ("R1", "R7", "global-rng", "spec-literals", "allow[rule]"):
            assert token in out

    def test_list_rules_json_is_parseable(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in entries] == [f"R{i}" for i in range(1, 8)]
        assert {"name", "severity", "summary", "invariant"} <= set(entries[0])
