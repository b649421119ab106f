"""The unified ``repro`` command line: list, run, and bench experiments.

Entry points (all equivalent)::

    repro <command> ...              # console script (pip install)
    python -m repro <command> ...    # module execution

Commands:

* ``repro list`` — every registered experiment, its cell count, and
  its options.
* ``repro run table2 --jobs 8 --seed 0 --format json`` — run one
  experiment, optionally fanning its cells over worker processes, and
  render the result as text (default), JSON, or CSV.  ``--jobs N``
  reproduces the serial path's numbers exactly (same seed ⇒ same
  report); it only changes wall-clock.
* ``repro bench window_sweep --jobs 4`` — time the serial path against
  the parallel path from cold caches and print the speedup.
* ``repro corpus build|info|run`` — persist a scenario's traffic as a
  columnar on-disk trace store (``docs/trace-format.md``), inspect it,
  and execute any registered experiment against it (``repro run <exp>
  --corpus PATH`` is equivalent); workers open the store read-only and
  replay it zero-copy instead of regenerating traffic.  ``build
  --scheme padding+or`` records the defense recipe in the manifest;
  ``build --shards N`` writes a sharded federation of N member stores
  (``info``/``run`` accept either format transparently).
* ``repro schemes list`` — the defense-scheme catalog: every scheme a
  ``--scheme`` composition can name, with parameter defaults.
* ``repro run combined_grid --scheme padding+or --scheme-set
  interfaces=5`` — evaluate stacked defenses; ``--scheme`` selects
  compositions (stages joined with ``+``) and ``--scheme-set``
  overrides a parameter on every stage that declares it.

``--profile`` (on ``run``, ``bench``, and ``corpus info``/``run``)
captures the deterministic telemetry layer (:mod:`repro.obs`): logical
counters, high-water gauges, and the span tree, rendered after the
result and optionally persisted as a stable v1 JSON payload with
``--profile-output PATH``.  ``run`` profiles carry counts only and are
bit-identical between ``--jobs 1`` and ``--jobs N``; ``bench`` attaches
a wall-clock sink so spans also carry durations.

Scenario scale flags (``--seed``, ``--train-duration``,
``--eval-duration``, ``--train-sessions``, ``--eval-sessions``) select
the corpus; experiment-specific knobs (window grids, interface counts)
are set with ``--set key=value`` and validated against the
experiment's declared options.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

from repro import obs
from repro.experiments import registry
from repro.experiments.parallel import (
    clear_worker_state,
    default_jobs,
    run_experiment_result,
)
from repro.experiments.registry import ScenarioParams
from repro.schemes import (
    all_scheme_definitions,
    canonical_stack,
    specs_to_json,
    stack_label,
)
from repro.util.results import FORMATS, json_safe
from repro.util.tables import format_table

__all__ = ["build_parser", "main"]


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    # Defaults are None sentinels (filled from ScenarioParams after
    # parsing) so "explicitly passed" is distinguishable from
    # "defaulted" — the --corpus conflict check needs the difference.
    defaults = ScenarioParams()
    group = parser.add_argument_group("scenario scale")
    group.add_argument(
        "--seed", type=int, default=None,
        help="root seed for traces, classifiers, and schedulers "
        f"(default: {defaults.seed})",
    )
    group.add_argument(
        "--train-duration", type=float, default=None,
        metavar="SECONDS",
        help="training capture length per session "
        f"(default: {defaults.train_duration})",
    )
    group.add_argument(
        "--eval-duration", type=float, default=None,
        metavar="SECONDS",
        help="held-out capture length per session "
        f"(default: {defaults.eval_duration})",
    )
    group.add_argument(
        "--train-sessions", type=int, default=None,
        metavar="N", help=f"training captures per app (default: {defaults.train_sessions})",
    )
    group.add_argument(
        "--eval-sessions", type=int, default=None,
        metavar="N", help=f"held-out captures per app (default: {defaults.eval_sessions})",
    )


def _add_scheme_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scheme selection")
    group.add_argument(
        "--scheme", dest="scheme", action="append", default=[],
        metavar="NAME[+NAME...]",
        help="evaluate this scheme composition (stages joined with '+', "
        "e.g. padding+or; repeatable).  Maps onto the experiment's "
        "schemes/scheme option; see `repro schemes list` for the catalog",
    )
    group.add_argument(
        "--scheme-set", dest="scheme_set", action="append", default=[],
        metavar="KEY=VALUE",
        help="override a scheme parameter for every stage that declares "
        "it (e.g. interfaces=5; repeatable; values may contain commas, "
        "e.g. channels=1,6); requires an experiment with a "
        "scheme_params option (combined_grid)",
    )


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("profiling")
    group.add_argument(
        "--profile", action="store_true",
        help="capture deterministic telemetry (repro.obs counters, "
        "gauges, span tree) and render it after the result; counts are "
        "bit-identical between --jobs 1 and --jobs N",
    )
    group.add_argument(
        "--profile-output", metavar="PATH", default=None,
        help="also write the profile as stable v1 JSON to PATH "
        "(implies --profile)",
    )


def _job_count(text: str) -> int:
    """An ``--jobs`` value: a worker count, or 0 for one per CPU."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one worker per CPU), got {jobs}"
        )
    return jobs


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="registered experiment name (see `repro list`)")
    parser.add_argument(
        "--corpus", metavar="PATH", default=None,
        help="run against a persisted trace corpus (see `repro corpus "
        "build`) instead of regenerating traffic; scenario scale comes "
        "from the corpus manifest",
    )
    parser.add_argument(
        "--jobs", "-j", type=_job_count, default=1, metavar="N",
        help="worker processes for independent cells; 0 = one per CPU "
        "(default: %(default)s, serial)",
    )
    parser.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument(
        "--set", dest="options", action="append", default=[], metavar="KEY=VALUE",
        help="override an experiment option (repeatable); "
        "see `repro list` for each experiment's options",
    )
    _add_scheme_arguments(parser)
    _add_scenario_arguments(parser)
    _add_profile_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables, figures, and sweeps "
        "— serially or fanned out over worker processes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered experiments", description="List every "
        "registered experiment with its cell decomposition and options.",
    )
    list_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s)",
    )
    list_parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="also print every experiment's --set options with their "
        "types and defaults",
    )

    schemes_parser = commands.add_parser(
        "schemes", help="inspect the defense-scheme catalog",
        description="List the registered defense schemes — the building "
        "blocks of --scheme compositions (stages joined with '+').",
    )
    scheme_commands = schemes_parser.add_subparsers(
        dest="schemes_command", required=True
    )
    schemes_list_parser = scheme_commands.add_parser(
        "list", help="list registered schemes",
        description="Every registered scheme with its kind, parameter "
        "defaults, and aliases.",
    )
    schemes_list_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s)",
    )

    run_parser = commands.add_parser(
        "run", help="run one experiment", description="Run a registered "
        "experiment and print (or write) its result.",
    )
    _add_run_arguments(run_parser)
    run_parser.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default: text; an explicit choice also "
        "overrides --output suffix inference)",
    )
    run_parser.add_argument(
        "--output", "-o", metavar="PATH", default=None,
        help="also write the result to PATH (format inferred from the "
        "suffix unless --format is given explicitly)",
    )

    bench_parser = commands.add_parser(
        "bench", help="time serial vs parallel execution",
        description="Run one experiment serially and with --jobs workers, "
        "both from cold caches, and print the wall-clock comparison.  "
        "--profile shows the timed profile of the parallel run when there "
        "is one (its training stage included), else of the serial run.",
    )
    _add_run_arguments(bench_parser)
    # Unlike `run`, a bare `repro bench <exp>` should actually compare:
    # default to one worker per CPU rather than serial-only.
    bench_parser.set_defaults(jobs=0)

    lint_parser = commands.add_parser(
        "lint", help="check the repo's determinism/picklability invariants",
        description="Run the AST-based invariant linter (rules R1..R7: "
        "global RNG state, wall-clock/nondeterminism, Trace._trusted "
        "confinement, registry picklability contracts, mutable pitfalls, "
        "silent exception swallowing, SchemeSpec literal safety) over "
        "python sources.  Exit codes: 0 clean, 1 findings, 2 engine "
        "error (bad paths or rule names).",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
        "repro package source tree)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s); json follows the "
        "stable schema consumed by the lint-invariants CI artifact",
    )
    lint_parser.add_argument(
        "--rules", default=None, metavar="NAME[,NAME...]",
        help="run only these rules (comma-separated; unknown names are "
        "a loud error listing the valid rules); default: all rules",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules with codes and invariants, then exit",
    )

    corpus_parser = commands.add_parser(
        "corpus", help="build, inspect, and run against on-disk corpora",
        description="Persist a scenario's traffic as a columnar trace "
        "store (docs/trace-format.md), inspect one, or execute a "
        "registered experiment against it without regenerating traffic.",
    )
    corpus_commands = corpus_parser.add_subparsers(
        dest="corpus_command", required=True
    )

    build_parser_ = corpus_commands.add_parser(
        "build", help="generate a scenario's traffic and persist it",
        description="Generate the scenario corpus (training + evaluation "
        "splits) and write it as a columnar trace store at PATH.",
    )
    build_parser_.add_argument("path", help="store directory to create")
    build_parser_.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store at PATH",
    )
    build_parser_.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="write a sharded federation of N member stores instead of "
        "a single store (traces route by stable station hash; see "
        "docs/trace-format.md); readers accept either format "
        "transparently",
    )
    build_parser_.add_argument(
        "--scheme", dest="scheme", default=None, metavar="NAME[+NAME...]",
        help="record this defense-scheme recipe in the corpus manifest "
        "(provenance; traces are stored undefended and the recipe "
        "rehydrates via the schemes registry)",
    )
    _add_scenario_arguments(build_parser_)

    info_parser = corpus_commands.add_parser(
        "info", help="summarize a persisted corpus",
        description="Print a store's provenance and per-application "
        "trace/packet counts from its manifest.",
    )
    info_parser.add_argument("path", help="store directory to inspect")
    info_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s)",
    )
    info_parser.add_argument(
        "--profile", action="store_true",
        help="capture the store-open telemetry (manifest parse counters, "
        "bytes/traces/packets gauges) and render it with the summary",
    )

    corpus_run_parser = corpus_commands.add_parser(
        "run", help="run an experiment against a persisted corpus",
        description="Equivalent to `repro run EXPERIMENT --corpus PATH`: "
        "scenario scale comes from the corpus manifest.",
    )
    corpus_run_parser.add_argument(
        "experiment", help="registered experiment name (see `repro list`)"
    )
    corpus_run_parser.add_argument("path", help="store directory to run against")
    corpus_run_parser.add_argument(
        "--jobs", "-j", type=_job_count, default=1, metavar="N",
        help="worker processes for independent cells; 0 = one per CPU "
        "(default: %(default)s, serial)",
    )
    corpus_run_parser.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
        help="multiprocessing start method (default: platform default)",
    )
    corpus_run_parser.add_argument(
        "--set", dest="options", action="append", default=[], metavar="KEY=VALUE",
        help="override an experiment option (repeatable)",
    )
    corpus_run_parser.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default: text)",
    )
    corpus_run_parser.add_argument(
        "--output", "-o", metavar="PATH", default=None,
        help="also write the result to PATH",
    )
    _add_profile_arguments(corpus_run_parser)
    return parser


class _UsageError(Exception):
    """A user mistake (unknown experiment/option, bad value) — exit 2."""


def _parse_overrides(pairs: Sequence[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise _UsageError(f"bad --set {pair!r}; expected KEY=VALUE")
        overrides[key] = value
    return overrides


_SCENARIO_FIELDS = (
    "seed", "train_duration", "eval_duration",
    "train_sessions", "eval_sessions",
)


def _scenario_params(args: argparse.Namespace) -> ScenarioParams:
    corpus = getattr(args, "corpus", None)
    if corpus is not None:
        try:
            params = ScenarioParams.for_corpus(corpus)
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise _UsageError(f"cannot use corpus {corpus}: {error}") from error
        # Scenario scale is frozen into the corpus; any explicitly
        # passed flag that disagrees with the manifest is a mistake,
        # not an override (even when its value equals the built-in
        # default — hence the None sentinels above).
        for name in _SCENARIO_FIELDS:
            given = getattr(args, name, None)
            if given is not None and given != getattr(params, name):
                flag = "--" + name.replace("_", "-")
                raise _UsageError(
                    f"{flag} {given} conflicts with the corpus at {corpus} "
                    f"(stored: {getattr(params, name)}); drop the flag or "
                    "rebuild the corpus"
                )
        return params
    defaults = ScenarioParams()
    return ScenarioParams(
        **{
            name: getattr(defaults, name)
            if getattr(args, name, None) is None
            else getattr(args, name)
            for name in _SCENARIO_FIELDS
        }
    )


def _resolve_jobs(jobs: int) -> int:
    return default_jobs() if jobs == 0 else jobs


def _scheme_flag_overrides(
    spec, compositions: Sequence[str], scheme_sets: Sequence[str]
) -> dict[str, str]:
    """Translate ``--scheme`` / ``--scheme-set`` into option overrides.

    ``--scheme`` is sugar for the experiment's scheme-selection option:
    it fills ``schemes`` (grid experiments: combined_grid,
    stream_replay) or ``scheme`` (single-scheme experiments:
    arms_race).  Composition names are validated against the scheme
    registry up front, so typos fail before any corpus is generated.
    """
    overrides: dict[str, str] = {}
    if compositions:
        for composition in compositions:
            canonical_stack(composition)  # unknown names raise here
        if "schemes" in spec.options:
            overrides["schemes"] = ",".join(compositions)
        elif "scheme" in spec.options:
            if len(compositions) != 1 or "+" in compositions[0]:
                raise ValueError(
                    f"experiment {spec.name!r} evaluates a single scheme; "
                    "pass exactly one --scheme with no '+'"
                )
            overrides["scheme"] = compositions[0]
        else:
            raise ValueError(
                f"experiment {spec.name!r} takes no scheme selection "
                "(no schemes/scheme option); drop --scheme"
            )
    if scheme_sets:
        if "scheme_params" not in spec.options:
            raise ValueError(
                f"experiment {spec.name!r} has no scheme_params option; "
                "--scheme-set applies to scheme-grid experiments "
                "(combined_grid)"
            )
        for pair in scheme_sets:
            key, separator, _ = pair.partition("=")
            if not separator or not key:
                raise ValueError(
                    f"bad --scheme-set {pair!r}; expected KEY=VALUE"
                )
        # ';'-joined: scheme_params values may legitimately contain
        # commas (fh channels, or boundaries).
        overrides["scheme_params"] = ";".join(scheme_sets)
    return overrides


def _prepare_run(args: argparse.Namespace):
    """Validate the experiment name and options before any real work.

    User mistakes surface here as :class:`_UsageError` (clean one-line
    message, exit 2); anything raised later, during execution, is a
    genuine bug and propagates with its traceback intact.
    """
    params = _scenario_params(args)
    try:
        spec = registry.get(args.experiment)
        overrides = _parse_overrides(args.options)
        scheme_overrides = _scheme_flag_overrides(
            spec,
            getattr(args, "scheme", None) or [],
            getattr(args, "scheme_set", None) or [],
        )
        clashing = sorted(set(overrides) & set(scheme_overrides))
        if clashing:
            conflicts = ", ".join(clashing)
            raise ValueError(
                f"--scheme/--scheme-set and --set both configure "
                f"{conflicts}; use one spelling"
            )
        overrides.update(scheme_overrides)
        resolved = spec.resolve_options(overrides)
        cells = spec.build_cells(params, resolved)  # surfaces bad list values
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise _UsageError(message) from error
    return spec, params, resolved, len(cells)


def _cmd_list(args: argparse.Namespace) -> int:
    params = ScenarioParams()
    verbose = getattr(args, "verbose", False)
    entries = []
    for spec in registry.all_specs():
        cells = spec.build_cells(params, spec.resolve_options(None))
        options = ", ".join(f"{k}={v}" for k, v in spec.options.items()) or "-"
        entry = {
            "name": spec.name,
            "cells": len(cells),
            "deterministic": spec.deterministic,
            "options": options,
            "title": spec.title,
        }
        if verbose:
            entry["option_details"] = [
                {"name": key, "type": type(value).__name__, "default": value}
                for key, value in spec.options.items()
            ]
            entry["description"] = spec.description
        entries.append(entry)
    if args.format == "json":
        print(json.dumps(json_safe(entries), indent=2))
        return 0
    rows = [
        [e["name"], e["cells"], "yes" if e["deterministic"] else "no",
         e["options"], e["title"]]
        for e in entries
    ]
    print(
        format_table(
            ["experiment", "cells", "deterministic", "options", "title"],
            rows,
            title="Registered experiments (run with: repro run <experiment>)",
        )
    )
    if verbose:
        # One block per experiment: the exact --set spellings, so knob
        # discovery never requires reading the experiment's source.
        print("\nOptions (override with: repro run <experiment> --set KEY=VALUE)")
        for entry in entries:
            print(f"\n{entry['name']} — {entry['description']}")
            details = entry["option_details"]
            if not details:
                print("  (no options)")
                continue
            for option in details:
                print(
                    f"  --set {option['name']}=<{option['type']}>"
                    f"  (default: {option['default']})"
                )
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    entries = [
        {
            "name": definition.name,
            "kind": definition.kind,
            "params": dict(definition.params),
            "aliases": list(definition.aliases),
            "title": definition.title,
        }
        for definition in all_scheme_definitions()
    ]
    if args.format == "json":
        print(json.dumps(json_safe(entries), indent=2))
        return 0
    rows = [
        [
            entry["name"],
            entry["kind"],
            ", ".join(f"{k}={v}" for k, v in entry["params"].items()) or "-",
            ", ".join(entry["aliases"]) or "-",
            entry["title"],
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["scheme", "kind", "params (defaults)", "aliases", "title"],
            rows,
            title="Registered defense schemes "
            "(compose with '+': repro run combined_grid --scheme padding+or)",
        )
    )
    return 0


def _profile_flags(args: argparse.Namespace) -> tuple[bool, str | None]:
    """(profiling enabled, profile output path); the path implies the flag."""
    path = getattr(args, "profile_output", None)
    return bool(getattr(args, "profile", False) or path), path


def _emit_profile(payload, path: str | None, render: bool = True) -> None:
    """Print and/or persist one captured profile payload."""
    if render:
        print(obs.render_profile(payload))
    if path:
        obs.write_profile(payload, path)
        print(f"repro: wrote profile to {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    _, params, resolved, _ = _prepare_run(args)
    profiling, profile_path = _profile_flags(args)
    result = run_experiment_result(
        args.experiment,
        params=params,
        options=resolved,
        jobs=_resolve_jobs(args.jobs),
        start_method=args.start_method,
        profile=profiling,
    )
    # JSON output already embeds the payload under its "profile" key
    # (ExperimentResult.to_json), so only the text rendering appends it.
    print(result.render(args.format or "text"))
    if profiling:
        _emit_profile(
            result.meta["profile"],
            profile_path,
            render=(args.format or "text") == "text",
        )
    if args.output:
        # An explicit --format wins; otherwise the suffix picks the
        # file format (unknown suffixes fall back to text).
        written = result.write(args.output, fmt=args.format)
        print(f"repro: wrote {written} result to {args.output}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _, params, resolved, n_cells = _prepare_run(args)
    profiling, profile_path = _profile_flags(args)
    # Report the worker count that will actually run: the executor
    # clamps to the cell count, so a single-cell experiment at --jobs 8
    # is still serial and must not print a fake "parallel" timing.
    workers = min(_resolve_jobs(args.jobs), n_cells)
    timings: list[list[object]] = []

    clear_worker_state()
    start = time.perf_counter()
    # One leg carries the profile: the parallel one when it runs (its
    # process block holds the training stage), else the serial one.
    # timing=True attaches the wall-clock sink, so its span tree
    # explains where the time went.
    profiled = run_experiment_result(
        args.experiment, params=params, options=resolved, jobs=1,
        timing=profiling and workers == 1,
    )
    serial_seconds = time.perf_counter() - start
    timings.append(["serial (--jobs 1)", serial_seconds, 1.0])

    if workers > 1:
        clear_worker_state()
        start = time.perf_counter()
        profiled = run_experiment_result(
            args.experiment,
            params=params,
            options=resolved,
            jobs=workers,
            start_method=args.start_method,
            timing=profiling,
        )
        parallel_seconds = time.perf_counter() - start
        speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
        timings.append([f"parallel (--jobs {workers})", parallel_seconds, speedup])
    else:
        reason = (
            f"only {n_cells} cell(s) to fan out"
            if n_cells < _resolve_jobs(args.jobs)
            else "single CPU or --jobs 1"
        )
        print(
            f"repro: {reason}; timing the serial path only",
            file=sys.stderr,
        )

    print(
        format_table(
            ["mode", "wall s", "speedup"],
            timings,
            title=f"repro bench {args.experiment} "
            f"(cold caches; parallel speedup scales with physical cores)",
        )
    )
    if profiling:
        _emit_profile(profiled.meta["profile"], profile_path)
    return 0


def _corpus_summary_rows(store) -> list[list[object]]:
    """Per-(role, label) trace/packet counts, in store order."""
    grouped: dict[tuple[str, str], list[int]] = {}
    for entry in store.entries():
        key = (entry.role or "-", entry.label or "-")
        counts = grouped.setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += entry.count
    return [
        [role, label, traces, packets]
        for (role, label), (traces, packets) in grouped.items()
    ]


def _print_corpus_summary(store, fmt: str = "text", profile=None) -> None:
    recipe = store.scenario or {}
    specs = store.scheme_specs()
    # A ShardSet federation exposes the same read API plus shard_count;
    # single stores have no shard notion.
    shards = getattr(store, "shard_count", None)
    if fmt == "json":
        payload = {
            "path": store.path,
            "packets": store.packets,
            "traces": len(store),
            "bytes": store.nbytes,
            "shards": shards,
            "scenario": recipe,
            "schemes": specs_to_json(specs) if specs else None,
            "splits": [
                {"role": row[0], "label": row[1], "traces": row[2], "packets": row[3]}
                for row in _corpus_summary_rows(store)
            ],
        }
        if profile is not None:
            payload["profile"] = profile
        print(json.dumps(json_safe(payload), indent=2))
        return
    scale = ", ".join(f"{key}={value}" for key, value in recipe.items()) or "none"
    scheme_note = f"; scheme: {stack_label(specs)}" if specs else ""
    shard_note = f", {shards} shards" if shards is not None else ""
    print(
        format_table(
            ["role", "label", "traces", "packets"],
            _corpus_summary_rows(store),
            title=f"Corpus {store.path} — {len(store)} traces, "
            f"{store.packets} packets, {store.nbytes / 1e6:.1f} MB"
            f"{shard_note} (scenario: {scale}{scheme_note})",
        )
    )
    if profile is not None:
        print(obs.render_profile(profile))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import (
        LintError,
        findings_to_json,
        lint_paths,
        resolve_rules,
    )

    try:
        names = None
        if args.rules is not None:
            names = [part.strip() for part in args.rules.split(",") if part.strip()]
        rules = resolve_rules(names)
        if args.list_rules:
            if args.format == "json":
                payload = [
                    {
                        "code": rule.code,
                        "name": rule.name,
                        "severity": rule.severity,
                        "summary": rule.summary,
                        "invariant": rule.invariant,
                    }
                    for rule in rules
                ]
                print(json.dumps(payload, indent=2))
            else:
                print(
                    format_table(
                        ["code", "rule", "severity", "enforces"],
                        [[r.code, r.name, r.severity, r.summary] for r in rules],
                        title="repro lint rules "
                        "(suppress inline: # repro-lint: allow[rule]: reason)",
                    )
                )
            return 0
        if args.paths:
            targets = list(args.paths)
        else:
            # Default target: the package source this interpreter would
            # import — right both in a checkout (src/repro) and when
            # pointed at an installed tree.
            from pathlib import Path

            import repro

            targets = [str(Path(repro.__file__).parent)]
        findings = lint_paths(targets, rules=rules)
    except LintError as error:
        raise _UsageError(str(error)) from error

    errors = sum(1 for finding in findings if finding.severity == "error")
    if args.format == "json":
        print(json.dumps(findings_to_json(findings, rules=rules), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        checked = ", ".join(rule.name for rule in rules)
        print(
            f"repro lint: {len(findings)} finding(s) "
            f"({errors} error(s)) [rules: {checked}]",
            file=sys.stderr,
        )
    return 1 if errors else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.storage import StoreFormatError, open_corpus

    if args.corpus_command == "build":
        params = _scenario_params(args)
        shards = getattr(args, "shards", None)
        if shards is not None and shards < 1:
            raise _UsageError(f"--shards must be >= 1, got {shards}")
        specs = None
        if getattr(args, "scheme", None):
            try:
                specs = canonical_stack(args.scheme)
            except (KeyError, ValueError) as error:
                message = error.args[0] if error.args else error
                raise _UsageError(message) from error
        # The process-local memo means a build right after (or before) a
        # `repro run` at the same scale generates the corpus only once.
        from repro.experiments.parallel import shared_scenario

        try:
            store = shared_scenario(params).save_corpus(
                args.path, overwrite=args.overwrite, schemes=specs,
                shards=shards,
            )
        except FileExistsError as error:
            raise _UsageError(str(error)) from error
        _print_corpus_summary(store)
        return 0
    if args.corpus_command == "info":
        payload = None
        try:
            if getattr(args, "profile", False):
                # The open itself is what the profile describes: manifest
                # parse counters plus the bytes/traces/packets gauges.
                with obs.capture() as cap:
                    store = open_corpus(args.path)
                payload = obs.profile_to_json(cap.run_profile("corpus-info"))
            else:
                store = open_corpus(args.path)
        except (OSError, StoreFormatError) as error:
            raise _UsageError(str(error)) from error
        _print_corpus_summary(store, fmt=args.format, profile=payload)
        return 0
    if args.corpus_command == "run":
        args.corpus = args.path
        return _cmd_run(args)
    raise AssertionError(
        f"unhandled corpus command {args.corpus_command!r}"
    )  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "schemes":
            return _cmd_schemes(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
    except _UsageError as error:
        # Only pre-execution validation errors are caught; a failure
        # during execution is a bug and keeps its traceback.
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # other well-behaved unix tools.
        sys.stderr.close()
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
