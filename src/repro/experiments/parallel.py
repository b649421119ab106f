"""Parallel experiment execution over ``multiprocessing`` workers.

Every registered experiment decomposes into independent cells (one per
scheme, window, application, or interface count — see
:mod:`repro.experiments.registry`); this module fans those cells out
over a process pool and folds the results back in cell order, so

* every run first runs a **training stage**, then the cells.  For
  every :class:`~repro.analysis.attack.PipelineKey` a spec declares
  (:attr:`~repro.experiments.registry.ExperimentSpec.pipelines`), the
  stage maps one task per training (app, session): the task returns
  that trace's training rows per declared window
  (:meth:`~EvaluationScenario.training_session_rows`), which drops a
  generated trace and evicts a stored one.
  :func:`~repro.experiments.runner.train_pipelines` then fits every
  key on its window's rows.  Every cell payload carries the trained
  pipelines, which the process's :func:`shared_runner` adopts.
* ``jobs=1`` maps the stage's tasks in order, in-process, and fits the
  candidates one after another (``fit_rows(map=None)``); it skips a
  key the process's :func:`shared_runner` already holds, so a session
  that runs several experiments trains each key once.  The cells then
  run in-process, sharing one scenario's evaluation split and one
  :class:`~repro.analysis.batch.WindowCache`.  No trace of the
  training split outlives its task.
* ``jobs=N`` opens the pool before the parent generates anything and
  maps the stage's tasks, and the candidates' fits, over it, so no
  worker regenerates the training corpus or retrains.  Each worker
  still rebuilds the scenario's evaluation split deterministically
  from :class:`ScenarioParams` (same seed ⇒ same corpus, since every
  stochastic component draws from named RNG streams) and memoizes it
  per process, so cells that land on the same worker reuse generated
  traces and plans just like the serial path.

Training is a pure function of the scenario: each trace's rows and each
classifier fit depend only on their inputs and seeds, never on which
process computes them.  Because cell results are deterministic
functions of (cell params, seeds, trained pipelines), the parallel path
reproduces the serial path's numbers exactly — same seed ⇒ same report
— which the integration tests assert.  Speed-up scales with physical
cores; on a single-core host ``jobs=N`` degrades gracefully to roughly
serial wall-clock plus pool overhead.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Mapping

from dataclasses import replace

from repro import obs
from repro.analysis.attack import AttackPipeline, PipelineKey
from repro.experiments import registry
from repro.experiments.registry import ExperimentCell, ScenarioParams
from repro.experiments.runner import ExperimentRunner, train_pipelines
from repro.experiments.scenarios import EvaluationScenario
from repro.util.results import ExperimentResult

__all__ = [
    "clear_worker_state",
    "default_jobs",
    "run_experiment",
    "run_experiment_result",
    "shard_grid_cells",
    "shared_runner",
    "shared_scenario",
    "worker_cached",
]

# ----------------------------------------------------------------------
# Per-process shared state
# ----------------------------------------------------------------------

#: Process-local memo: scenario corpora, experiment runners, and
#: per-experiment caches (e.g. combined_grid's held stack), keyed by
#: picklable descriptors.  The serial path shares it across every cell
#: of a run (and across runs); in workers it amortizes corpus
#: generation across the cells each worker executes.
_WORKER_STATE: dict[object, object] = {}


def worker_cached(key: object, build: Callable[[], object]) -> object:
    """Return the process-local value for ``key``, building it once.

    Builds run :func:`repro.obs.unattributed`: a memoized corpus or
    runner is shared state the serial path constructs once and each
    parallel worker reconstructs, so its telemetry belongs to the
    ``proc.*`` namespace rather than to whichever cell got here first.
    """
    if key not in _WORKER_STATE:
        with obs.unattributed():
            _WORKER_STATE[key] = build()
    return _WORKER_STATE[key]


def shared_scenario(params: ScenarioParams) -> EvaluationScenario:
    """The process-local scenario for ``params`` (corpus generated once)."""
    return worker_cached(("scenario", params), params.build)


def shared_runner(params: ScenarioParams) -> ExperimentRunner:
    """The process-local :class:`ExperimentRunner` for ``params``.

    Shares trained pipelines, scheme objects, and the
    :class:`~repro.analysis.batch.WindowCache` across every cell this
    process executes for the same scenario parameters.
    """
    return worker_cached(
        ("runner", params), lambda: ExperimentRunner(shared_scenario(params))
    )


def clear_worker_state() -> None:
    """Drop every process-local cache (for benchmarking cold runs)."""
    _WORKER_STATE.clear()


# ----------------------------------------------------------------------
# Shard-parallel cell decomposition
# ----------------------------------------------------------------------


def shard_grid_cells(
    experiment: str,
    params: ScenarioParams,
    grid: "list[tuple[str, Mapping[str, object]]]",
    shards: int,
) -> tuple:
    """One cell per (grid point × shard), grid-major / shard-minor.

    The federation analogue of a plain grid decomposition: every grid
    point (a scheme, a window, a population size, ...) fans out into
    ``shards`` independent cells named ``{point}/shard={s}``, each
    carrying its shard index so the cell function touches only that
    shard's slice of the corpus (for instance by filtering generated
    stations through :func:`repro.storage.shard_for_key`).  Cell
    results must be additive — confusion counts, byte totals, flow
    counts — so ``combine`` can roll shards back up into per-point
    rows; ``obs`` profiles roll up the same way through the executor's
    existing merge.  Cell order is deterministic, so serial and ``--jobs N``
    execution stay bit-identical.
    """
    from repro.experiments.registry import make_cell

    shards = int(shards)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    cells = []
    for point_name, point_params in grid:
        for shard in range(shards):
            cells.append(
                make_cell(
                    experiment,
                    f"{point_name}/shard={shard}",
                    {
                        **dict(point_params),
                        "scenario": params,
                        "shard": shard,
                        "shards": shards,
                    },
                    params.seed,
                )
            )
    return tuple(cells)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def default_jobs() -> int:
    """A sensible worker count for this host (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _init_worker() -> None:
    """Worker initializer: make sure every experiment is registered."""
    import repro.experiments  # noqa: F401  (imports register all specs)


def _check_executor(jobs: int, start_method: str | None) -> None:
    """Reject a worker count or start method the executor cannot honor."""
    if int(jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in methods:
        raise ValueError(
            f"start_method must be one of {', '.join(methods)}; "
            f"got {start_method!r}"
        )


#: What a cell payload carries besides the cell: the scenario and the
#: pipelines the training stage fitted, by key (``None`` without a stage).
Trained = tuple[ScenarioParams, dict[PipelineKey, AttackPipeline]] | None


def _execute_cell(
    payload: tuple[str, ExperimentCell, str | None, Trained],
) -> tuple[object, "obs.CellProfile | None"]:
    """Run one cell inside a worker (or in-process for the serial path).

    ``mode`` selects telemetry: ``None`` runs bare, ``"counts"`` opens
    a deterministic capture, ``"timed"`` additionally attaches a
    :class:`~repro.obs.PerfCounterSink` so spans carry durations
    (``repro bench --profile`` — excluded from the bit-identity
    contract by construction).  Pipelines from the training stage are
    adopted by the process's :func:`shared_runner` before the cell
    runs.

    A failing cell re-raises as a :class:`RuntimeError` naming the
    experiment and the cell (the original error is its ``__cause__``);
    the message carries the original type and text, so the name
    survives the trip back from a worker process.
    """
    name, cell, mode, trained = payload
    spec = registry.get(name)

    def run() -> object:
        # Inside the cell's capture: building the shared runner may open
        # a stored corpus, whose gauges a cell records on the serial path.
        if trained is not None:
            params, pipelines = trained
            runner = shared_runner(params)
            for key, pipeline in pipelines.items():
                runner.adopt(key, pipeline)
        return spec.run_cell(cell)

    try:
        if mode is None:
            return run(), None
        sink = obs.PerfCounterSink() if mode == "timed" else None
        with obs.capture(sink) as cap:
            with obs.span(f"cell[{cell.name}]"):
                obs.add("executor.cells_run")
                result = run()
        return result, cap.cell_profile(cell.name)
    except Exception as error:
        raise RuntimeError(
            f"experiment {name!r} cell {cell.name!r} failed: "
            f"{type(error).__name__}: {error}"
        ) from error


# ----------------------------------------------------------------------
# Training stage
# ----------------------------------------------------------------------


def _captured_task(payload: tuple) -> tuple[object, "obs.Subprofile | None"]:
    """Run one stage task in a worker, capturing its telemetry per ``mode``."""
    fn, item, mode = payload
    if mode is None:
        return fn(item), None
    sink = obs.PerfCounterSink() if mode == "timed" else None
    return obs.captured(lambda: fn(item), sink)


def _stage_map(pool, mode: str | None):
    """A ``map`` over ``pool`` that replays each task's telemetry here.

    Results come back in item order; every task's subprofile is
    replayed under the parent's open span, so the stage's counters and
    spans (with the seconds they took in the worker) land in the
    parent's capture.  Without a pool the tasks run here, in order,
    through the same capture and replay.
    """

    def stage_map(fn, items):
        tasks = [(fn, item, mode) for item in items]
        if pool is None:
            outcomes = list(map(_captured_task, tasks))
        else:
            outcomes = pool.map(_captured_task, tasks, chunksize=1)
        for _, subprofile in outcomes:
            obs.replay(subprofile)
        return [value for value, _ in outcomes]

    return stage_map


def _training_rows(
    task: tuple[ScenarioParams, object, int, tuple[float, ...]],
) -> tuple:
    """One training trace's rows for every window; the trace stays here."""
    params, app, session, windows = task
    return shared_scenario(params).training_session_rows(app, session, windows)


def _train_stage(
    pool, spec, params: ScenarioParams, resolved: dict[str, object], mode: str | None
) -> tuple[Trained, "obs.Subprofile | None"]:
    """Train the spec's declared pipelines once, spread over ``pool``.

    ``pool=None`` (``jobs=1``) trains in this process and leaves out
    the keys its :func:`shared_runner` already holds.  Returns the
    cell payloads' ``trained`` entry (``None`` when nothing trained)
    and the stage's telemetry (``None`` unless profiling), which the
    run profile reports in its ``process`` block.
    """
    if spec.pipelines is None:
        return None, None
    keys = tuple(dict.fromkeys(spec.pipelines(params, resolved)))
    # Peek rather than shared_runner(params): building the runner (and
    # opening a stored corpus) stays with the capture that first needs it.
    runner = _WORKER_STATE.get(("runner", params)) if pool is None else None
    if runner is not None:
        keys = tuple(key for key in keys if not runner.has_pipeline(key))
    if not keys:
        return None, None
    stage_map = _stage_map(pool, mode)

    def rows(sessions, windows):
        tasks = [(params, app, session, windows) for app, session in sessions]
        return stage_map(_training_rows, tasks)

    def train() -> dict[PipelineKey, AttackPipeline]:
        # The parent only enumerates the split; building a scenario is
        # lazy (or opens a stored corpus), so it generates nothing.
        scenario = params.build()
        label = ",".join(f"{w:g}" for w in dict.fromkeys(key.window for key in keys))
        with obs.span(f"stage.train[W={label}]"):
            return train_pipelines(
                keys, scenario, rows, map=None if pool is None else stage_map
            )

    sink = obs.PerfCounterSink() if mode == "timed" else None
    pipelines, subprofile = obs.captured(train, sink)
    return (params, pipelines), None if mode is None else subprofile


def _run_resolved(
    spec,
    params: ScenarioParams,
    resolved: dict[str, object],
    jobs: int,
    start_method: str | None,
    mode: str | None = None,
) -> tuple[object, "obs.RunProfile | None"]:
    """Execute a spec whose options are already validated/coerced."""
    _check_executor(jobs, start_method)
    cells = spec.build_cells(params, resolved)
    if not cells:
        raise ValueError(f"experiment {spec.name!r} produced no cells")
    jobs = min(int(jobs), len(cells))

    def train(pool) -> tuple[Trained, "obs.Subprofile | None"]:
        try:
            return _train_stage(pool, spec, params, resolved, mode)
        except Exception as error:
            raise RuntimeError(
                f"experiment {spec.name!r} training stage failed: "
                f"{type(error).__name__}: {error}"
            ) from error

    if jobs == 1:
        held = _WORKER_STATE.get(("scenario", params))
        trained, stage = train(None)
        if held is not None and mode is not None:
            # This process opened the corpus in an earlier run: record
            # the open's gauges again, so a warm run profiles like a cold one.
            _, opened = obs.captured(held.record_corpus_gauges)
            if stage is None:
                stage = opened
            else:
                stage.metrics.merge_in(opened.metrics)
        outcomes = [_execute_cell((spec.name, cell, mode, trained)) for cell in cells]
    else:
        context = multiprocessing.get_context(start_method)
        with context.Pool(processes=jobs, initializer=_init_worker) as pool:
            trained, stage = train(pool)
            # chunksize=1: cells are few and coarse (a full evaluation
            # each); fine-grained dispatch balances the load.
            outcomes = pool.map(
                _execute_cell,
                [(spec.name, cell, mode, trained) for cell in cells],
                chunksize=1,
            )
    cell_results = [result for result, _ in outcomes]
    combined = spec.combine(params, resolved, cell_results)
    profile = None
    if mode is not None:
        # Fold in cell order (pool.map preserves it); the registry's
        # merge laws make the totals order-independent anyway.
        profile = obs.merge_profiles(
            spec.name, [cell_profile for _, cell_profile in outcomes], stage
        )
    return combined, profile


def run_experiment(
    name: str,
    params: ScenarioParams | None = None,
    options: Mapping[str, object] | None = None,
    jobs: int = 1,
    start_method: str | None = None,
) -> object:
    """Run a registered experiment and return its combined result.

    Args:
        name: registry name (see :func:`repro.experiments.registry.names`).
        params: scenario recipe; defaults to the paper-scale
            :class:`ScenarioParams`.
        options: experiment-specific overrides (validated against the
            spec's declared options).
        jobs: worker processes.  ``1`` (or a single-cell experiment)
            runs serially in-process; values above the cell count are
            clamped.
        start_method: optional ``multiprocessing`` start method
            (``fork``/``spawn``/``forkserver``); default is the
            platform's.  Results are identical either way — only
            worker start-up cost differs.

    Returns:
        The spec's combined result object (e.g.
        :class:`~repro.experiments.tables23.AccuracyTable` for
        ``table2``), built by :attr:`ExperimentSpec.combine` from the
        cell results in cell order; the same for any ``jobs``.

    Raises:
        RuntimeError: a cell failed; the message names the experiment,
            the cell and the original error.
    """
    _init_worker()
    spec = registry.get(name)
    params = params or ScenarioParams()
    combined, _ = _run_resolved(
        spec, params, spec.resolve_options(options), jobs, start_method
    )
    return combined


def run_experiment_result(
    name: str,
    params: ScenarioParams | None = None,
    options: Mapping[str, object] | None = None,
    jobs: int = 1,
    start_method: str | None = None,
    profile: bool = False,
    timing: bool = False,
) -> ExperimentResult:
    """Run an experiment and render it as a structured artifact.

    With ``profile=True`` the executor captures per-cell telemetry and
    attaches the merged v1 payload under ``result.meta["profile"]``
    (surfacing in ``to_json`` as the ``"profile"`` key — absent
    otherwise, so existing JSON consumers and the golden snapshots are
    untouched).  ``timing=True`` (implies ``profile``) attaches a
    wall-clock sink so spans carry durations; only the benchmark
    surfaces use it.
    """
    _init_worker()
    spec = registry.get(name)
    params = params or ScenarioParams()
    resolved = spec.resolve_options(options)
    mode = "timed" if timing else ("counts" if profile else None)
    combined, run_profile = _run_resolved(
        spec, params, resolved, jobs, start_method, mode
    )
    result = spec.to_result(params, resolved, combined)
    if run_profile is not None:
        result = replace(
            result, meta={"profile": obs.profile_to_json(run_profile)}
        )
    return result
