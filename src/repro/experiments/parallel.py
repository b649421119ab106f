"""Parallel experiment execution over ``multiprocessing`` workers.

Every registered experiment decomposes into independent cells (one per
scheme, window, application, or interface count — see
:mod:`repro.experiments.registry`); this module fans those cells out
over a process pool and folds the results back in cell order, so

* ``jobs=1`` runs every cell in-process, sharing one scenario corpus,
  one trained pipeline per window, and one
  :class:`~repro.analysis.batch.WindowCache` per scenario;
* ``jobs=N`` runs cells in worker processes.  Each worker rebuilds the
  scenario deterministically from :class:`ScenarioParams` (same seed ⇒
  same corpus ⇒ same trained classifiers, since every stochastic
  component draws from named RNG streams) and memoizes it per process,
  so cells that land on the same worker reuse generated traces,
  trained pipelines, and reshaped flows just like the serial path.

Because cell results are deterministic functions of (cell params,
seeds), the parallel path reproduces the serial path's numbers exactly
— same seed ⇒ same report — which the integration tests assert.
Speed-up scales with physical cores; on a single-core host ``jobs=N``
degrades gracefully to roughly serial wall-clock plus pool overhead.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Mapping

from dataclasses import replace

from repro import obs
from repro.experiments import registry
from repro.experiments.registry import ExperimentCell, ScenarioParams
from repro.experiments.runner import ExperimentRunner
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
    "shared_shard",
    "worker_cached",
]

# ----------------------------------------------------------------------
# Per-process shared state
# ----------------------------------------------------------------------

#: Process-local memo: scenario corpora, experiment runners, and
#: arbitrary per-experiment caches (e.g. Table VI's timing pipeline),
#: keyed by picklable descriptors.  The serial path shares it across
#: every cell of a run (and across runs); in workers it amortizes
#: corpus generation and classifier training across the cells each
#: worker executes.
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


def shared_shard(corpus: str, shard: int):
    """The process-local member store ``shard`` of a federation.

    Opens the federation's manifests (cheap) to resolve the member
    directory, then memory-maps **only that shard's** columns — the
    seam that keeps a shard-decomposed cell's working set at one
    shard's size no matter how many shards the corpus holds.  The
    member :class:`~repro.storage.TraceStore` is memoized per process,
    so every cell a worker executes against the same shard shares one
    mapping.
    """
    from repro.storage import ShardSet

    def build():
        federation = ShardSet.open(str(corpus))
        return federation.shard(int(shard))

    return worker_cached(("shard", str(corpus), int(shard)), build)


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
    shard's slice of the corpus (via :func:`shared_shard`, or by
    filtering generated stations through
    :func:`repro.storage.shard_for_key`).  Cell results must be
    additive — confusion counts, byte totals, flow counts — so
    ``combine`` can roll shards back up into per-point rows; ``obs``
    profiles roll up the same way through the executor's existing
    merge.  Cell order is deterministic, so serial and ``--jobs N``
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


def _execute_cell(
    payload: tuple[str, ExperimentCell, str | None],
) -> tuple[object, "obs.CellProfile | None"]:
    """Run one cell inside a worker (or in-process for the serial path).

    ``mode`` selects telemetry: ``None`` runs bare, ``"counts"`` opens
    a deterministic capture, ``"timed"`` additionally attaches a
    :class:`~repro.obs.PerfCounterSink` so spans carry durations
    (``repro bench --profile`` — excluded from the bit-identity
    contract by construction).

    A failing cell re-raises as a :class:`RuntimeError` naming the
    experiment and the cell (the original error is its ``__cause__``);
    the message carries the original type and text, so the name
    survives the trip back from a worker process.
    """
    name, cell, mode = payload
    spec = registry.get(name)
    try:
        if mode is None:
            return spec.run_cell(cell), None
        sink = obs.PerfCounterSink() if mode == "timed" else None
        with obs.capture(sink) as cap:
            with obs.span(f"cell[{cell.name}]"):
                obs.add("executor.cells_run")
                result = spec.run_cell(cell)
        return result, cap.cell_profile(cell.name)
    except Exception as error:
        raise RuntimeError(
            f"experiment {name!r} cell {cell.name!r} failed: "
            f"{type(error).__name__}: {error}"
        ) from error


def _run_resolved(
    spec,
    params: ScenarioParams,
    resolved: dict[str, object],
    jobs: int,
    start_method: str | None,
    mode: str | None = None,
) -> tuple[object, "obs.RunProfile | None"]:
    """Execute a spec whose options are already validated/coerced."""
    cells = spec.build_cells(params, resolved)
    if not cells:
        raise ValueError(f"experiment {spec.name!r} produced no cells")
    payloads = [(spec.name, cell, mode) for cell in cells]
    jobs = max(1, min(int(jobs), len(cells)))
    if jobs == 1:
        outcomes = [_execute_cell(payload) for payload in payloads]
    else:
        context = multiprocessing.get_context(start_method)
        with context.Pool(processes=jobs, initializer=_init_worker) as pool:
            # chunksize=1: cells are few and coarse (a full train +
            # evaluate each); fine-grained dispatch balances the load.
            outcomes = pool.map(_execute_cell, payloads, chunksize=1)
    cell_results = [result for result, _ in outcomes]
    combined = spec.combine(params, resolved, cell_results)
    profile = None
    if mode is not None:
        # Fold in cell order (pool.map preserves it); the registry's
        # merge laws make the totals order-independent anyway.
        profile = obs.merge_profiles(
            spec.name, [cell_profile for _, cell_profile in outcomes]
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
