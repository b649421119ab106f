"""The experiment registry: every table, figure, and sweep, by name.

The paper's evaluation is a grid of independent cells — {table1..table6,
fig1, fig4/5, window sweep, Sec. V experiments} × {scheme} × {window} ×
{session} — and each experiment module registers itself here with a
name, a cell decomposition, and a way to combine cell results into the
experiment's result object.  The registry is the one way to run an
experiment: the unified CLI (``repro list`` / ``repro run``), the
parallel executor (:mod:`repro.experiments.parallel`), the benchmarks
and the examples all go through it, and each experiment module's cell
functions are the single source of truth for *what* a cell computes.

Design constraints:

* **Cells are picklable.**  A cell carries plain data only
  (:class:`ScenarioParams`, strings, numbers) so it can cross a
  ``multiprocessing`` boundary under any start method.
* **Cell functions are module-level.**  Workers resolve them through
  the registry by experiment name (after importing
  :mod:`repro.experiments`), so nothing callable is ever pickled.
* **Cell order is deterministic.**  ``build_cells`` returns cells in a
  fixed order and ``combine`` receives results in that same order, so
  serial and parallel execution are structurally identical.
* **Per-cell seeds are derivation-based.**  Each cell gets
  ``derive_seed(root, "cell", experiment, cell_name)`` — a pure
  function of the root seed and the cell's name, identical no matter
  which process (or start method) runs the cell.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields

from repro.analysis.attack import PipelineKey
from repro.experiments.scenarios import EvaluationScenario, recipe_scalars
from repro.schemes.spec import SchemeSpec, specs_from_json
from repro.util.results import ExperimentResult
from repro.util.rng import derive_seed

__all__ = [
    "ExperimentCell",
    "ExperimentSpec",
    "ScenarioParams",
    "all_specs",
    "get",
    "names",
    "parse_number_list",
    "register",
    "single_cell",
    "take_only",
    "window_option",
    "windows_option",
]


def parse_number_list(text: object, cast: type = float) -> tuple:
    """Parse a comma-separated option value (``"5,60"``) into numbers.

    The shared parser behind every grid-shaped experiment option
    (window lists, interface counts, durations): splits on commas,
    ignores blank segments, and coerces with ``cast``.

    >>> parse_number_list("5, 60")
    (5.0, 60.0)
    >>> parse_number_list("2,3,5", int)
    (2, 3, 5)
    """
    values = tuple(cast(part) for part in str(text).split(",") if part.strip())
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


@dataclass(frozen=True)
class ScenarioParams:
    """Picklable recipe for an :class:`EvaluationScenario`.

    The scenario object itself owns lazily generated traces and trained
    state, so it never crosses a process boundary; workers rebuild it
    from these parameters (deterministically — same seed, same corpus)
    and memoize it per process.

    When ``corpus`` is set, the scenario hydrates from that on-disk
    :class:`~repro.storage.TraceStore` instead of regenerating traffic:
    only the path crosses the process boundary, and each worker opens
    the store read-only (memory-mapped).  The scalar fields must match
    the recipe stored in the corpus manifest — :meth:`build` verifies
    this, so a cell's derived seeds can never silently disagree with
    the traces it evaluates.  Use :meth:`for_corpus` to construct a
    matching recipe straight from a store.

    ``schemes`` is an optional defense-scheme recipe (a tuple of
    picklable :class:`~repro.schemes.SchemeSpec`) riding with the
    scenario as provenance: ``repro corpus build --scheme`` persists it
    into the manifest and :meth:`for_corpus` rehydrates it, so the
    exact defense a corpus was built for travels with the corpus.  It
    does not alter trace generation (stored traces are undefended).
    """

    seed: int = 0
    train_duration: float = 600.0
    eval_duration: float = 300.0
    train_sessions: int = 4
    eval_sessions: int = 4
    corpus: str | None = None
    schemes: tuple[SchemeSpec, ...] | None = None

    @classmethod
    def for_corpus(cls, path: str) -> "ScenarioParams":
        """The params recorded in the corpus manifest at ``path``.

        Accepts either corpus format — a single store or a shard-set
        federation — since both manifests carry the same ``scenario`` /
        ``schemes`` provenance keys.
        """
        from repro.storage import corpus_manifest

        manifest = corpus_manifest(str(path))
        recipe = manifest.get("scenario")
        if recipe is None:
            raise ValueError(
                f"corpus at {path!r} carries no scenario recipe; build it "
                "with `repro corpus build` (or EvaluationScenario.save_corpus)"
            )
        stored = manifest.get("schemes")
        return cls(
            **recipe_scalars(recipe),
            corpus=str(path),
            schemes=specs_from_json(stored) if stored else None,
        )

    def build(self) -> EvaluationScenario:
        """Materialize the scenario (hydrated from disk, or lazily generating)."""
        if self.corpus is not None:
            scenario = EvaluationScenario.from_store(self.corpus)
            mismatched = [
                (name, getattr(self, name), getattr(scenario, name))
                for name in (
                    "seed",
                    "train_duration",
                    "eval_duration",
                    "train_sessions",
                    "eval_sessions",
                )
                if getattr(self, name) != getattr(scenario, name)
            ]
            if mismatched:
                detail = ", ".join(
                    f"{name}={mine!r} vs stored {theirs!r}"
                    for name, mine, theirs in mismatched
                )
                raise ValueError(
                    f"scenario params disagree with the corpus at "
                    f"{self.corpus!r}: {detail}; use "
                    "ScenarioParams.for_corpus() to match the store"
                )
            return scenario
        return EvaluationScenario(
            seed=self.seed,
            train_duration=self.train_duration,
            eval_duration=self.eval_duration,
            train_sessions=self.train_sessions,
            eval_sessions=self.eval_sessions,
        )

    def as_dict(self) -> dict[str, object]:
        """Field name → value mapping (for artifact provenance).

        An unset ``schemes`` recipe is omitted (rather than rendered as
        ``None``) so artifacts for scheme-less runs — including the
        frozen golden snapshots — are unchanged by the field's
        existence.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["schemes"] is None:
            del out["schemes"]
        else:
            out["schemes"] = [spec.as_dict() for spec in out["schemes"]]
        return out


@dataclass(frozen=True)
class ExperimentCell:
    """One independent unit of an experiment's grid.

    Args:
        experiment: registry name of the owning experiment.
        name: stable cell label, unique within the experiment
            (``"scheme=OR"``, ``"window=5.0/scheme=Original"``).
        params: everything the cell function needs, as plain picklable
            values (includes the :class:`ScenarioParams` when the cell
            evaluates scenario traffic).
        seed: per-cell seed derived from the root seed and the cell
            name; cells that need their own randomness draw from this,
            never from shared sequential state.
    """

    experiment: str
    name: str
    params: Mapping[str, object]
    seed: int


def make_cell(
    experiment: str,
    name: str,
    params: Mapping[str, object],
    root_seed: int,
) -> ExperimentCell:
    """Build a cell with its derivation-based per-cell seed."""
    return ExperimentCell(
        experiment=experiment,
        name=name,
        params=dict(params),
        seed=derive_seed(root_seed, "cell", experiment, name),
    )


def single_cell(
    experiment: str,
    params: "ScenarioParams",
    cell_params: Mapping[str, object],
    name: str = "all",
) -> tuple[ExperimentCell, ...]:
    """Cell decomposition for experiments whose work is indivisible."""
    return (make_cell(experiment, name, cell_params, params.seed),)


def window_option(
    params: "ScenarioParams", options: dict[str, object]
) -> tuple[PipelineKey, ...]:
    """``pipelines`` of a spec whose cells use its ``window`` option."""
    return (PipelineKey(float(options["window"])),)


def windows_option(
    params: "ScenarioParams", options: dict[str, object]
) -> tuple[PipelineKey, ...]:
    """``pipelines`` of a spec whose cells use its ``windows`` list."""
    return tuple(PipelineKey(window) for window in parse_number_list(options["windows"]))


def take_only(
    params: "ScenarioParams",
    options: dict[str, object],
    results: list[object],
) -> object:
    """Combine for single-cell experiments: unwrap the one result."""
    (result,) = results
    return result


@dataclass(frozen=True)
class ExperimentSpec:
    """How one experiment decomposes, runs, and re-assembles.

    Args:
        name: CLI-facing identifier (``table2``, ``fig1``, ...).
        title: one-line human description (``repro list``).
        description: what the experiment reproduces from the paper.
        build_cells: ``(params, options) -> tuple[ExperimentCell, ...]``
            — the deterministic cell decomposition.
        run_cell: ``(cell) -> result`` — module-level, picklable-free
            (resolved via the registry inside workers); must be
            deterministic in the cell for ``deterministic`` specs.
        combine: ``(params, options, cell_results) -> result`` — folds
            per-cell results (in cell order) into the experiment's
            result object (e.g. ``AccuracyTable``), which
            :func:`~repro.experiments.parallel.run_experiment` returns.
        to_result: ``(params, options, combined) -> ExperimentResult``
            — renders the combined result as a structured artifact.
        options: experiment-specific knobs and their defaults; values
            must be str/int/float/bool.  The CLI exposes them as
            ``--set key=value`` with types coerced from the defaults.
        deterministic: False for experiments whose payload is a
            measurement of this machine (wall-clock benchmarks); those
            are excluded from the serial/parallel equivalence
            guarantee.
        pipelines: ``(params, options) -> tuple[PipelineKey, ...]`` —
            the keys whose ``shared_runner(params).pipeline(key)`` the
            cells request.  A run trains those pipelines once, in a
            stage before the cells (see
            :mod:`repro.experiments.parallel`).  ``None``: the cells
            use no trained attacker.
    """

    name: str
    title: str
    description: str
    build_cells: Callable[[ScenarioParams, dict[str, object]], tuple[ExperimentCell, ...]]
    run_cell: Callable[[ExperimentCell], object]
    combine: Callable[[ScenarioParams, dict[str, object], list[object]], object]
    to_result: Callable[[ScenarioParams, dict[str, object], object], ExperimentResult]
    options: Mapping[str, object] = field(default_factory=dict)
    deterministic: bool = True
    pipelines: (
        Callable[[ScenarioParams, dict[str, object]], tuple[PipelineKey, ...]] | None
    ) = None

    def resolve_options(self, overrides: Mapping[str, object] | None = None) -> dict[str, object]:
        """Defaults merged with ``overrides``, coerced to default types.

        Unknown keys raise so a typo'd ``--set window=5`` fails loudly
        instead of silently running the default grid.
        """
        resolved = dict(self.options)
        for key, value in (overrides or {}).items():
            if key not in resolved:
                known = ", ".join(sorted(resolved)) or "(none)"
                raise KeyError(
                    f"unknown option {key!r} for experiment {self.name!r}; "
                    f"known options: {known}"
                )
            default = resolved[key]
            if isinstance(default, bool):
                resolved[key] = _coerce_bool(value)
            elif isinstance(default, (int, float, str)):
                resolved[key] = type(default)(value)
            else:  # pragma: no cover - registration-time invariant
                raise TypeError(f"option {key!r} has unsupported default type")
        return resolved


def _coerce_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot interpret {value!r} as a boolean")


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry; duplicate names are a bug."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Look up an experiment by name (with a helpful error)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(names()) or "(none registered)"
        raise KeyError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered experiment names, in registration order."""
    return tuple(_REGISTRY)


def all_specs() -> tuple[ExperimentSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())
