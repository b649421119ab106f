"""The composable defense-scheme pipeline.

One abstraction for every defense the repo evaluates:

* :class:`Scheme` — trace in, :class:`~repro.defenses.base.DefendedTraffic`
  out, with overhead + handshake accounting attached (defined in
  :mod:`repro.defenses.base`, re-exported here); the byte-level
  baselines are schemes, and :class:`ReshaperScheme` adapts any
  :class:`~repro.core.base.Reshaper`.
* :class:`SchemeStack` — chains schemes (``padding+or+fh``), fanning
  each stage over the previous stage's observable flows and rolling
  per-stage accounting up into one report.
* :class:`SchemeSpec` — the picklable recipe (registry name + typed
  params) that travels through experiment cells, ``ScenarioParams``,
  and the corpus manifest; :func:`build_stack` materializes recipes.
* the registry (:func:`register_scheme` / :func:`get_scheme` /
  :func:`scheme_names`) with the built-in catalog
  (:mod:`repro.schemes.catalog`) — the single source of truth for the
  paper's scheme defaults (``DEFAULT_INTERFACES``, FH channel plan,
  padding target...).

See ``docs/architecture.md`` ("The scheme pipeline") for composition
semantics and the determinism model.
"""

from repro.defenses.base import FusedPlan, StageOverhead
from repro.schemes.base import (
    IdentityScheme,
    ReshaperScheme,
    Scheme,
    SchemeStack,
)
from repro.schemes.catalog import (
    DEFAULT_INTERFACES,
    FH_CHANNELS,
    FH_DWELL_SECONDS,
    LEGACY_SCHEME_SPECS,
    PAD_TO_BYTES,
    PAPER_INTERFACE_COUNTS,
    PAPER_WINDOWS,
    MorphTowardApp,
    legacy_scheme_spec,
)
from repro.schemes.registry import (
    SchemeDefinition,
    all_scheme_definitions,
    build_raw,
    build_scheme,
    build_stack,
    canonical_stack,
    get_scheme,
    register_scheme,
    scheme_names,
)
from repro.schemes.spec import (
    SchemeSpec,
    parse_stack,
    specs_from_json,
    specs_to_json,
    stack_label,
)

__all__ = [
    "DEFAULT_INTERFACES",
    "FH_CHANNELS",
    "FH_DWELL_SECONDS",
    "FusedPlan",
    "IdentityScheme",
    "LEGACY_SCHEME_SPECS",
    "MorphTowardApp",
    "PAD_TO_BYTES",
    "PAPER_INTERFACE_COUNTS",
    "PAPER_WINDOWS",
    "ReshaperScheme",
    "Scheme",
    "SchemeDefinition",
    "SchemeSpec",
    "SchemeStack",
    "StageOverhead",
    "all_scheme_definitions",
    "build_raw",
    "build_scheme",
    "build_stack",
    "canonical_stack",
    "get_scheme",
    "legacy_scheme_spec",
    "parse_stack",
    "register_scheme",
    "scheme_names",
    "specs_from_json",
    "specs_to_json",
    "stack_label",
]
