"""The string-keyed scheme registry: one source of truth for defenses.

Every defense the repo knows — the paper's reshaping schedulers, the
byte-level baselines, the undefended original — registers here once,
with its canonical name, its typed parameter defaults, and a builder.
Experiments declare *specs* (:class:`~repro.schemes.spec.SchemeSpec`)
and the registry materializes live :class:`~repro.schemes.base.Scheme`
objects on demand, so scheme construction can never drift between the
batch tables, the streaming experiments, the CLI, and the corpus
tooling.

Seeding rules (the determinism contract):

* ``build_scheme(spec, seed)`` hands ``seed`` to the scheme's builder
  unchanged — a single registry-built scheme is bit-identical to the
  legacy hand-constructed one (``RandomReshaper(interfaces, seed)``
  etc.), which is what keeps the golden snapshots frozen across the
  refactor.
* ``build_stack(specs, seed)`` derives a **per-stage** seed,
  ``derive_seed(seed, "scheme-stack", position, name)``, so two
  stochastic stages can never alias RNG streams — not even two copies
  of the same scheme, in any order.  A one-scheme composition is the
  scheme itself (seed passed through), so ``--scheme or`` and the
  legacy single-scheme path agree exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.base import Reshaper
from repro.schemes.base import ReshaperScheme, Scheme
from repro.schemes.spec import (
    SchemeSpec,
    coerce_value,
    parse_stack,
    stack_label,
)
from repro.util.rng import derive_seed

__all__ = [
    "SchemeDefinition",
    "all_scheme_definitions",
    "build_raw",
    "build_scheme",
    "build_stack",
    "canonical_stack",
    "get_scheme",
    "register_scheme",
    "scheme_names",
]


@dataclass(frozen=True)
class SchemeDefinition:
    """How one scheme is named, parameterized, and built.

    Args:
        name: canonical registry key (lowercase).
        title: one-line description (``repro schemes list``).
        kind: ``"reshaper"`` (has an online per-packet form),
            ``"defense"`` (byte-level, batch only), or ``"identity"``.
        params: parameter defaults; values must be str/int/float/bool
            (the types CLI text and manifest JSON coerce to).
        build: ``(params, seed) -> Scheme | Reshaper`` — a scheduler
            is wrapped in a :class:`~repro.core.base.ReshaperScheme`.
        aliases: alternative lookups (the legacy table column spellings
            ``"OR"``, ``"RA"``, ... map here).
    """

    name: str
    title: str
    kind: str
    build: Callable[[dict[str, object], int], object]
    params: Mapping[str, object] = field(default_factory=dict)
    aliases: tuple[str, ...] = ()

    def resolve_params(
        self, overrides: Mapping[str, object] | None = None
    ) -> dict[str, object]:
        """Defaults merged with ``overrides``, coerced to default types."""
        resolved = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in resolved:
                known = ", ".join(sorted(resolved)) or "(none)"
                raise KeyError(
                    f"unknown parameter {key!r} for scheme {self.name!r}; "
                    f"known parameters: {known}"
                )
            resolved[key] = coerce_value(key, resolved[key], value)
        return resolved


_SCHEMES: dict[str, SchemeDefinition] = {}
_LOOKUP: dict[str, str] = {}


def register_scheme(definition: SchemeDefinition) -> SchemeDefinition:
    """Add ``definition`` to the registry; name collisions are bugs."""
    keys = (definition.name, *definition.aliases)
    for key in keys:
        folded = key.lower()
        if folded in _LOOKUP:
            raise ValueError(
                f"scheme name {key!r} is already registered "
                f"(by {_LOOKUP[folded]!r})"
            )
    _SCHEMES[definition.name] = definition
    for key in keys:
        _LOOKUP[key.lower()] = definition.name
    return definition


def get_scheme(name: str) -> SchemeDefinition:
    """Look up a scheme by canonical name or alias (case-insensitive)."""
    try:
        return _SCHEMES[_LOOKUP[str(name).lower()]]
    except KeyError:
        known = ", ".join(scheme_names()) or "(none registered)"
        raise KeyError(
            f"unknown scheme {name!r}; registered schemes: {known}"
        ) from None


def scheme_names() -> tuple[str, ...]:
    """Canonical scheme names, in registration order."""
    return tuple(_SCHEMES)


def all_scheme_definitions() -> tuple[SchemeDefinition, ...]:
    """Every registered definition, in registration order."""
    return tuple(_SCHEMES.values())


def build_raw(spec: SchemeSpec | str, seed: int = 0) -> object:
    """Build the *raw* object behind ``spec`` (a Reshaper or a Scheme).

    The streaming base-reshaper factory and the WLAN simulation want
    the unwrapped scheduler; everything else should prefer
    :func:`build_scheme`.
    """
    if isinstance(spec, str):
        spec = SchemeSpec(spec)
    definition = get_scheme(spec.scheme)
    return definition.build(definition.resolve_params(spec.param_dict()), int(seed))


def build_scheme(spec: SchemeSpec | str, seed: int = 0) -> Scheme:
    """Materialize one spec as a :class:`Scheme` (seed passed through)."""
    if isinstance(spec, str):
        spec = SchemeSpec(spec)
    built = build_raw(spec, seed)
    if isinstance(built, Reshaper):
        return ReshaperScheme(get_scheme(spec.scheme).name, built)
    return built


def canonical_stack(
    composition: str | Sequence[SchemeSpec],
) -> tuple[SchemeSpec, ...]:
    """Parse + canonicalize a composition: names folded to registry keys.

    Unknown names raise here (with the registered catalog in the
    message), so a typo'd ``--scheme pading+or`` fails before any work.
    """
    return tuple(
        SchemeSpec(get_scheme(spec.scheme).name, spec.params)
        for spec in parse_stack(composition)
    )


def build_stack(
    composition: str | Sequence[SchemeSpec],
    seed: int = 0,
) -> Scheme:
    """Materialize a composition (``"padding+or"`` or parsed specs).

    Single-scheme compositions return the scheme itself with ``seed``
    unchanged; longer stacks wrap the stages in a
    :class:`~repro.schemes.base.SchemeStack`, each stage seeded by
    ``derive_seed(seed, "scheme-stack", position, name)`` so stage
    order can never alias RNG streams.
    """
    specs = canonical_stack(composition)
    if len(specs) == 1:
        return build_scheme(specs[0], seed)
    from repro.schemes.base import SchemeStack

    stages = [
        build_scheme(
            spec, derive_seed(seed, "scheme-stack", str(position), spec.scheme)
        )
        for position, spec in enumerate(specs)
    ]
    return SchemeStack(stages, name=stack_label(specs))
