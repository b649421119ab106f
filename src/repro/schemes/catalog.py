"""The built-in scheme catalog + the paper's default constants.

Single source of truth for the defense configurations the paper
evaluates.  Before this module existed, ``interfaces=3``, the FH
channel plan, and the padding target were re-spelled in every
experiment module; now tables, figures, streaming experiments, and the
CLI all read the same registered defaults, and a configuration change
lands everywhere at once.
"""

from __future__ import annotations

from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.defenses.base import DefendedTraffic, FusedPlan, Scheme
from repro.defenses.morphing import TrafficMorphing
from repro.defenses.padding import PacketPadding
from repro.defenses.pseudonym import PseudonymDefense
from repro.schemes.base import IdentityScheme
from repro.schemes.registry import SchemeDefinition, get_scheme, register_scheme
from repro.schemes.spec import SchemeSpec
from repro.traffic.apps import AppType
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.util.rng import derive_seed

__all__ = [
    "DEFAULT_INTERFACES",
    "FH_CHANNELS",
    "FH_DWELL_SECONDS",
    "LEGACY_SCHEME_SPECS",
    "PAD_TO_BYTES",
    "PAPER_INTERFACE_COUNTS",
    "PAPER_WINDOWS",
    "legacy_scheme_spec",
]

# ----------------------------------------------------------------------
# The paper's defaults (Sec. IV), consolidated.
# ----------------------------------------------------------------------

#: Virtual interfaces per station — "generally I = 3 ... is enough"
#: (Table V's conclusion; the default everywhere).
DEFAULT_INTERFACES = 3

#: Interface counts swept by Table V.
PAPER_INTERFACE_COUNTS = (2, 3, 5)

#: Eavesdropping windows of Tables II/III (and Table IV's two columns).
PAPER_WINDOWS = (5.0, 60.0)

#: FH hops over the non-overlapping 2.4 GHz channels with a 500 ms
#: dwell (footnote 2).
FH_CHANNELS = (1, 6, 11)
FH_DWELL_SECONDS = 0.5

#: Padding target: "we pad all the packets to the maximum packet size
#: (i.e., 1576 bytes)" (Sec. IV-D).
PAD_TO_BYTES = MAX_PACKET_SIZE


def _parse_int_tuple(text: object, what: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in str(text).split(",") if part.strip())
    if not values:
        raise ValueError(f"{what} must be a comma-separated list of ints, got {text!r}")
    return values


# ----------------------------------------------------------------------
# Morphing as a registered (picklable-recipe) scheme
# ----------------------------------------------------------------------


class MorphTowardApp(Scheme):
    """Morph a flow toward a *generated* target application's sizes.

    The registered form of :class:`~repro.defenses.morphing.TrafficMorphing`:
    instead of carrying a target :class:`~repro.traffic.trace.Trace`
    (not spec-representable), it names a target application and
    generates a reference capture for it deterministically from the
    scheme seed — so the recipe ``(target, target_duration, seed)``
    fully reproduces the defense anywhere.

    The capture is generated at construction, so its ``traffic.*``
    counts land wherever the scheme is built (a memoized build counts
    them in ``proc.*``), never inside whichever trace's apply runs
    first.
    """

    name = "morphing"

    def __init__(
        self,
        target: str,
        target_duration: float = 60.0,
        morph_all: bool = False,
        seed: int = 0,
    ):
        from repro.traffic.generator import TrafficGenerator

        target_trace = TrafficGenerator(
            seed=derive_seed(int(seed), "scheme", "morphing-target")
        ).generate(AppType(target), duration=float(target_duration))
        self._morpher = TrafficMorphing(
            target_trace=target_trace,
            morph_all_packets=bool(morph_all),
            seed=derive_seed(int(seed), "scheme", "morphing"),
        )

    def transform(self, trace) -> DefendedTraffic:
        return self._morpher.transform(trace)

    def fused_plan_columns(self, times, sizes, directions, label) -> FusedPlan:
        return self._morpher.fused_plan_columns(times, sizes, directions, label)


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

register_scheme(
    SchemeDefinition(
        name="original",
        title="Undefended traffic — the attacker's best case",
        kind="identity",
        build=lambda params, seed: IdentityScheme(),
        aliases=("none", "Original"),
    )
)

register_scheme(
    SchemeDefinition(
        name="fh",
        title="Frequency hopping over channels 1/6/11, 500 ms dwell (footnote 2)",
        kind="reshaper",
        params={
            "channels": ",".join(str(c) for c in FH_CHANNELS),
            "dwell": FH_DWELL_SECONDS,
        },
        build=lambda params, seed: FrequencyHoppingScheduler(
            channels=_parse_int_tuple(params["channels"], "channels"),
            dwell=float(params["dwell"]),
        ),
        aliases=("FH",),
    )
)

register_scheme(
    SchemeDefinition(
        name="ra",
        title="Random Algorithm — uniform random interface per packet",
        kind="reshaper",
        params={"interfaces": DEFAULT_INTERFACES},
        build=lambda params, seed: RandomReshaper(
            interfaces=int(params["interfaces"]), seed=seed
        ),
        aliases=("RA", "random"),
    )
)

register_scheme(
    SchemeDefinition(
        name="rr",
        title="Round-Robin — packet k to interface k mod I, per direction",
        kind="reshaper",
        params={"interfaces": DEFAULT_INTERFACES},
        build=lambda params, seed: RoundRobinReshaper(
            interfaces=int(params["interfaces"])
        ),
        aliases=("RR", "roundrobin"),
    )
)


def _build_or(params: dict[str, object], seed: int) -> OrthogonalReshaper:
    boundaries = str(params["boundaries"]).strip()
    if boundaries:
        return OrthogonalReshaper.from_boundaries(
            _parse_int_tuple(boundaries, "boundaries")
        )
    return OrthogonalReshaper.paper_default(interfaces=int(params["interfaces"]))


register_scheme(
    SchemeDefinition(
        name="or",
        title="Orthogonal Reshaping by size ranges (the paper's default)",
        kind="reshaper",
        params={"interfaces": DEFAULT_INTERFACES, "boundaries": ""},
        build=_build_or,
        aliases=("OR", "orthogonal"),
    )
)

register_scheme(
    SchemeDefinition(
        name="modulo",
        title="OR by size modulo: i = L(s_k) mod I (Fig. 5)",
        kind="reshaper",
        params={"interfaces": DEFAULT_INTERFACES},
        build=lambda params, seed: ModuloReshaper(
            interfaces=int(params["interfaces"])
        ),
        aliases=("Modulo",),
    )
)

register_scheme(
    SchemeDefinition(
        name="padding",
        title="Pad data-direction packets to l_max = 1576 B (Sec. IV-D)",
        kind="defense",
        params={"pad_to": PAD_TO_BYTES, "both_directions": False},
        build=lambda params, seed: PacketPadding(
            pad_to=int(params["pad_to"]),
            pad_both_directions=bool(params["both_directions"]),
        ),
    )
)

register_scheme(
    SchemeDefinition(
        name="pseudonym",
        title="Periodic MAC pseudonym changes (Sec. II-B baseline)",
        kind="defense",
        params={"epoch": 300.0},
        build=lambda params, seed: PseudonymDefense(epoch=float(params["epoch"])),
    )
)

register_scheme(
    SchemeDefinition(
        name="morphing",
        title="Traffic morphing toward a generated target app (Wright et al.)",
        kind="defense",
        params={"target": "gaming", "target_duration": 60.0, "morph_all": False},
        build=lambda params, seed: MorphTowardApp(
            target=str(params["target"]),
            target_duration=float(params["target_duration"]),
            morph_all=bool(params["morph_all"]),
            seed=seed,
        ),
    )
)


#: The five schemes of Tables II/III, in column order, as registry
#: specs.  The table experiments and the streaming experiments derive
#: their scheme columns from this single table.
LEGACY_SCHEME_SPECS: tuple[tuple[str, str], ...] = (
    ("Original", "original"),
    ("FH", "fh"),
    ("RA", "ra"),
    ("RR", "rr"),
    ("OR", "or"),
)


def legacy_scheme_spec(
    name: str, interfaces: int = DEFAULT_INTERFACES
) -> SchemeSpec:
    """The registry spec behind a legacy table column name.

    ``name`` may be a display spelling (``"OR"``) or a canonical key;
    interface-parameterized schedulers get ``interfaces`` stamped into
    the spec (FH and the byte-level defenses ignore it).
    """
    canonical = get_scheme(name).name
    if canonical in ("ra", "rr", "or", "modulo"):
        return SchemeSpec(canonical, (("interfaces", int(interfaces)),))
    return SchemeSpec(canonical)


# Self-check: every legacy display name resolves (catches alias drift
# at import time, where it is cheapest to diagnose).
def _verify_catalog() -> None:
    for display, canonical in LEGACY_SCHEME_SPECS:
        assert get_scheme(display).name == canonical, (display, canonical)


_verify_catalog()
