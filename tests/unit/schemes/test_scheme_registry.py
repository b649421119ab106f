"""The scheme registry: lookup, parameter typing, legacy equivalence."""

import numpy as np
import pytest

from repro.core.base import Reshaper
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    OrthogonalReshaper,
    RandomReshaper,
)
from repro.defenses.padding import PacketPadding
from repro.schemes import (
    DEFAULT_INTERFACES,
    LEGACY_SCHEME_SPECS,
    SchemeDefinition,
    SchemeSpec,
    all_scheme_definitions,
    build_raw,
    build_scheme,
    get_scheme,
    legacy_scheme_spec,
    register_scheme,
    scheme_names,
)
from repro.schemes.base import IdentityScheme, ReshaperScheme
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def trace():
    return TrafficGenerator(seed=11).generate(AppType.BITTORRENT, duration=20.0)


class TestLookup:
    def test_catalog_is_registered(self):
        assert set(scheme_names()) >= {
            "original", "fh", "ra", "rr", "or", "modulo",
            "padding", "pseudonym", "morphing",
        }

    def test_lookup_is_case_insensitive_with_aliases(self):
        assert get_scheme("OR") is get_scheme("or")
        assert get_scheme("Original").name == "original"
        assert get_scheme("RoundRobin").name == "rr"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="registered schemes"):
            get_scheme("nosuch")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(
                SchemeDefinition(
                    name="shadow",
                    title="",
                    kind="identity",
                    build=lambda params, seed: IdentityScheme(),
                    aliases=("OR",),
                )
            )
        assert "shadow" not in scheme_names()  # rejected atomically

    def test_definitions_expose_metadata(self):
        for definition in all_scheme_definitions():
            assert definition.kind in ("reshaper", "defense", "identity")
            assert definition.title


class TestParams:
    def test_defaults_resolve(self):
        assert get_scheme("or").resolve_params()["interfaces"] == DEFAULT_INTERFACES

    def test_overrides_are_coerced_to_default_types(self):
        resolved = get_scheme("or").resolve_params({"interfaces": "5"})
        assert resolved["interfaces"] == 5
        assert isinstance(resolved["interfaces"], int)
        resolved = get_scheme("padding").resolve_params({"both_directions": "yes"})
        assert resolved["both_directions"] is True

    def test_unknown_param_raises(self):
        with pytest.raises(KeyError, match="known parameters"):
            get_scheme("or").resolve_params({"windows": 5})

    def test_bad_value_raises_with_param_name(self):
        with pytest.raises(ValueError, match="interfaces"):
            get_scheme("or").resolve_params({"interfaces": "many"})
        with pytest.raises(ValueError, match="both_directions"):
            get_scheme("padding").resolve_params({"both_directions": "maybe"})


class TestBuild:
    def test_build_raw_returns_legacy_objects(self):
        assert isinstance(build_raw("ra", seed=3), RandomReshaper)
        assert isinstance(build_raw("fh"), FrequencyHoppingScheduler)
        assert isinstance(build_raw(SchemeSpec("or")), OrthogonalReshaper)
        assert isinstance(build_raw("padding"), PacketPadding)

    def test_build_scheme_wraps_by_kind(self):
        assert isinstance(build_scheme("original"), IdentityScheme)
        assert isinstance(build_scheme("or"), ReshaperScheme)
        assert isinstance(build_scheme("padding"), PacketPadding)

    def test_registry_ra_matches_legacy_construction(self, trace):
        ours = build_raw(SchemeSpec("ra", (("interfaces", 3),)), seed=9)
        legacy = RandomReshaper(interfaces=3, seed=9)
        np.testing.assert_array_equal(
            ours.assign_columns(trace.times, trace.sizes, trace.directions),
            legacy.assign_columns(trace.times, trace.sizes, trace.directions),
        )

    def test_or_boundaries_param(self):
        reshaper = build_raw(SchemeSpec("or", (("boundaries", "525,1050,1576"),)))
        assert reshaper.boundaries == (525, 1050, 1576)

    def test_fh_ignores_interfaces_like_legacy(self):
        assert build_raw(legacy_scheme_spec("FH", interfaces=5)).interfaces == 3


class TestLegacySpecs:
    def test_display_names_cover_the_table_columns(self):
        assert tuple(d for d, _ in LEGACY_SCHEME_SPECS) == (
            "Original", "FH", "RA", "RR", "OR",
        )

    def test_legacy_spec_stamps_interfaces_on_schedulers(self):
        assert legacy_scheme_spec("OR", 5).param_dict() == {"interfaces": 5}
        assert legacy_scheme_spec("ra").param_dict() == {
            "interfaces": DEFAULT_INTERFACES
        }
        assert legacy_scheme_spec("Original").param_dict() == {}

    def test_runner_builds_table_columns_from_the_registry(self):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.scenarios import SCHEME_NAMES, EvaluationScenario

        runner = ExperimentRunner(EvaluationScenario(seed=2))
        schemes = {
            name: runner.scheme(legacy_scheme_spec(name, 5)) for name in SCHEME_NAMES
        }
        assert isinstance(schemes["Original"], IdentityScheme)
        for name in SCHEME_NAMES[1:]:
            assert isinstance(schemes[name].reshaper, Reshaper)
        assert schemes["OR"].reshaper.interfaces == 5
