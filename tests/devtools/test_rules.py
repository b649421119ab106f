"""Fixture-driven rule tests: every rule's positive and negative cases.

Each fixture under ``fixtures/`` carries ``# expect[rule-name]``
trailing markers on exactly the lines that must produce a finding;
``*_good.py`` fixtures carry none.  The harness compares the complete
``{(line, rule)}`` set per file, so a missed finding and a spurious
one fail the same test — positives and no-extras in one assertion.
"""

import re
from pathlib import Path

import pytest

from repro.devtools import all_rules, lint_file, lint_source, resolve_rules

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.glob("*.py"))

_MARKER = re.compile(r"#\s*expect\[(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\]")


def _expected(path: Path) -> set[tuple[int, str]]:
    expected: set[tuple[int, str]] = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _MARKER.search(text)
        if match is None:
            continue
        for name in match.group("rules").split(","):
            expected.add((lineno, name.strip()))
    return expected


def test_fixture_corpus_covers_every_rule():
    marked = {rule for path in FIXTURE_FILES for _line, rule in _expected(path)}
    assert marked == {rule.name for rule in all_rules()}


def test_every_rule_has_a_marker_free_negative_fixture():
    clean_stems = {p.stem for p in FIXTURE_FILES if not _expected(p)}
    assert {s for s in clean_stems if s.endswith("_good")}, clean_stems


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
def test_fixture_findings_match_markers_exactly(path):
    findings = lint_file(path)
    actual = {(finding.line, finding.rule) for finding in findings}
    assert actual == _expected(path), "\n".join(f.render() for f in findings)


class TestPathScoping:
    """Scoped rules restrict themselves only inside the repro package."""

    RNG = "import random\n\ndef jitter(width):\n    return random.random() * width\n"
    CLOCK = "import time\n\ndef stamp():\n    return time.time()\n"
    TRUSTED = "def rebuild(cls, payload):\n    return cls._trusted(payload)\n"
    SWALLOW = "def probe(fn):\n    try:\n        return fn()\n    except Exception:\n        return None\n"

    def test_global_rng_allowed_in_util_rng(self):
        rules = resolve_rules(["global-rng"])
        assert lint_source(self.RNG, rel="repro/util/rng.py", rules=rules) == []
        assert lint_source(self.RNG, rel="repro/analysis/batch.py", rules=rules)

    def test_nondeterminism_exempts_cli_and_devtools(self):
        rules = resolve_rules(["nondeterminism"])
        assert lint_source(self.CLOCK, rel="repro/cli.py", rules=rules) == []
        assert lint_source(self.CLOCK, rel="repro/devtools/lint.py", rules=rules) == []
        assert lint_source(self.CLOCK, rel="repro/stream/engine.py", rules=rules)

    def test_nondeterminism_sanctions_only_the_obs_timing_sink(self):
        # repro/obs/timing.py is the telemetry layer's single clock
        # source; every other obs module stays fully in scope.
        rules = resolve_rules(["nondeterminism"])
        assert lint_source(self.CLOCK, rel="repro/obs/timing.py", rules=rules) == []
        assert lint_source(self.CLOCK, rel="repro/obs/counters.py", rules=rules)
        assert lint_source(self.CLOCK, rel="repro/obs/spans.py", rules=rules)

    def test_trusted_allowed_only_in_invariant_preserving_modules(self):
        rules = resolve_rules(["trusted-constructor"])
        for allowed in ("repro/traffic/trace.py", "repro/storage/store.py"):
            assert lint_source(self.TRUSTED, rel=allowed, rules=rules) == []
        for flagged in ("repro/schemes/catalog.py", "repro/analysis/windows.py"):
            assert lint_source(self.TRUSTED, rel=flagged, rules=rules)

    def test_silent_except_scoped_to_io_layers(self):
        rules = resolve_rules(["silent-except"])
        assert (
            lint_source(self.SWALLOW, rel="repro/analysis/batch.py", rules=rules)
            == []
        )
        assert lint_source(self.SWALLOW, rel="repro/storage/store.py", rules=rules)
        assert lint_source(self.SWALLOW, rel="repro/traffic/io.py", rules=rules)
        assert lint_source(self.SWALLOW, rel="repro/cli.py", rules=rules)

    def test_loose_files_are_fully_in_scope(self):
        # Fixtures and ad-hoc lint targets sit outside the package tree:
        # scoped rules must still fire there, or the fixture corpus
        # could never exercise them.
        assert lint_source(self.SWALLOW, rel="scratch.py")
        assert lint_source(self.CLOCK, rel="scratch.py")

    def test_shadowed_module_names_do_not_false_positive(self):
        # `random` here is a parameter, not the stdlib module; the
        # import-map refuses to resolve unimported heads.
        source = "def pick(random, xs):\n    return random.choice(xs)\n"
        assert lint_source(source, rel="repro/analysis/batch.py") == []
