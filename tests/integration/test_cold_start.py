"""Cold start: the runtime imports numpy and never scipy.

scipy is a test-only dependency (the exact morphing LP oracle).  These
checks run fresh interpreters, so whatever the test session itself has
imported cannot hide an import from ``src/repro``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.smoke

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Tiny-scenario flags (seconds, sessions), as the CLI smoke tests use.
TINY_FLAGS = [
    "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
]

#: A ``sitecustomize`` that makes every ``scipy`` import fail, in the
#: interpreter and in every worker it spawns.
BLOCK_SCIPY = '''\
import sys


class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _BlockScipy())
'''


def _python(args, pythonpath):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_runtime_imports_load_no_scipy():
    completed = _python(
        [
            "-c",
            "import sys, repro, repro.cli, repro.experiments.parallel; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ],
        [SRC],
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


class TestWithoutScipy:
    @pytest.fixture(scope="class")
    def pythonpath(self, tmp_path_factory):
        site = tmp_path_factory.mktemp("no-scipy")
        (site / "sitecustomize.py").write_text(BLOCK_SCIPY)
        return [str(site), SRC]

    def test_scipy_is_blocked(self, pythonpath):
        completed = _python(["-c", "import scipy"], pythonpath)
        assert completed.returncode != 0
        assert "No module named 'scipy'" in completed.stderr

    def test_morphing_grid_cell_runs_serially_and_spawned(self, pythonpath):
        command = ["-m", "repro", "run", "combined_grid", "--scheme", "morphing+or", *TINY_FLAGS]
        serial = _python(command, pythonpath)
        assert serial.returncode == 0, serial.stderr
        assert "morphing+or" in serial.stdout
        spawned = _python([*command, "--jobs", "2", "--start-method", "spawn"], pythonpath)
        assert spawned.returncode == 0, spawned.stderr
        assert spawned.stdout == serial.stdout
