import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

#: A scenario small enough to run every workload in about a second.
SMALL = {"train_duration": 60.0, "eval_duration": 45.0, "train_sessions": 2, "eval_sessions": 2}


@pytest.fixture
def run_small(tmp_path):
    """Run a workload in-process at the small scale, optionally traced."""
    from repro.experiments import parallel

    import workload

    counter = itertools.count()

    def run(name: str, tracer=None, seed: int = 0) -> dict:
        # Cold per-process caches, as in a fresh interpreter.
        parallel.clear_worker_state()
        work_dir = tmp_path / f"{name}-{next(counter)}"
        work_dir.mkdir()
        return workload.run(name, seed, str(work_dir), tracer, scale=SMALL)

    yield run
    parallel.clear_worker_state()
