"""Import-time smoke tests: the suite collects cleanly, the simulator needs no numpy.

The seed repo shipped four test modules that failed at import time because
``from conftest import small_system`` resolved to ``benchmarks/conftest.py``.
This regression test runs collection in a clean subprocess so any future
import-time breakage (shadowed modules, syntax errors, missing deps) fails
one obvious test instead of silently truncating the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the repo root with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )


def test_suite_collects_without_errors():
    completed = _run_python("-m", "pytest", "--collect-only", "-q")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = completed.stdout.strip().splitlines()[-1]
    assert "collected" in summary and "error" not in summary.lower(), summary


def test_simulator_imports_do_not_load_numpy():
    """The simulator, engine, scenario API and every fabric are pure Python.

    Importing numpy would cost start-up time and resident memory in every
    worker process of a sweep for nothing the model uses.
    """
    completed = _run_python(
        "-c",
        "import sys\n"
        "import repro.chip.chip, repro.experiments.engine, repro.scenarios, "
        "repro.fabrics.chiplet\n"
        "print('numpy' in sys.modules)\n",
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False", "the simulator imported numpy"
