"""A built package carries everything the program reads at run time.

``repro.native`` compiles the C sources under ``src/repro/sim/`` at
first use, so an install that copies only the ``.py`` files loses the
compiled core without an error: every cycle-tier call then silently
takes the scalar twins.  ``setup.py build_py`` is the step a
non-editable ``pip install .`` runs to lay out the package.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_leftovers():
    """Build artefacts in the checkout (an editable install's egg-info
    included), so the test can prove it added none."""
    return {
        path.relative_to(REPO_ROOT)
        for pattern in ("build", "src/build", "*.egg-info", "src/*.egg-info")
        for path in REPO_ROOT.glob(pattern)
    }


def test_build_tree_ships_every_c_source(tmp_path):
    pytest.importorskip("setuptools")
    before = build_leftovers()
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy2(REPO_ROOT / name, checkout / name)
    shutil.copytree(
        REPO_ROOT / "src",
        checkout / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    build_lib = tmp_path / "lib"
    result = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_py",
            "--build-lib",
            str(build_lib),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    sources = sorted(
        path.relative_to(REPO_ROOT / "src")
        for path in (REPO_ROOT / "src" / "repro").rglob("*.c")
    )
    assert sources, "no C sources found under src/repro"
    shipped = sorted(
        path.relative_to(build_lib) for path in build_lib.rglob("*.c")
    )
    assert shipped == sources
    assert build_leftovers() == before
