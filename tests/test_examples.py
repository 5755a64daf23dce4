"""Every script under ``examples/`` runs to completion.

The examples are the library's tutorial: each drives the public API
the way a reader would copy it, so each runs here as its own process,
with no arguments (test scale), and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]
EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_at_its_default_scale(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "TMPDIR": str(tmp_path),
    }
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
