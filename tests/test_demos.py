"""Every demo script runs to completion against the library in ``src``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SRC_DIR

DEMOS = sorted((SRC_DIR.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    # A copy, so files a demo writes next to itself land in tmp_path.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert proc.returncode == 0, proc.stderr
