"""Every demo runs to completion from a temporary copy."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("prefix", ["01_", "02_", "03_"])
def test_demo_runs(prefix, tmp_path):
    # the demos write their SVG files next to themselves
    (demo,) = (ROOT / "demos").glob(f"{prefix}*.py")
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
