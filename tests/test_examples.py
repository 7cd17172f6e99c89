"""Every example script runs to completion.

Each example runs as its docstring shows (``python examples/<name>.py``),
in a fresh interpreter whose working directory is an empty temporary
directory, and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: ``train_and_predict`` builds the whole training split and trains the
#: full model for 60 epochs: over two minutes on a 2-vCPU host, too slow
#: to run on every change.
SLOW = {"train_and_predict"}


@pytest.mark.parametrize("name", sorted(
    path.stem for path in EXAMPLES.glob("*.py") if path.stem not in SLOW))
def test_example_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(EXAMPLES / f"{name}.py")],
                         cwd=tmp_path, capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-4000:]
