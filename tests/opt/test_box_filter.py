"""The optimizer's 3x3 free-space smoothing against scipy.

:func:`repro.opt.optimizer.box_mean3` replaced
``scipy.ndimage.uniform_filter(size=3, mode="nearest")`` so the runtime
no longer imports scipy.  scipy stays the oracle here: every comparison
is ``np.array_equal``, because the layout gate thresholds the smoothed
map and one flipped ulp can flip an accepted move.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.flow import FlowConfig, StagedFlow
from repro.netlist import DESIGN_PRESETS
from repro.opt import optimizer as optimizer_mod
from repro.config import OptimizerConfig

ndimage = pytest.importorskip("scipy.ndimage")


def _oracle(a: np.ndarray) -> np.ndarray:
    return ndimage.uniform_filter(a, size=3, mode="nearest")


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1),
                                   (2, 2), (3, 3), (32, 32), (64, 17)])
def test_box_mean3_matches_scipy_on_edge_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.random(shape)
    assert np.array_equal(optimizer_mod.box_mean3(a), _oracle(a))


def test_box_mean3_matches_scipy_on_random_grids():
    rng = np.random.default_rng(2023)
    for _ in range(500):
        m, n = (int(v) for v in rng.integers(1, 71, size=2))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        a = rng.random((m, n)) * scale
        assert np.array_equal(optimizer_mod.box_mean3(a), _oracle(a)), \
            (m, n, scale)


def test_box_mean3_matches_scipy_on_every_preset_free_space(monkeypatch):
    """The maps the optimizer really smooths: every preset's placed
    layout, through ``TimingOptimizer``'s own free-space refresh."""
    seen = []
    real = optimizer_mod.box_mean3

    def recording(free):
        seen.append(free)
        return real(free)

    monkeypatch.setattr(optimizer_mod, "box_mean3", recording)
    config = FlowConfig(scale=0.1)
    for spec in DESIGN_PRESETS.values():
        flow = StagedFlow(spec.scaled(0.1), config)
        gen = flow.generate()
        placed = flow.place(gen)
        optimizer_mod.TimingOptimizer(gen.netlist.clone(), placed.placement,
                                      OptimizerConfig())
    assert len(seen) == len(DESIGN_PRESETS)
    for name, free in zip(DESIGN_PRESETS, seen):
        assert free.dtype == np.float64
        assert np.array_equal(real(free), _oracle(free)), name


def test_runtime_imports_leave_scipy_out():
    code = ("import sys, repro.cli, repro.flow, repro.serve; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[]"
