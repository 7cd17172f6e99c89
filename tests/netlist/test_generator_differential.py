"""Differential battery: the generator's draws without per-draw numpy
calls must build the same netlists, pickle for pickle.

``generate_netlist`` used to draw each gate's kind and drive with
``Generator.choice(..., p=...)`` and to scan every module's dangling-
output pool on every pick.  It now draws ``bisect_right`` on the same
normalized cumulative weights over one ``random()`` per draw, and keeps
each dangling output's module.  The frozen copy below is the old
generator; on every paper preset, at design seeds 0 and 1 and scales 0.1
and 0.35, both must pickle to the same bytes.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, PAPER_DESIGNS, generate_netlist
from repro.netlist.generator import DRIVE_WEIGHTS, GATE_MIXES, DesignSpec
from repro.netlist.netlist import IN, OUT, Netlist
from repro.utils import spawn_rng

SEEDS = (0, 1)
SCALES = (0.1, 0.35)
CASES = [(d, s, k) for d in PAPER_DESIGNS for s in SEEDS for k in SCALES]


# --- frozen: the generator before the rewrite.  Do not "modernize". ----
class _FrozenPool:
    def __init__(self) -> None:
        self._items: List[int] = []
        self._pos: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int) -> None:
        if item not in self._pos:
            self._pos[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: int) -> None:
        pos = self._pos.pop(item, None)
        if pos is None:
            return
        last = self._items.pop()
        if last != item:
            self._items[pos] = last
            self._pos[last] = pos

    def sample(self, rng) -> int:
        item = self._items[int(rng.integers(len(self._items)))]
        self.discard(item)
        return item

    def items(self) -> List[int]:
        return list(self._items)


def frozen_generate_netlist(spec: DesignSpec, base_seed: int = 0) -> Netlist:
    rng = spawn_rng(f"netlist/{spec.name}", base_seed)
    nl = Netlist(spec.name)
    mix_names = list(GATE_MIXES[spec.gate_mix])
    mix_probs = np.array([GATE_MIXES[spec.gate_mix][k] for k in mix_names])
    mix_probs = mix_probs / mix_probs.sum()
    drives = list(DRIVE_WEIGHTS)
    drive_probs = np.array([DRIVE_WEIGHTS[d] for d in drives])
    drive_probs = drive_probs / drive_probs.sum()

    n_mod = max(1, spec.n_modules)

    source_by_mod: List[List[int]] = [[] for _ in range(n_mod)]
    all_sources: List[int] = []
    for i in range(spec.n_pi):
        mod = i % n_mod
        pin = nl.add_port(f"pi_m{mod:02d}_{i:03d}", IN).pin
        source_by_mod[mod].append(pin)
        all_sources.append(pin)
    reg_cells = []
    reg_module: List[int] = []
    for i in range(spec.n_regs):
        drive = int(rng.choice([1, 2, 4], p=[0.4, 0.4, 0.2]))
        reg = nl.add_cell(f"DFF_X{drive}", name=f"reg_{i}")
        reg_cells.append(reg)
        mod = int(rng.integers(n_mod))
        reg_module.append(mod)
        source_by_mod[mod].append(reg.output_pin)
        all_sources.append(reg.output_pin)
    for pid in all_sources:
        nl.create_net(pid)

    depth = max(2, spec.max_depth)
    profile = 1.0 - 0.6 * np.arange(1, depth + 1) / depth
    profile = profile / profile.sum()
    counts = np.maximum(1, rng.multinomial(spec.n_gates, profile))

    drivers: List[List[List[int]]] = [
        [list(source_by_mod[m])] for m in range(n_mod)]
    drivers_all: List[List[int]] = [list(all_sources)]
    unused_by_mod: List[_FrozenPool] = [_FrozenPool() for _ in range(n_mod)]
    unused = _FrozenPool()

    def _discard_unused(pid: int) -> None:
        unused.discard(pid)
        for pool in unused_by_mod:
            pool.discard(pid)

    def _pool_at(module: int, lvl: int) -> List[int]:
        pool = drivers[module][lvl]
        if pool and rng.random() < spec.intra_module_prob:
            return pool
        return drivers_all[lvl] or pool

    def _pick_driver(level: int, module: int) -> int:
        if len(unused_by_mod[module]) and rng.random() < 0.30:
            pid = unused_by_mod[module].sample(rng)
            unused.discard(pid)
            return pid
        if rng.random() < spec.prev_level_bias:
            pool = _pool_at(module, level - 1)
            if pool:
                return pool[int(rng.integers(len(pool)))]
        lvl = level - 1
        while lvl > 0 and rng.random() < 0.55:
            lvl -= 1
        pool = _pool_at(module, lvl)
        while not pool:
            lvl -= 1
            pool = _pool_at(module, lvl)
        return pool[int(rng.integers(len(pool)))]

    g = 0
    for level in range(1, depth + 1):
        for m in range(n_mod):
            drivers[m].append([])
        drivers_all.append([])
        pending: List[tuple] = []
        n_here = int(counts[level - 1])
        modules_here = rng.integers(n_mod, size=n_here)
        for k in range(n_here):
            module = int(modules_here[k])
            kind = str(rng.choice(mix_names, p=mix_probs))
            drive = int(drives[int(rng.choice(len(drives), p=drive_probs))])
            inst = nl.add_cell(f"{kind}_X{drive}", name=f"g{g}")
            g += 1
            chosen: List[int] = []
            for ip in inst.input_pins:
                drv = _pick_driver(level, module)
                retries = 0
                while drv in chosen and retries < 4:
                    drv = _pick_driver(level, module)
                    retries += 1
                chosen.append(drv)
                _discard_unused(drv)
                nl.connect(nl.pins[drv].net, ip)
            nl.create_net(inst.output_pin)
            drivers[module][level].append(inst.output_pin)
            drivers_all[level].append(inst.output_pin)
            pending.append((inst.output_pin, module))
        for pid, mod in pending:
            unused.add(pid)
            unused_by_mod[mod].add(pid)

    tap_levels = [lvl for lvl in range(max(1, depth // 3), depth + 1)
                  if drivers_all[lvl]]

    def _tap_output(module: Optional[int] = None) -> int:
        for _ in range(8):
            lvl = tap_levels[int(rng.integers(len(tap_levels)))]
            pool = (drivers[module][lvl] if module is not None else None) \
                or drivers_all[lvl]
            if pool:
                pid = pool[int(rng.integers(len(pool)))]
                _discard_unused(pid)
                return pid
        if len(unused):
            pid = unused.sample(rng)
            _discard_unused(pid)
            return pid
        return drivers_all[-1][0]

    for reg, mod in zip(reg_cells, reg_module):
        nl.connect(nl.pins[_tap_output(mod)].net, reg.input_pins[0])
    for i in range(spec.n_po):
        port = nl.add_port(f"po_{i}", OUT)
        nl.connect(nl.pins[_tap_output()].net, port.pin)

    for k, pid in enumerate(sorted(unused.items())):
        port = nl.add_port(f"po_aux_{k}", OUT)
        nl.connect(nl.pins[pid].net, port.pin)

    nl.check()
    return nl


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,seed,scale", CASES)
def test_generate_netlist_matches_frozen(name, seed, scale):
    spec = DESIGN_PRESETS[name].scaled(scale)
    ours = generate_netlist(spec, seed)
    ref = frozen_generate_netlist(spec, seed)
    assert pickle.dumps(ours) == pickle.dumps(ref)
