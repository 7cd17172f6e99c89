"""Seeded synthetic gate-level netlist generation.

Stands in for the paper's "Chipyard + GitHub RTL synthesized with Cadence
Genus" design source (see DESIGN.md).  Each of the paper's ten benchmarks has
a preset here with a scaled-down size and a characteristic *shape*:

* ``depth_bias`` controls how deep combinational cones grow (the paper
  reports fan-in cone depths from 2 to 400+; ours span roughly 4–80);
* the gate mix controls how much structure-destructed optimization the
  design attracts (e.g. ``chacha`` is XOR/wide-gate heavy, which is why the
  paper observes it being restructured the most aggressively).

Generation is fully deterministic given the design name and base seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import IN, OUT, Netlist
from repro.obs import get_tracer
from repro.utils import require, spawn_rng

#: Gate-kind sampling weights.  ``default`` approximates a mapped control /
#: datapath mix; ``xor_heavy`` mimics cryptographic cores (chacha, sha3);
#: ``wide`` mimics decoder-rich CPU logic.
GATE_MIXES: Dict[str, Dict[str, float]] = {
    "default": {
        "INV": 0.16, "BUF": 0.04, "NAND2": 0.18, "NOR2": 0.12, "AND2": 0.10,
        "OR2": 0.08, "XOR2": 0.05, "XNOR2": 0.03, "NAND3": 0.06, "NOR3": 0.04,
        "AND3": 0.03, "OR3": 0.02, "AOI21": 0.04, "OAI21": 0.03, "MUX2": 0.05,
        "NAND4": 0.03, "AND4": 0.02, "OR4": 0.02,
    },
    "xor_heavy": {
        "INV": 0.08, "BUF": 0.02, "NAND2": 0.08, "NOR2": 0.06, "AND2": 0.07,
        "OR2": 0.06, "XOR2": 0.24, "XNOR2": 0.10, "NAND3": 0.04, "NOR3": 0.03,
        "AND3": 0.04, "OR3": 0.03, "AOI21": 0.03, "OAI21": 0.02, "MUX2": 0.06,
        "NAND4": 0.04, "AND4": 0.05, "OR4": 0.05,
    },
    "wide": {
        "INV": 0.10, "BUF": 0.03, "NAND2": 0.12, "NOR2": 0.08, "AND2": 0.08,
        "OR2": 0.06, "XOR2": 0.04, "XNOR2": 0.02, "NAND3": 0.09, "NOR3": 0.06,
        "AND3": 0.06, "OR3": 0.04, "AOI21": 0.05, "OAI21": 0.04, "MUX2": 0.06,
        "NAND4": 0.06, "AND4": 0.05, "OR4": 0.06,
    },
}

#: Drive-strength sampling weights for generated gates (synthesis output is
#: dominated by small drives; the optimizer upsizes later).
DRIVE_WEIGHTS: Dict[int, float] = {1: 0.55, 2: 0.30, 4: 0.12, 8: 0.03}


@dataclass(frozen=True)
class MacroSpec:
    """A hard macro (e.g. an SRAM block): fractions of the die it occupies."""

    width_frac: float
    height_frac: float


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of one synthetic benchmark design."""

    name: str
    n_gates: int
    n_regs: int
    n_pi: int
    n_po: int
    gate_mix: str = "default"
    max_depth: int = 48          # deepest combinational level (paper: 2..400+)
    prev_level_bias: float = 0.6  # probability an input taps the level just above
    #: RTL-style modularity: gates belong to modules and draw inputs mostly
    #: from their own module, so placement clusters each module into its own
    #: die region and endpoint fan-in cones stay spatially localized (the
    #: property that makes the paper's critical-region masking meaningful).
    n_modules: int = 8
    intra_module_prob: float = 0.85
    clock_frac: float = 0.72     # clock period as a fraction of pre-opt max arrival
    utilization: float = 0.55    # placement target utilization
    macros: Tuple[MacroSpec, ...] = ()
    split: str = "train"         # which half of the paper's dataset it is in

    def scaled(self, scale: float) -> "DesignSpec":
        """A proportionally smaller copy (used by fast tests)."""
        require(scale > 0, "scale must be positive")
        return DesignSpec(
            name=self.name,
            n_gates=max(30, int(self.n_gates * scale)),
            n_regs=max(4, int(self.n_regs * scale)),
            n_pi=max(4, int(self.n_pi * scale)),
            n_po=max(4, int(self.n_po * scale)),
            gate_mix=self.gate_mix,
            max_depth=max(6, int(self.max_depth * min(1.0, scale * 2))),
            prev_level_bias=self.prev_level_bias,
            n_modules=max(2, min(self.n_modules, int(self.n_gates * scale) // 60)),
            intra_module_prob=self.intra_module_prob,
            clock_frac=self.clock_frac,
            utilization=self.utilization,
            macros=self.macros,
            split=self.split,
        )


#: The ten benchmarks of the paper's Table I, scaled to CPU-trainable sizes,
#: plus scale-tier presets (``split="bench"``) that exercise the partitioned
#: execution path and are excluded from the paper's train/test protocol.
#: Train/test split matches the paper (5 train / 5 test).
DESIGN_PRESETS: Dict[str, DesignSpec] = {
    "jpeg": DesignSpec("jpeg", 6500, 450, 64, 64, "default", 64,
                       macros=(MacroSpec(0.22, 0.30), MacroSpec(0.18, 0.22)),
                       split="train"),
    "rocket": DesignSpec("rocket", 5000, 550, 48, 48, "wide", 56,
                         macros=(MacroSpec(0.25, 0.25),), split="train"),
    "smallboom": DesignSpec("smallboom", 5000, 650, 48, 48, "wide", 56,
                            macros=(MacroSpec(0.20, 0.28),), split="train"),
    "steelcore": DesignSpec("steelcore", 1000, 90, 32, 32, "default", 36,
                            macros=(MacroSpec(0.22, 0.22),), split="train"),
    "xgate": DesignSpec("xgate", 800, 64, 24, 24, "default", 28,
                        macros=(MacroSpec(0.20, 0.20),), split="train"),
    "arm9": DesignSpec("arm9", 1600, 130, 32, 32, "wide", 44,
                       macros=(MacroSpec(0.24, 0.20),), split="test"),
    "chacha": DesignSpec("chacha", 1300, 110, 64, 64, "xor_heavy", 52,
                         macros=(MacroSpec(0.20, 0.24),), split="test"),
    "hwacha": DesignSpec("hwacha", 7500, 620, 64, 64, "wide", 64,
                         macros=(MacroSpec(0.24, 0.26), MacroSpec(0.16, 0.20)),
                         split="test"),
    "or1200": DesignSpec("or1200", 7000, 950, 48, 48, "default", 60,
                         macros=(MacroSpec(0.28, 0.24),), split="test"),
    "sha3": DesignSpec("sha3", 6000, 520, 64, 64, "xor_heavy", 56,
                       macros=(MacroSpec(0.18, 0.18),), split="test"),
    # Scale tier: ≥100k timing-graph pins.  Exists to stress partitioned
    # featurization/inference (benchmarks/bench_partition.py) — not part
    # of the paper's benchmark suite, so split="bench" keeps it out of
    # default dataset builds, Table 1, and the train/test tuples.
    "large": DesignSpec("large", 30000, 2400, 256, 256, "wide", 96,
                        n_modules=24,
                        macros=(MacroSpec(0.24, 0.28), MacroSpec(0.18, 0.20)),
                        split="bench"),
}

TRAIN_DESIGNS: Tuple[str, ...] = tuple(
    n for n, s in DESIGN_PRESETS.items() if s.split == "train")
TEST_DESIGNS: Tuple[str, ...] = tuple(
    n for n, s in DESIGN_PRESETS.items() if s.split == "test")
#: The paper's Table-I designs — every preset except scale-tier ones.
PAPER_DESIGNS: Tuple[str, ...] = TRAIN_DESIGNS + TEST_DESIGNS


class _IndexedPool:
    """A set supporting O(1) add/discard/uniform-sample (swap-pop list)."""

    def __init__(self) -> None:
        self._items: List[int] = []
        self._pos: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._pos

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

    def sample(self, rng: np.random.Generator) -> int:
        """Remove and return a uniformly random item."""
        item = self._items[rng.integers(len(self._items))]
        self.discard(item)
        return item

    def items(self) -> List[int]:
        return list(self._items)


def _cdf(weights: Sequence[float]) -> List[float]:
    """The normalized cumulative weights ``Generator.choice(p=...)`` draws on.

    ``choice`` with *p* takes one ``random()`` per draw and returns
    ``searchsorted(cdf, u, side="right")`` on exactly this ``cdf``, so
    ``bisect_right(cdf, rng.random())`` makes the same choice from the
    same stream.
    """
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_netlist(spec: DesignSpec, base_seed: int = 0) -> Netlist:
    """Generate a reproducible synthetic netlist for *spec*.

    Construction is explicitly levelized: each gate is assigned a logic
    level in ``1..max_depth`` (more gates at shallow levels, tapering with
    depth, like a mapped datapath), and draws its inputs from strictly
    shallower drivers — mostly the level right above, which produces long
    sensitizable paths while keeping the overall depth bounded.  Register
    D pins and primary outputs tap drivers across the upper levels, so
    endpoint fan-in cone depths vary widely (the paper reports 2..400+).

    Records one ``netlist.generate`` span (design, cells, pins).
    """
    with get_tracer().span("netlist.generate", design=spec.name) as sp:
        nl = _generate(spec, base_seed)
        sp.set(cells=len(nl.cells), pins=len(nl.pins))
    return nl


def _generate(spec: DesignSpec, base_seed: int) -> Netlist:
    rng = spawn_rng(f"netlist/{spec.name}", base_seed)
    # Weighted draws are ``bisect_right(cdf, random())`` (see _cdf); lists
    # are indexed with the drawn numpy integer as it is, since converting
    # it with int() would cost as much as the draw.
    random = rng.random
    integers = rng.integers
    nl = Netlist(spec.name)
    mix = GATE_MIXES[spec.gate_mix]
    mix_names = list(mix)
    mix_probs = np.array([mix[k] for k in mix_names])
    mix_cdf = _cdf(mix_probs / mix_probs.sum())
    drives = list(DRIVE_WEIGHTS)
    drive_probs = np.array([DRIVE_WEIGHTS[d] for d in drives])
    drive_cdf = _cdf(drive_probs / drive_probs.sum())
    reg_drives = (1, 2, 4)
    reg_cdf = _cdf([0.4, 0.4, 0.2])

    n_mod = max(1, spec.n_modules)
    intra_prob = spec.intra_module_prob
    prev_bias = spec.prev_level_bias

    # Sources: primary inputs and register Q outputs, all at level 0, each
    # assigned to a module (round-robin for ports, uniform for registers).
    source_by_mod: List[List[int]] = [[] for _ in range(n_mod)]
    all_sources: List[int] = []
    for i in range(spec.n_pi):
        mod = i % n_mod
        # The module id leads the name: ports are padded around the die in
        # name order, so one module's pads land on a contiguous arc and the
        # placer pulls the whole module into that region.
        pin = nl.add_port(f"pi_m{mod:02d}_{i:03d}", IN).pin
        source_by_mod[mod].append(pin)
        all_sources.append(pin)
    reg_cells = []
    reg_module: List[int] = []
    for i in range(spec.n_regs):
        drive = reg_drives[bisect_right(reg_cdf, random())]
        reg = nl.add_cell(f"DFF_X{drive}", name=f"reg_{i}")
        reg_cells.append(reg)
        mod = int(integers(n_mod))
        reg_module.append(mod)
        source_by_mod[mod].append(reg.output_pin)
        all_sources.append(reg.output_pin)
    for pid in all_sources:
        nl.create_net(pid)

    # Gates per level: tapering profile, at least one gate per level.
    depth = max(2, spec.max_depth)
    profile = 1.0 - 0.6 * np.arange(1, depth + 1) / depth
    profile = profile / profile.sum()
    counts = np.maximum(1, rng.multinomial(spec.n_gates, profile)).tolist()

    # drivers[mod][level] -> output pins of that module at that level;
    # drivers_all[level] -> all output pins at that level.
    drivers: List[List[List[int]]] = [
        [list(source_by_mod[m])] for m in range(n_mod)]
    drivers_all: List[List[int]] = [list(all_sources)]
    # Dangling outputs: every one is in ``unused`` and in its module's
    # pool; ``unused_module`` maps it to that module.
    unused_by_mod: List[_IndexedPool] = [_IndexedPool() for _ in range(n_mod)]
    unused = _IndexedPool()
    unused_module: Dict[int, int] = {}

    def _discard_unused(pid: int) -> None:
        mod = unused_module.pop(pid, None)
        if mod is not None:
            unused.discard(pid)
            unused_by_mod[mod].discard(pid)

    def _pool_at(module: int, lvl: int) -> List[int]:
        """Module pool at a level, falling back to the global pool."""
        pool = drivers[module][lvl]
        if pool and random() < intra_prob:
            return pool
        return drivers_all[lvl] or pool

    def _pick_driver(level: int, module: int) -> int:
        """Choose a driver pin strictly below *level*, module-biased."""
        # Bias 1: reuse a dangling output (same module) so few wires dangle.
        dangling = unused_by_mod[module]
        if len(dangling) and random() < 0.30:
            pid = dangling.sample(rng)
            _discard_unused(pid)
            return pid
        # Bias 2: the level right above (grows sensitizable depth).
        if random() < prev_bias:
            pool = _pool_at(module, level - 1)
            if pool:
                return pool[integers(len(pool))]
        # Otherwise: geometric hop upward through shallower levels.
        lvl = level - 1
        while lvl > 0 and random() < 0.55:
            lvl -= 1
        pool = _pool_at(module, lvl)
        while not pool:  # only possible for empty intermediate levels
            lvl -= 1
            pool = _pool_at(module, lvl)
        return pool[integers(len(pool))]

    pins = nl.pins
    g = 0
    for level in range(1, depth + 1):
        for m in range(n_mod):
            drivers[m].append([])
        level_all: List[int] = []
        drivers_all.append(level_all)
        pending: List[tuple] = []  # (pin, module) join `unused` at level end
        n_here = counts[level - 1]
        modules_here = integers(n_mod, size=n_here).tolist()
        for module in modules_here:
            kind = mix_names[bisect_right(mix_cdf, random())]
            drive = drives[bisect_right(drive_cdf, random())]
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
                nl.connect(pins[drv].net, ip)
            out = inst.output_pin
            nl.create_net(out)
            drivers[module][level].append(out)
            level_all.append(out)
            pending.append((out, module))
        for pid, mod in pending:
            unused.add(pid)
            unused_by_mod[mod].add(pid)
            unused_module[pid] = mod

    # Wire register D inputs and primary outputs: tap drivers across the
    # upper two thirds of the levels so cone depths vary endpoint to
    # endpoint.  Registers tap their own module so the cone stays local.
    tap_levels = [lvl for lvl in range(max(1, depth // 3), depth + 1)
                  if drivers_all[lvl]]

    def _tap_output(module: Optional[int] = None) -> int:
        for _ in range(8):
            lvl = tap_levels[integers(len(tap_levels))]
            pool = (drivers[module][lvl] if module is not None else None) \
                or drivers_all[lvl]
            if pool:
                pid = pool[integers(len(pool))]
                _discard_unused(pid)
                return pid
        if len(unused):
            pid = unused.sample(rng)
            _discard_unused(pid)
            return pid
        return drivers_all[-1][0]

    for reg, mod in zip(reg_cells, reg_module):
        nl.connect(pins[_tap_output(mod)].net, reg.input_pins[0])
    for i in range(spec.n_po):
        port = nl.add_port(f"po_{i}", OUT)
        nl.connect(pins[_tap_output()].net, port.pin)

    # Any still-dangling outputs become auxiliary primary outputs (a real
    # synthesis flow would have swept them; keeping them preserves the DAG).
    for k, pid in enumerate(sorted(unused.items())):
        port = nl.add_port(f"po_aux_{k}", OUT)
        nl.connect(pins[pid].net, port.pin)

    nl.check()
    return nl


def generate_preset(name: str, base_seed: int = 0,
                    scale: Optional[float] = None) -> Netlist:
    """Generate one of the ten named benchmark designs."""
    require(name in DESIGN_PRESETS, f"unknown design {name!r}; "
            f"choose from {sorted(DESIGN_PRESETS)}")
    spec = DESIGN_PRESETS[name]
    if scale is not None:
        spec = spec.scaled(scale)
    return generate_netlist(spec, base_seed)
