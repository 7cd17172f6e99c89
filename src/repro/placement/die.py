"""Die floorplan: outline, hard macros and I/O pad ring.

The floorplan substitutes for the Innovus floorplanning step: it derives a
die outline from total cell area and a target utilization, places the hard
macros of the design spec (non-overlapping, biased to the die edges, as a
human floorplanner would), and distributes port pads around the periphery.
Macros matter to the reproduction because the paper's layout branch uses a
"macro cells region" feature map — macro area is unusable for timing
optimization (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist import DesignSpec, Netlist
from repro.utils import require, spawn_rng

#: Height of a placement row in µm (all standard cells are row-height).
ROW_HEIGHT = 1.0


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (µm)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def overlaps(self, other: "Rect") -> bool:
        return not (self.x1 <= other.x0 or other.x1 <= self.x0
                    or self.y1 <= other.y0 or other.y1 <= self.y0)


@dataclass
class Die:
    """Die outline with placed macros and port pad locations."""

    width: float
    height: float
    macros: List[Rect] = field(default_factory=list)
    port_positions: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    @property
    def outline(self) -> Rect:
        return Rect(0.0, 0.0, self.width, self.height)

    @property
    def n_rows(self) -> int:
        return int(self.height / ROW_HEIGHT)

    def in_macro(self, x: float, y: float) -> bool:
        return any(m.contains(x, y) for m in self.macros)

    def clamp(self, x: float, y: float,
              margin: float = 0.5) -> Tuple[float, float]:
        """Clamp a point into the placeable area (inside the outline)."""
        return (float(min(max(x, margin), self.width - margin)),
                float(min(max(y, margin), self.height - margin)))


def build_die(netlist: Netlist, spec: DesignSpec, base_seed: int = 0) -> Die:
    """Derive a floorplan for *netlist* per *spec*.

    The die is square, sized so that standard cells reach the spec's target
    utilization of the non-macro area.  Macros go to edge positions picked
    deterministically; ports are spread evenly around the periphery.
    """
    cell_area = netlist.total_cell_area()
    require(cell_area > 0, "netlist has no cells")
    # Solve for die area: util * (die_area - macro_area) = cell_area with
    # macro_area a fixed fraction of die area.
    macro_frac = sum(m.width_frac * m.height_frac for m in spec.macros)
    require(macro_frac < 0.6, "macros occupy too much of the die")
    die_area = cell_area / (spec.utilization * (1.0 - macro_frac))
    side = float(np.ceil(np.sqrt(die_area) / ROW_HEIGHT) * ROW_HEIGHT)
    die = Die(width=side, height=side)

    rng = spawn_rng(f"floorplan/{spec.name}", base_seed)
    _place_macros(die, spec, rng)
    _place_ports(die, netlist)
    return die


def _place_macros(die: Die, spec: DesignSpec,
                  rng: np.random.Generator) -> None:
    """Greedy edge-biased macro placement (corners first, no overlap)."""
    anchors = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
               (0.5, 0.0), (0.0, 0.5), (1.0, 0.5), (0.5, 1.0)]
    order = rng.permutation(len(anchors))
    used = 0
    for mspec in spec.macros:
        w = mspec.width_frac * die.width
        h = mspec.height_frac * die.height
        placed = False
        for k in range(used, len(anchors)):
            ax, ay = anchors[order[k]]
            x0 = ax * (die.width - w)
            y0 = ay * (die.height - h)
            # Snap to row grid so legalization stays simple.
            y0 = round(y0 / ROW_HEIGHT) * ROW_HEIGHT
            cand = Rect(x0, y0, x0 + w, y0 + h)
            if not any(cand.overlaps(m) for m in die.macros):
                die.macros.append(cand)
                used = k + 1
                placed = True
                break
        require(placed, f"could not place macro {mspec} without overlap")


def _place_ports(die: Die, netlist: Netlist) -> None:
    """Distribute port pads evenly around the die periphery."""
    ports = sorted(netlist.ports.values(), key=lambda p: p.name)
    n = len(ports)
    if n == 0:
        return
    perimeter = 2.0 * (die.width + die.height)
    for i, port in enumerate(ports):
        t = (i + 0.5) / n * perimeter
        if t < die.width:
            x, y = t, 0.0
        elif t < die.width + die.height:
            x, y = die.width, t - die.width
        elif t < 2 * die.width + die.height:
            x, y = 2 * die.width + die.height - t, die.height
        else:
            x, y = 0.0, perimeter - t
        die.port_positions[port.pin] = (float(x), float(y))
