"""Global placement: iterative net-centroid optimization with spreading.

Substitutes for Innovus placement.  The algorithm is a classic
quadratic-style placer: alternating net-centroid / cell-centroid updates
(equivalent to damped Jacobi sweeps on the star-model Laplacian, anchored by
the fixed I/O pads), interleaved with density-gradient spreading passes, a
macro push-out, and finally row legalization (:mod:`repro.placement.legalize`).

The output :class:`Placement` is the coordinate source for everything
downstream: wire-length estimation, the density/RUDY/macro feature maps, the
layout-gated optimizer, and the router.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.placement.die import Die
from repro.utils import require, spawn_rng


@dataclass
class Placement:
    """Cell coordinates on a die (cell centers, µm)."""

    die: Die
    cell_xy: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def position(self, cid: int) -> Tuple[float, float]:
        return self.cell_xy[cid]

    def set_position(self, cid: int, x: float, y: float) -> None:
        """Place (or move) a cell, clamped into the die."""
        self.cell_xy[cid] = self.die.clamp(x, y)

    def pin_position(self, netlist: Netlist, pid: int) -> Tuple[float, float]:
        """Position of a pin: its cell's center, or its pad for port pins."""
        pin = netlist.pins[pid]
        if pin.cell is None:
            return self.die.port_positions[pid]
        return self.cell_xy[pin.cell]

    def pin_positions(self, netlist: Netlist,
                      pids: List[int]) -> np.ndarray:
        """Positions of many pins as an (n, 2) array, (0, 2) for none."""
        return np.array([self.pin_position(netlist, p) for p in pids],
                        dtype=float).reshape(-1, 2)

    def net_hpwl(self, netlist: Netlist, nid: int) -> float:
        """Half-perimeter wirelength of one net."""
        net = netlist.nets[nid]
        pts = self.pin_positions(netlist, [net.driver] + list(net.sinks))
        return float((pts[:, 0].max() - pts[:, 0].min())
                     + (pts[:, 1].max() - pts[:, 1].min()))

    def total_hpwl(self, netlist: Netlist) -> float:
        return sum(self.net_hpwl(netlist, nid) for nid in netlist.nets)


@dataclass(frozen=True)
class PlacerConfig:
    """Tuning knobs of the global placer."""

    n_iterations: int = 60
    damping: float = 0.55
    spread_every: int = 8
    spread_strength: float = 1.4
    spread_bins: int = 32
    seed: int = 0


def place(netlist: Netlist, die: Die,
          config: Optional[PlacerConfig] = None) -> Placement:
    """Run global placement + legalization for *netlist* on *die*."""
    config = config or PlacerConfig()
    require(len(netlist.cells) > 0, "cannot place an empty netlist")
    rng = spawn_rng(f"place/{netlist.name}", config.seed)

    cell_ids = sorted(netlist.cells)
    index = {cid: i for i, cid in enumerate(cell_ids)}
    n_cells = len(cell_ids)

    # Star-model incidence: (cell, net) membership pairs plus fixed-pad
    # contributions per net.
    net_ids = sorted(netlist.nets)
    net_index = {nid: j for j, nid in enumerate(net_ids)}
    pair_cell: List[int] = []
    pair_net: List[int] = []
    fixed_sum = np.zeros((len(net_ids), 2))
    fixed_cnt = np.zeros(len(net_ids))
    for nid in net_ids:
        net = netlist.nets[nid]
        j = net_index[nid]
        members = set()
        for pid in [net.driver] + list(net.sinks):
            pin = netlist.pins[pid]
            if pin.cell is None:
                fixed_sum[j] += die.port_positions[pid]
                fixed_cnt[j] += 1
            else:
                members.add(index[pin.cell])
        for ci in members:
            pair_cell.append(ci)
            pair_net.append(j)
    pair_cell_arr = np.asarray(pair_cell, dtype=np.int64)
    pair_net_arr = np.asarray(pair_net, dtype=np.int64)
    net_members = np.bincount(pair_net_arr, minlength=len(net_ids)) + fixed_cnt
    cell_degree = np.bincount(pair_cell_arr, minlength=n_cells).astype(float)
    cell_degree[cell_degree == 0] = 1.0

    xy = np.column_stack([
        rng.uniform(0.1 * die.width, 0.9 * die.width, n_cells),
        rng.uniform(0.1 * die.height, 0.9 * die.height, n_cells),
    ])

    for it in range(config.n_iterations):
        # Net centroids from current cell positions and fixed pads.
        net_sum = fixed_sum.copy()
        np.add.at(net_sum, pair_net_arr, xy[pair_cell_arr])
        centroid = net_sum / net_members[:, None]
        # Cell update: mean of incident-net centroids, damped.
        cell_sum = np.zeros_like(xy)
        np.add.at(cell_sum, pair_cell_arr, centroid[pair_net_arr])
        target = cell_sum / cell_degree[:, None]
        xy = (1 - config.damping) * xy + config.damping * target
        if (it + 1) % config.spread_every == 0:
            # Spreading strength ramps up: early iterations favour the
            # wirelength objective, late iterations favour legality.
            blend = 0.25 + 0.45 * (it + 1) / config.n_iterations
            xy = _spread_by_ranks(xy, die, blend)
        xy[:, 0] = np.clip(xy[:, 0], 0.5, die.width - 0.5)
        xy[:, 1] = np.clip(xy[:, 1], 0.5, die.height - 0.5)

    # Finish with a spreading step: ending on quadratic pulls would re-clump
    # the cells and leave no room for the timing optimizer to work with
    # (placement must reserve space for optimization - Section II-A).
    xy = _spread_by_ranks(xy, die, blend=0.6)
    xy = _density_warp(xy, die, netlist.name, config.seed)
    xy = _push_out_of_macros(xy, die)
    placement = Placement(die=die)
    for cid, pos in zip(cell_ids, xy):
        placement.set_position(cid, float(pos[0]), float(pos[1]))
    return placement


def _spread_by_ranks(xy: np.ndarray, die: Die, blend: float) -> np.ndarray:
    """Rank-based spreading: map cells to a uniform grid by coordinate rank.

    Cells are sorted into equal-count columns by x, then into equal-count
    rows by y within each column.  The resulting target positions cover the
    die uniformly while preserving the relative ordering (and hence the
    neighbourhoods) found by the quadratic iterations.  ``blend`` mixes the
    uniform target into the current position.
    """
    n = len(xy)
    n_cols = max(1, int(np.ceil(np.sqrt(n))))
    per_col = int(np.ceil(n / n_cols))
    target = np.empty_like(xy)
    order_x = np.argsort(xy[:, 0], kind="stable")
    for c in range(n_cols):
        members = order_x[c * per_col:(c + 1) * per_col]
        if len(members) == 0:
            continue
        tx = (c + 0.5) / n_cols * die.width
        rows = members[np.argsort(xy[members, 1], kind="stable")]
        ty = (np.arange(len(rows)) + 0.5) / len(rows) * die.height
        target[rows, 0] = tx
        target[rows, 1] = ty
    return (1 - blend) * xy + blend * target


def _density_warp(xy: np.ndarray, die: Die, name: str,
                  seed: int) -> np.ndarray:
    """Warp coordinates through a smooth random density profile.

    Real floorplans pack some regions much more tightly than others (hard
    IP neighbourhoods, channel regions, ...), and regional utilization is
    what decides how much room the timing optimizer has (Section II-A).
    Uniform spreading erases that structure, so we reintroduce it with a
    deterministic, design-seeded monotone warp per axis: cells in
    "compressed" intervals end up locally dense, cells in "stretched"
    intervals get generous whitespace.  The warp is order-preserving, so
    module locality from the quadratic iterations is retained.
    """
    rng = spawn_rng(f"density-warp/{name}", seed)
    out = xy.copy()
    for axis, span in ((0, die.width), (1, die.height)):
        k = 6
        weights = rng.uniform(0.45, 2.2, size=k)
        edges = np.linspace(0.0, span, k + 1)
        # CDF of the density profile: warped = F^{-1}(u) compresses where
        # the weight is high.
        cum = np.concatenate([[0.0], np.cumsum(1.0 / weights)])
        cum = cum / cum[-1] * span
        u = np.clip(out[:, axis] / span, 0.0, 1.0)
        out[:, axis] = np.interp(u * span, edges, cum)
    return out


def _push_out_of_macros(xy: np.ndarray, die: Die) -> np.ndarray:
    """Project any cell inside a macro to the nearest macro edge."""
    out = xy.copy()
    for m in die.macros:
        inside = ((out[:, 0] > m.x0) & (out[:, 0] < m.x1)
                  & (out[:, 1] > m.y0) & (out[:, 1] < m.y1))
        if not inside.any():
            continue
        idx = np.where(inside)[0]
        for i in idx:
            x, y = out[i]
            # Try the four edges nearest-first; skip targets that the die
            # boundary would clamp straight back into the macro (macros
            # flush with the die edge).
            candidates = sorted([
                (x - m.x0, (m.x0 - 0.5, y)),
                (m.x1 - x, (m.x1 + 0.5, y)),
                (y - m.y0, (x, m.y0 - 0.5)),
                (m.y1 - y, (x, m.y1 + 0.5)),
            ])
            for _, (nx, ny) in candidates:
                cx, cy = die.clamp(nx, ny)
                if not m.contains(cx, cy):
                    out[i] = (cx, cy)
                    break
    return out
