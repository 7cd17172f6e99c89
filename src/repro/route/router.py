"""Congestion-aware global routing (Innovus routing stand-in).

A two-phase pattern router over a GCell grid:

1. **Demand phase** — every driver→sink connection is routed as one of the
   two L-shapes (the one through the currently less-used corner region),
   accumulating horizontal/vertical track usage per GCell.
2. **Detour phase** — with the final usage picture, every connection is
   charged a detour proportional to the overflow it crosses, emulating the
   wirelength growth rip-up-and-reroute produces in congested regions.

The result is a :class:`~repro.timing.rc.RoutedLengths` provider for
sign-off STA: routed lengths equal the Manhattan estimate in empty regions
and stretch where the placement is congested — which is exactly the
pre-route-invisible effect the paper's model must absorb (together with a
small deterministic detailed-routing jitter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.placement import Placement
from repro.timing import RoutedLengths
from repro.utils import require, seed_from_name


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the global router."""

    gcell_um: float = 4.0        # GCell edge length
    #: Track capacity per GCell edge, as a multiple of the average demand
    #: (lower → more overflow → more detours).
    capacity_headroom: float = 2.0
    #: Detour wirelength per unit of overflow crossed, in µm per GCell.
    detour_per_overflow: float = 3.0
    #: Amplitude of the deterministic detailed-routing jitter (fraction of
    #: the routed length).
    jitter: float = 0.02
    seed: int = 0


@dataclass
class RoutingResult:
    """Routed lengths plus the congestion picture."""

    lengths: RoutedLengths
    h_usage: np.ndarray          # (gx, gy) horizontal track usage
    v_usage: np.ndarray          # (gx, gy) vertical track usage
    capacity: float              # tracks per GCell edge
    total_wirelength: float = 0.0
    total_detour: float = 0.0

    @property
    def overflow_fraction(self) -> float:
        """Fraction of GCell edges over capacity."""
        over = ((self.h_usage > self.capacity).sum()
                + (self.v_usage > self.capacity).sum())
        return float(over) / (self.h_usage.size + self.v_usage.size)

    def congestion_map(self) -> np.ndarray:
        """Per-GCell max(H, V) utilization."""
        return np.maximum(self.h_usage, self.v_usage) / max(self.capacity, 1e-9)


def route(netlist: Netlist, placement: Placement,
          config: Optional[RouterConfig] = None) -> RoutingResult:
    """Globally route every net of a placed netlist."""
    config = config or RouterConfig()
    die = placement.die
    gx = max(2, int(np.ceil(die.width / config.gcell_um)))
    gy = max(2, int(np.ceil(die.height / config.gcell_um)))
    h_usage = np.zeros((gx, gy))
    v_usage = np.zeros((gx, gy))

    def gbin(x: float, y: float) -> Tuple[int, int]:
        return (int(min(max(x / config.gcell_um, 0), gx - 1)),
                int(min(max(y / config.gcell_um, 0), gy - 1)))

    # Collect all (driver, sink) connections with geometry, shortest first
    # (short connections take the direct path; long ones see congestion).
    conns = []
    for net in netlist.nets.values():
        dx, dy = placement.pin_position(netlist, net.driver)
        for sp in net.sinks:
            sx, sy = placement.pin_position(netlist, sp)
            manhattan = abs(dx - sx) + abs(dy - sy)
            conns.append((manhattan, net.driver, sp, dx, dy, sx, sy))
    conns.sort(key=lambda c: (c[0], c[1], c[2]))

    # --- Phase 1: L-shape routing with corner selection by usage.
    paths = []  # (driver, sink, manhattan, h_cells, v_cells)
    for manhattan, drv, snk, x0, y0, x1, y1 in conns:
        (i0, j0), (i1, j1) = gbin(x0, y0), gbin(x1, y1)
        ilo, ihi = min(i0, i1), max(i0, i1)
        jlo, jhi = min(j0, j1), max(j0, j1)
        # Candidate A: horizontal at j0 then vertical at i1.
        # Candidate B: vertical at i0 then horizontal at j1.
        cost_a = h_usage[ilo:ihi + 1, j0].sum() + v_usage[i1, jlo:jhi + 1].sum()
        cost_b = v_usage[i0, jlo:jhi + 1].sum() + h_usage[ilo:ihi + 1, j1].sum()
        if cost_a <= cost_b:
            h_cells = (slice(ilo, ihi + 1), j0)
            v_cells = (i1, slice(jlo, jhi + 1))
        else:
            h_cells = (slice(ilo, ihi + 1), j1)
            v_cells = (i0, slice(jlo, jhi + 1))
        h_usage[h_cells] += 1.0
        v_usage[v_cells] += 1.0
        paths.append((drv, snk, manhattan, h_cells, v_cells))

    # --- Capacity calibration: headroom over the average demand.
    demand = np.concatenate([h_usage.ravel(), v_usage.ravel()])
    mean_demand = float(demand.mean())
    capacity = max(1.0, config.capacity_headroom * mean_demand)

    # --- Phase 2: charge detours where the path crosses overflow.
    h_over = np.maximum(0.0, h_usage / capacity - 1.0)
    v_over = np.maximum(0.0, v_usage / capacity - 1.0)
    rng_base = seed_from_name(f"route/{netlist.name}", config.seed)
    lengths = RoutedLengths()
    total_wl = 0.0
    total_detour = 0.0
    for drv, snk, manhattan, h_cells, v_cells in paths:
        overflow = float(h_over[h_cells].sum() + v_over[v_cells].sum())
        detour = config.detour_per_overflow * overflow * config.gcell_um
        # Deterministic detailed-routing jitter in [-jitter, +jitter].
        h = (rng_base ^ (drv * 0x9E3779B1) ^ (snk * 0x85EBCA77)) & 0xFFFFFFFF
        jit = (h / 0xFFFFFFFF * 2.0 - 1.0) * config.jitter
        routed = (manhattan + detour) * (1.0 + jit)
        lengths.set_length(drv, snk, routed)
        total_wl += routed
        total_detour += detour
    return RoutingResult(lengths=lengths, h_usage=h_usage, v_usage=v_usage,
                         capacity=capacity, total_wirelength=total_wl,
                         total_detour=total_detour)
