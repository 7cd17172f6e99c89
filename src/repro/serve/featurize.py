"""Incremental re-featurization for what-if edits.

A what-if edit (gate resize, cell move) invalidates a *small, local* part
of the model's inputs:

* the feature rows of the touched nodes (``x_cell`` / ``x_net``),
* the critical-region masks of endpoints whose cached longest-level path
  passes through a pin of the touched cell,
* the density / RUDY map bins the cell's footprint and its nets' bounding
  boxes overlap (the macro channel never changes).

:class:`IncrementalFeaturizer` tracks that dirty set across edits and
refreshes only it, mutating the sample's arrays in place.  Every refresh
routes through the *same* helpers the full featurization uses
(:func:`repro.ml.features.feature_rows` /
:func:`repro.core.masking.paint_path_boxes` /
:func:`repro.placement.density.recompute_density_region` / ...), in the
same accumulation order, so an incrementally maintained sample is
**bit-for-bit identical** to one rebuilt from scratch — the invariant the
serve test-suite's differential test locks down.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.masking import paint_path_boxes
from repro.ml.features import feature_rows
from repro.netlist import Netlist
from repro.obs import get_metrics
from repro.placement import (
    Placement,
    bin_span,
    cell_extent,
    recompute_density_region,
    recompute_rudy_region,
)
from repro.timing import CELL_OUT, TimingGraph


class _DirtyRects:
    """A set of dirty bin rectangles (inclusive indices).

    Kept as a *list* of disjoint-ish rects rather than one grow-only
    union: a move across the die dirties two small footprints, and the
    union rect would cover (and force recomputing) everything between
    them.  Rects that touch or overlap are merged, so the list stays
    bounded by the edit count.  Region recomputes assign absolute
    values, so an occasional overlap between rects is just redundant
    work, never wrong.
    """

    __slots__ = ("rects",)

    def __init__(self) -> None:
        self.rects: List[Tuple[int, int, int, int]] = []

    def add(self, r0: int, r1: int, c0: int, c1: int) -> None:
        merged = (r0, r1, c0, c1)
        keep = []
        for rect in self.rects:
            if (merged[0] <= rect[1] + 1 and rect[0] <= merged[1] + 1
                    and merged[2] <= rect[3] + 1
                    and rect[2] <= merged[3] + 1):
                merged = (min(merged[0], rect[0]), max(merged[1], rect[1]),
                          min(merged[2], rect[2]), max(merged[3], rect[3]))
            else:
                keep.append(rect)
        keep.append(merged)
        self.rects = keep

    @property
    def empty(self) -> bool:
        return not self.rects

    def n_bins(self) -> int:
        return sum((r1 - r0 + 1) * (c1 - c0 + 1)
                   for r0, r1, c0, c1 in self.rects)

    def clear(self) -> None:
        self.rects = []


class IncrementalFeaturizer:
    """Keeps a sample's model inputs current across local edits.

    Owns *views* into the sample's arrays (``x_cell``, ``x_net``,
    ``masks`` and the ``layout_stack`` channels) and mutates them in
    place, so the attached :class:`~repro.ml.sample.DesignSample` is
    always up to date after :meth:`refresh`.
    """

    def __init__(self, netlist: Netlist, placement: Placement,
                 graph: TimingGraph, x_cell: np.ndarray, x_net: np.ndarray,
                 masks: np.ndarray, paths: List[List[Tuple[int, int]]],
                 layout_stack: np.ndarray, map_bins: int) -> None:
        self.netlist = netlist
        self.placement = placement
        self.graph = graph
        self.x_cell = x_cell
        self.x_net = x_net
        self.masks = masks
        self.paths = paths
        self.map_bins = map_bins
        # layout_stack is (3, M, N); rows are views, so writing through
        # density/rudy below updates the sample's stack directly.
        self.density = layout_stack[0]
        self.rudy = layout_stack[1]
        self.mask_side = int(round(np.sqrt(masks.shape[1])))

        #: pin id -> endpoint indices whose cached path touches that pin.
        self._endpoints_of_pin: Dict[int, Set[int]] = {}
        for k, edges in enumerate(paths):
            for drv, snk in edges:
                self._endpoints_of_pin.setdefault(drv, set()).add(k)
                self._endpoints_of_pin.setdefault(snk, set()).add(k)

        self._dirty_cell_nodes: Set[int] = set()
        self._dirty_net_nodes: Set[int] = set()
        self._dirty_endpoints: Set[int] = set()
        self._dirty_density = _DirtyRects()
        self._dirty_rudy = _DirtyRects()

    # ------------------------------------------------------------------
    # Dirty marking.  mark_cell_region must be called both BEFORE and
    # AFTER the mutation, so old and new geometry are both invalidated.
    # ------------------------------------------------------------------
    def mark_cell_region(self, cid: int, moved: bool = False) -> None:
        """Mark the map bins covered by a cell's current geometry."""
        m = self.map_bins
        die = self.placement.die
        bin_w = die.width / m
        bin_h = die.height / m
        x0, x1, y0, y1 = cell_extent(self.netlist, self.placement, cid)
        r0, r1 = bin_span(x0, x1, m, bin_w)
        c0, c1 = bin_span(y0, y1, m, bin_h)
        self._dirty_density.add(r0, r1, c0, c1)
        if not moved:
            return
        # RUDY: the bounding boxes of every net touching the cell.
        nl = self.netlist
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            nid = nl.pins[pid].net
            if nid is None:
                continue
            net = nl.nets[nid]
            pts = self.placement.pin_positions(
                nl, [net.driver] + list(net.sinks))
            bx0, by0 = pts.min(axis=0)
            bx1, by1 = pts.max(axis=0)
            r0, r1 = bin_span(bx0, bx1, m, bin_w)
            c0, c1 = bin_span(by0, by1, m, bin_h)
            self._dirty_rudy.add(r0, r1, c0, c1)

    def mark_resize(self, cid: int) -> None:
        """Feature rows invalidated by resizing *cid* (geometry aside).

        The cell's own x_cell row changes (drive, caps, est. delay); its
        input pin caps change, which alters the loads — and therefore the
        x_cell rows — of the cells driving it, plus the x_net rows (sink
        cap, wire delay) of the resized cell's own input-pin nodes.
        """
        nl = self.netlist
        node_of = self.graph.node_of
        inst = nl.cells[cid]
        out_node = node_of[inst.output_pin]
        # Sequential outputs are SOURCE nodes: their x_cell row stays
        # zero in the full featurization, so it must stay zero here too.
        if self.graph.kind[out_node] == CELL_OUT:
            self._dirty_cell_nodes.add(out_node)
        for ip in inst.input_pins:
            self._dirty_net_nodes.add(node_of[ip])
            nid = nl.pins[ip].net
            if nid is None:
                continue
            drv_node = node_of[nl.nets[nid].driver]
            if self.graph.kind[drv_node] == CELL_OUT:
                self._dirty_cell_nodes.add(drv_node)

    def mark_move(self, cid: int) -> None:
        """Feature rows and masks invalidated by moving *cid*.

        Every net touching the cell changes geometry: the driven net's
        sinks all see a new distance (x_net rows), the feeding nets only
        at the moved cell's own input pins; each such net's driver sees a
        new estimated load (x_cell row).  Endpoint masks are dirty where
        the cached critical path crosses one of the cell's pins.
        """
        nl = self.netlist
        node_of = self.graph.node_of
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            self._dirty_endpoints.update(self._endpoints_of_pin.get(pid, ()))
            nid = nl.pins[pid].net
            if nid is None:
                continue
            net = nl.nets[nid]
            drv_node = node_of[net.driver]
            if self.graph.kind[drv_node] == CELL_OUT:
                self._dirty_cell_nodes.add(drv_node)
            if pid == inst.output_pin:
                for sp in net.sinks:
                    self._dirty_net_nodes.add(node_of[sp])
            else:
                self._dirty_net_nodes.add(node_of[pid])

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute everything marked dirty, in place, then clear."""
        nl, pl, g = self.netlist, self.placement, self.graph
        dirty = self._dirty_cell_nodes | self._dirty_net_nodes
        if dirty:
            nodes = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            cell_rows, cell_nodes, net_rows, net_nodes = feature_rows(
                nl, pl, g, nodes)
            assert len(cell_nodes) + len(net_nodes) == len(nodes)
            self.x_cell[cell_nodes] = cell_rows
            self.x_net[net_nodes] = net_rows
        if self._dirty_endpoints:
            rows = sorted(self._dirty_endpoints)
            self.masks[rows] = paint_path_boxes(
                nl, pl, [self.paths[k] for k in rows],
                self.mask_side, self.mask_side)
        for r0, r1, c0, c1 in self._dirty_density.rects:
            recompute_density_region(nl, pl, self.density, r0, r1, c0, c1)
        for r0, r1, c0, c1 in self._dirty_rudy.rects:
            recompute_rudy_region(nl, pl, self.rudy, r0, r1, c0, c1)

        metrics = get_metrics()
        metrics.histogram("serve.featurize.dirty_rows").observe(
            len(self._dirty_cell_nodes) + len(self._dirty_net_nodes))
        metrics.histogram("serve.featurize.dirty_masks").observe(
            len(self._dirty_endpoints))
        metrics.histogram("serve.featurize.dirty_bins").observe(
            self._dirty_density.n_bins() + self._dirty_rudy.n_bins())
        self._dirty_cell_nodes.clear()
        self._dirty_net_nodes.clear()
        self._dirty_endpoints.clear()
        self._dirty_density.clear()
        self._dirty_rudy.clear()
