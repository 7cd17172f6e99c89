"""Incremental STA for parameter-only edits (sizing, cell moves).

Commercial optimizers re-time after every trial move; re-running full STA
each time wastes work when the edit is local.  For edits that keep the
graph *topology* intact — gate resizing and placement moves —
:class:`IncrementalSTA` updates the static electrical data only where it
changed and re-propagates arrival/slew only from the lowest topological
level an edit can influence, reusing everything above it.  The result is
bit-identical to a fresh :func:`repro.timing.sta.run_sta` (verified in the
test suite).

Structural edits (buffering, decomposition, cloning) change the node set
and require :meth:`IncrementalSTA.rebuild`, which builds a new graph.
Sizing and moves never touch the graph, so a caller that already holds
the netlist's graph (a serving session) passes it in and shares it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_metrics, get_tracer
from repro.placement import Placement
from repro.timing.graph import NET_SINK, TimingGraph, build_timing_graph
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import (
    PreRouteEstimator,
    WireLengthProvider,
    edge_lengths,
)
from repro.timing.sta import (
    PI_INPUT_SLEW,
    SLEW_WIRE_FACTOR,
    STAResult,
    _argmax_per_dst,
    _pin_statics,
)


class IncrementalSTA:
    """Keeps an up-to-date :class:`STAResult` across local edits."""

    def __init__(self, netlist: Netlist, placement: Placement,
                 clock_period: float,
                 wires: Optional[WireLengthProvider] = None,
                 graph: Optional[TimingGraph] = None) -> None:
        self.netlist = netlist
        self.placement = placement
        self.clock_period = clock_period
        self.wires = wires or PreRouteEstimator(netlist, placement)
        self.partial_updates = 0
        self.full_rebuilds = 0
        self._dirty: Set[int] = set()
        #: The netlist's timing graph: *graph* when given (read only
        #: here), else built.  Only :meth:`rebuild` replaces it.
        self.graph: TimingGraph = (graph if graph is not None
                                   else build_timing_graph(netlist))
        self._build()

    # ------------------------------------------------------------------
    # Construction / static state
    # ------------------------------------------------------------------
    def _build(self) -> None:
        g = self.graph
        nl = self.netlist
        self._nldm = batch_nldm_for(nl.library)
        n = g.n_nodes
        self._po_pins = {p.pin for p in nl.primary_outputs()}

        self._pin_cap = np.zeros(n)
        self._out_type = np.zeros(n, dtype=np.int64)
        self._refresh_static(np.arange(n))

        self._edge_of_sink = g.net_edge_of_sink
        self._wire_len = edge_lengths(self.wires, g.pin_ids[g.net_edge_src],
                                      g.pin_ids[g.net_edge_dst])
        self._recompute_wire_terms()
        self._cell_delay = np.zeros(len(g.cell_edge_src))
        self._arrival = np.full(n, -np.inf)
        self._slew = np.full(n, PI_INPUT_SLEW)
        self._best_pred = np.full(n, -1, dtype=np.int64)
        self._init_sources()
        self._sweep(start_level=1)
        self.result = self._package()

    def _refresh_static(self, nodes) -> None:
        """Re-read the pin caps and output cell types of *nodes*."""
        nodes = np.asarray(nodes, dtype=np.int64)
        caps, outs, types = _pin_statics(
            self.netlist, self.netlist.library, self._nldm,
            self.graph.pin_ids[nodes].tolist(), self._po_pins)
        self._pin_cap[nodes] = caps
        self._out_type[nodes[outs]] = types

    def _recompute_wire_terms(self) -> None:
        g = self.graph
        w = self.netlist.library.wire
        self._wire_delay = w.resistance(self._wire_len) * (
            0.5 * w.capacitance(self._wire_len)
            + self._pin_cap[g.net_edge_dst])
        self._load = np.zeros(g.n_nodes)
        np.add.at(self._load, g.net_edge_src,
                  self._pin_cap[g.net_edge_dst]
                  + w.capacitance(self._wire_len))

    def _init_sources(self) -> None:
        g, nl = self.graph, self.netlist
        for node, pid in zip(g.startpoints.tolist(),
                             g.pin_ids[g.startpoints].tolist()):
            pin = nl.pins[pid]
            if pin.cell is None:
                self._arrival[node] = 0.0
            else:
                ctype = nl.library.cell(nl.cells[pin.cell].type_name)
                self._arrival[node] = ctype.clk_to_q
            self._slew[node] = PI_INPUT_SLEW
        lonely = (g.level == 0) & (self._arrival == -np.inf)
        self._arrival[lonely] = 0.0

    # ------------------------------------------------------------------
    # Edit notifications
    # ------------------------------------------------------------------
    def resize_cell(self, cid: int, new_type_name: str) -> None:
        """Change a cell's drive in place and mark the affected cone.

        A resize changes (a) the cell's arc delays and (b) its input pin
        caps, which alter the loads and wire delays of the driving nets —
        so the fan-in drivers' arcs change too.
        """
        nl = self.netlist
        inst = nl.cells[cid]
        nl.change_cell_type(cid, new_type_name)
        node_of = self.graph.node_of
        out_node = node_of[inst.output_pin]
        self._refresh_static([out_node]
                             + [node_of[ip] for ip in inst.input_pins])
        self._dirty.add(out_node)
        for ip in inst.input_pins:
            net_id = nl.pins[ip].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            self._dirty.add(node_of[net.driver])
            for sp in net.sinks:
                self._dirty.add(node_of[sp])

    def move_cell(self, cid: int, x: float, y: float) -> None:
        """Move a cell; all nets touching it change wire lengths."""
        nl = self.netlist
        self.placement.set_position(cid, x, y)
        node_of = self.graph.node_of
        g = self.graph
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            net_id = nl.pins[pid].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            drv_node = node_of[net.driver]
            self._dirty.add(drv_node)
            for sp in net.sinks:
                sink_node = node_of[sp]
                edge = self._edge_of_sink[sink_node]
                self._wire_len[edge] = self.wires.length(net.driver, sp)
                self._dirty.add(sink_node)

    def rebuild(self) -> STAResult:
        """Full rebuild on a new graph (required after structural
        netlist edits)."""
        self._dirty.clear()
        self.full_rebuilds += 1
        with get_tracer().span("sta.rebuild", design=self.netlist.name):
            self.graph = build_timing_graph(self.netlist)
            self._build()
        get_metrics().counter("sta.incremental.full_rebuilds").inc()
        return self.result

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(self) -> STAResult:
        """Re-propagate from the lowest dirty level; returns fresh result."""
        if not self._dirty:
            return self.result
        start = max(1, int(min(self.graph.level[v] for v in self._dirty)))
        with get_tracer().span("sta.refresh", design=self.netlist.name,
                               start_level=start):
            self._recompute_wire_terms()
            self._sweep(start_level=start)
            self.result = self._package()
        self._dirty.clear()
        self.partial_updates += 1
        metrics = get_metrics()
        metrics.counter("sta.incremental.partial").inc()
        metrics.histogram("sta.incremental.start_level").observe(start)
        return self.result

    def _sweep(self, start_level: int) -> None:
        g = self.graph
        e_src = g.net_edge_src
        c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
        for lvl in range(start_level, g.n_levels):
            nodes = g.levels[lvl]
            sinks = nodes[g.kind[nodes] == NET_SINK]
            if len(sinks):
                edges = self._edge_of_sink[sinks]
                src = e_src[edges]
                self._arrival[sinks] = (self._arrival[src]
                                        + self._wire_delay[edges])
                self._slew[sinks] = (self._slew[src] + SLEW_WIRE_FACTOR
                                     * self._wire_delay[edges])
                self._best_pred[sinks] = src
            mask = g.level[c_dst] == lvl
            if mask.any():
                src = c_src[mask]
                dst = c_dst[mask]
                d, s_out = self._nldm.lookup(self._out_type[dst],
                                             self._slew[src],
                                             self._load[dst])
                self._cell_delay[mask] = d
                self._arrival[dst] = -np.inf
                cand = self._arrival[src] + d
                np.maximum.at(self._arrival, dst, cand)
                sel = _argmax_per_dst(cand, dst, self._arrival)
                self._slew[dst[sel]] = s_out[sel]
                self._best_pred[dst[sel]] = src[sel]

    # ------------------------------------------------------------------
    def _package(self) -> STAResult:
        g, nl = self.graph, self.netlist
        endpoint_arrival: Dict[int, float] = {}
        endpoint_slack: Dict[int, float] = {}
        required = np.full(g.n_nodes, np.inf)
        for node, pid in zip(g.endpoints.tolist(),
                             g.pin_ids[g.endpoints].tolist()):
            pin = nl.pins[pid]
            setup = 0.0
            if pin.cell is not None:
                setup = nl.library.cell(
                    nl.cells[pin.cell].type_name).setup_time
            endpoint_arrival[pid] = float(self._arrival[node])
            endpoint_slack[pid] = float(self.clock_period - setup
                                        - self._arrival[node])
            required[node] = self.clock_period - setup

        e_src = g.net_edge_src
        c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
        for lvl in range(g.n_levels - 1, 0, -1):
            nodes = g.levels[lvl]
            sinks = nodes[g.kind[nodes] == NET_SINK]
            if len(sinks):
                edges = self._edge_of_sink[sinks]
                np.minimum.at(required, e_src[edges],
                              required[sinks] - self._wire_delay[edges])
            mask = g.level[c_dst] == lvl
            if mask.any():
                np.minimum.at(required, c_src[mask],
                              required[c_dst[mask]]
                              - self._cell_delay[mask])

        return STAResult(
            graph=g,
            clock_period=self.clock_period,
            arrival=self._arrival.copy(),
            slew=self._slew.copy(),
            required=required,
            load=self._load.copy(),
            best_pred=self._best_pred.copy(),
            endpoint_arrival=endpoint_arrival,
            endpoint_slack=endpoint_slack,
            net_delay=self._wire_delay.copy(),
            cell_delay=self._cell_delay.copy(),
        )
