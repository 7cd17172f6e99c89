"""Incremental STA for parameter-only edits (sizing, cell moves).

Commercial optimizers re-time after every trial move; re-running full STA
each time wastes work when the edit is local.  For edits that keep the
graph *topology* intact — gate resizing and placement moves —
:class:`IncrementalSTA` updates the static electrical data only where it
changed, re-launches the edited startpoints and re-runs the propagation
of :mod:`repro.timing.sta` only from the lowest topological level an
edit can influence, reusing everything below it.  The result is
bit-identical to a fresh :func:`repro.timing.sta.run_sta` (verified in
the test suite).

Structural edits (buffering, decomposition, cloning) change the node set
and require :meth:`IncrementalSTA.rebuild`, which builds a new graph.
Sizing and moves never touch the graph, so a caller that already holds
the netlist's graph (a serving session) passes it in and shares it.
A caller that also holds a full :func:`~repro.timing.sta.run_sta` of
the same netlist and placement (a serving boot's pre-route STA) passes
that as ``start=``: arrival propagation does not depend on the clock,
so the incremental STA takes the run's state over and only times the
required-time pass at its own clock.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Set

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_metrics, get_tracer
from repro.placement import Placement
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import PreRouteEstimator, WireLengthProvider
from repro.timing.sta import (
    STAResult,
    _package_endpoints,
    _pin_statics,
    _required_times,
    _run_sta_impl,
    _seed_sources,
    _sweep,
    _wire_terms,
)
from repro.utils import require


class IncrementalSTA:
    """Keeps an up-to-date :class:`STAResult` across local edits."""

    def __init__(self, netlist: Netlist, placement: Placement,
                 clock_period: float,
                 wires: Optional[WireLengthProvider] = None,
                 graph: Optional[TimingGraph] = None,
                 start: Optional[STAResult] = None) -> None:
        """*start*, when given, is a :func:`~repro.timing.sta.run_sta`
        result over *netlist* and *placement* with these *wires*, the
        nominal library and no constraints, at any clock (a serving
        boot's pre-route STA).  This STA then owns and updates its
        arrays in place, so the caller must not read them afterwards.
        """
        self.netlist = netlist
        self.placement = placement
        self.clock_period = clock_period
        self.wires = wires or PreRouteEstimator(netlist, placement)
        self.partial_updates = 0
        self.full_rebuilds = 0
        self._dirty: Set[int] = set()
        if start is not None:
            require(graph is None or graph is start.graph,
                    "start STA ran on another graph")
            graph = start.graph
        #: The netlist's timing graph: *graph* (or *start*'s) when given
        #: (read only here), else built.  Only :meth:`rebuild` replaces
        #: it.
        self.graph: TimingGraph = (graph if graph is not None
                                   else build_timing_graph(netlist))
        if start is None:
            self._build()
        else:
            require(start.pin_cap is not None,
                    "start STA carries no static pin data")
            self._setup()
            # The live state: start's arrays (updated in place from now
            # on), timed at this STA's clock.
            self._state = dataclasses.replace(
                start, clock_period=clock_period)
            self._retime()

    # ------------------------------------------------------------------
    # Construction / static state
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        """What both ways of starting share."""
        nl = self.netlist
        self._lib = nl.library
        self._nldm = batch_nldm_for(self._lib)
        self._po_pins = {p.pin for p in nl.primary_outputs()}

    def _build(self) -> None:
        self._setup()
        self._state = _run_sta_impl(self.graph, self.wires,
                                    self.clock_period)
        self.result = self._snapshot()

    def _retime(self) -> None:
        """Endpoint slacks and required times of the live state at this
        STA's clock; publish a snapshot as :attr:`result`."""
        _package_endpoints(self._state, self._lib)
        _required_times(self._state)
        self.result = self._snapshot()

    def _snapshot(self) -> STAResult:
        """The live state with copies of the arrays edits overwrite in
        place (the static data stays private)."""
        st = self._state
        return dataclasses.replace(
            st, arrival=st.arrival.copy(), slew=st.slew.copy(),
            load=st.load.copy(), best_pred=st.best_pred.copy(),
            net_delay=st.net_delay.copy(), cell_delay=st.cell_delay.copy(),
            pin_cap=None, out_type_id=None, wire_len=None)

    # ------------------------------------------------------------------
    # Edit notifications
    # ------------------------------------------------------------------
    def resize_cell(self, cid: int, new_type_name: str) -> None:
        """Change a cell's drive in place and mark the affected cone.

        A resize changes (a) the cell's arc delays (a flip-flop's
        clock-to-Q launch) and (b) its input pin caps, which alter the
        loads and wire delays of the driving nets — so the fan-in
        drivers' arcs change too.
        """
        nl = self.netlist
        inst = nl.cells[cid]
        nl.change_cell_type(cid, new_type_name)
        node_of = self.graph.node_of
        out_node = node_of[inst.output_pin]
        pins = [out_node] + [node_of[ip] for ip in inst.input_pins]
        _pin_statics(self._state, self._lib, self._nldm, self._po_pins,
                     np.array(pins, dtype=np.int64))
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
        edge_of_sink = self.graph.net_edge_of_sink
        wire_len = self._state.wire_len
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            net_id = nl.pins[pid].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            self._dirty.add(node_of[net.driver])
            for sp in net.sinks:
                sink_node = node_of[sp]
                wire_len[edge_of_sink[sink_node]] = self.wires.length(
                    net.driver, sp)
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
        """Re-launch the dirty startpoints and re-propagate from the
        lowest dirty level; returns the fresh result."""
        if not self._dirty:
            return self.result
        g, st = self.graph, self._state
        dirty = np.fromiter(self._dirty, dtype=np.int64,
                            count=len(self._dirty))
        start = max(1, int(g.level[dirty].min()))
        with get_tracer().span("sta.refresh", design=self.netlist.name,
                               start_level=start):
            _wire_terms(st, self._lib)
            _seed_sources(st, self._lib, np.intersect1d(dirty,
                                                        g.startpoints))
            _sweep(st, self._nldm, start)
            self._retime()
        self._dirty.clear()
        self.partial_updates += 1
        metrics = get_metrics()
        metrics.counter("sta.incremental.partial").inc()
        metrics.histogram("sta.incremental.start_level").observe(start)
        metrics.histogram("sta.incremental.nodes_swept").observe(
            sum(len(nodes) for nodes in g.levels[start:]))
        return self.result
