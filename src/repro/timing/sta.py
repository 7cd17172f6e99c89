"""Vectorized static timing analysis (PERT traversal).

Propagates arrival time and slew through the pin-level DAG in topological
level order — the classic single-pass PERT sweep of [5] in the paper.  Cell
arcs are evaluated through the batched NLDM tables; net arcs use the Elmore
model with wire lengths from a pluggable :class:`WireLengthProvider`, so the
same engine produces both the pre-routing estimate and the sign-off timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_metrics, get_tracer
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import CELL_OUT, NET_SINK, SOURCE, TimingGraph
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import WireLengthProvider, edge_lengths
from repro.utils import require

#: Electrical boundary conditions.
PI_INPUT_SLEW = 10.0   # ps, slew at primary inputs
PO_LOAD_FF = 2.0       # fF, load presented by an output pad
SLEW_WIRE_FACTOR = 0.7  # slew degradation per ps of wire delay


@dataclass
class STAResult:
    """Full result of one STA run."""

    graph: TimingGraph
    clock_period: float
    arrival: np.ndarray            # (n,) per node, ps
    slew: np.ndarray               # (n,) per node, ps
    required: np.ndarray           # (n,) per node required time, ps
    load: np.ndarray               # (n,) capacitive load seen by OUT pins, fF
    best_pred: np.ndarray          # (n,) winning predecessor node (-1 = none)
    endpoint_arrival: Dict[int, float]   # endpoint pin id -> arrival
    endpoint_slack: Dict[int, float]     # endpoint pin id -> slack
    # Per-edge delays in the graph's net / cell edge order, ps.
    net_delay: Optional[np.ndarray] = None    # (E_n,)
    cell_delay: Optional[np.ndarray] = None   # (E_c,)

    @cached_property
    def net_edge_delay(self) -> Dict[Tuple[int, int], float]:
        """(driver pin, sink pin) -> wire delay, built on first read."""
        g = self.graph
        return _edge_dict(g.pin_ids, g.net_edge_src, g.net_edge_dst,
                          self.net_delay)

    @cached_property
    def cell_edge_delay(self) -> Dict[Tuple[int, int], float]:
        """(input pin, output pin) -> cell arc delay, built on first read."""
        g = self.graph
        return _edge_dict(g.pin_ids, g.cell_edge_src, g.cell_edge_dst,
                          self.cell_delay)

    def wire_delay(self, driver_pin: int, sink_pin: int) -> float:
        """Delay of net edge *driver_pin* → *sink_pin*; 0.0 if the graph
        has no such edge.  Same as ``net_edge_delay.get(...)``, without
        building the dict."""
        if self.net_delay is None:  # hand-built or pre-array result
            return self.net_edge_delay.get((driver_pin, sink_pin), 0.0)
        g = self.graph
        sink = g.node_of.get(sink_pin)
        if sink is None:
            return 0.0
        edge = g.net_edge_of_sink[sink]
        if edge < 0 or g.pin_ids[g.net_edge_src[edge]] != driver_pin:
            return 0.0
        return float(self.net_delay[edge])

    @property
    def node_slack(self) -> np.ndarray:
        """Per-node slack from the backward required-time sweep."""
        return self.required - self.arrival

    @property
    def wns(self) -> float:
        """Worst negative slack (ps); positive if all endpoints meet timing.

        NaN when the design has no timing endpoints (no flip-flop D pins
        and no primary outputs) — there is no slack to report.
        """
        if not self.endpoint_slack:
            return float("nan")
        return min(self.endpoint_slack.values())

    @property
    def tns(self) -> float:
        """Total negative slack (ps, ≤ 0); 0.0 with no endpoints."""
        return sum(min(0.0, s) for s in self.endpoint_slack.values())

    @property
    def max_arrival(self) -> float:
        """Latest endpoint arrival (ps); NaN when there are no endpoints."""
        if not self.endpoint_arrival:
            return float("nan")
        return max(self.endpoint_arrival.values())

    def critical_path(self, endpoint_pin: int) -> List[int]:
        """Pins on the worst path into *endpoint_pin*, startpoint first."""
        g = self.graph
        node = g.node_of[endpoint_pin]
        path = [node]
        while self.best_pred[node] >= 0:
            node = int(self.best_pred[node])
            path.append(node)
        return [int(g.pin_ids[v]) for v in reversed(path)]


def _edge_dict(pin_ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
               delay: Optional[np.ndarray]) -> Dict[Tuple[int, int], float]:
    if delay is None:
        return {}
    return dict(zip(zip(pin_ids[src].tolist(), pin_ids[dst].tolist()),
                    delay.tolist()))


def _argmax_per_dst(cand: np.ndarray, dst: np.ndarray,
                    arrival: np.ndarray) -> np.ndarray:
    """Index of the winning arc per destination: a deterministic argmax.

    ``arrival[dst]`` already holds the per-destination maximum (via
    ``np.maximum.at``), so the winners are the arcs whose candidate
    equals it *exactly*; on exact ties the first arc in edge order wins.
    A tolerance mask here (the old ``cand >= arrival[dst] - 1e-9``)
    could select several rows per destination, making the subsequent
    fancy-indexed slew/best_pred writes depend on edge array order and
    possibly follow a near-tied arc that is not the true maximum.
    """
    exact = np.flatnonzero(cand == arrival[dst])
    _, first = np.unique(dst[exact], return_index=True)
    return exact[first]


def _pin_statics(netlist: Netlist, lib, nldm, pin_ids: List[int],
                 po_pins) -> Tuple[List[float], List[int], List[int]]:
    """Static electrical data of the pins *pin_ids*, in order.

    Returns ``(caps, outs, types)``: each pin's capacitance (an input's
    cell pin cap, ``PO_LOAD_FF`` for a primary output, else 0), and for
    the cell outputs among them their positions in *pin_ids* and their
    NLDM type ids.
    """
    pins, cells = netlist.pins, netlist.cells
    caps: List[float] = []
    outs: List[int] = []
    types: List[int] = []
    for k, pid in enumerate(pin_ids):
        pin = pins[pid]
        cap = 0.0
        if pin.cell is not None and pin.direction == "in":
            cap = lib.cell(cells[pin.cell].type_name).input_cap
        elif pid in po_pins:
            cap = PO_LOAD_FF
        caps.append(cap)
        if pin.cell is not None and pin.direction == "out":
            outs.append(k)
            types.append(nldm.type_id(cells[pin.cell].type_name))
    return caps, outs, types


def run_sta(graph: TimingGraph, wires: WireLengthProvider,
            clock_period: float,
            constraints: "TimingConstraints" = None,
            corner=None) -> STAResult:
    """Run a full arrival-time propagation over *graph*.

    ``constraints`` optionally adds SDC-style input/output delays; its
    clock period, if provided, must agree with *clock_period* (pass
    ``constraints.clock_period`` explicitly to avoid surprises).

    ``corner`` optionally times the graph at a derated PVT corner (a
    :class:`~repro.timing.corners.Corner` or a registered corner name);
    ``None`` and identity corners use the netlist's nominal library
    unchanged — the same object, so results stay bit-identical to a
    corner-less call.

    Each run emits an ``sta.run`` tracer span and bumps the ``sta.runs``
    / ``sta.nldm_lookups`` counters.  The instrumentation lives in this
    wrapper so :func:`_run_sta_impl` stays an uninstrumented baseline for
    the observability overhead benchmark.
    """
    with get_tracer().span("sta.run", design=graph.netlist.name,
                           n_nodes=graph.n_nodes):
        result = _run_sta_impl(graph, wires, clock_period, constraints,
                               corner=corner)
    metrics = get_metrics()
    metrics.counter("sta.runs").inc()
    metrics.counter("sta.nldm_lookups").inc(len(graph.cell_edge_src))
    return result


def _run_sta_impl(graph: TimingGraph, wires: WireLengthProvider,
                  clock_period: float,
                  constraints: "TimingConstraints" = None,
                  corner=None) -> STAResult:
    nl = graph.netlist
    if corner is None:
        lib = nl.library
    else:
        from repro.timing.corners import derate_library

        lib = derate_library(nl.library, corner)
    nldm = batch_nldm_for(lib)
    n = graph.n_nodes

    # ------------------------------------------------------------------
    # Static per-node electrical data.
    # ------------------------------------------------------------------
    po_pins = {p.pin for p in nl.primary_outputs()}
    caps, outs, types = _pin_statics(nl, lib, nldm, graph.pin_ids.tolist(),
                                     po_pins)
    pin_cap = np.array(caps, dtype=float)
    out_type_id = np.zeros(n, dtype=np.int64)
    out_type_id[outs] = types

    # Net-edge wire delays and per-driver total loads (star Elmore).
    e_src = graph.net_edge_src
    e_dst = graph.net_edge_dst
    wire_len = edge_lengths(wires, graph.pin_ids[e_src], graph.pin_ids[e_dst])
    w = lib.wire
    wire_delay = w.resistance(wire_len) * (
        0.5 * w.capacitance(wire_len) + pin_cap[e_dst])

    # Driver load: all sink pin caps + total wire capacitance of the net.
    load = np.zeros(n)
    np.add.at(load, e_src, pin_cap[e_dst] + w.capacitance(wire_len))

    edge_of_sink = graph.net_edge_of_sink

    # Group cell edges by the level of their output node.
    c_src = graph.cell_edge_src
    c_dst = graph.cell_edge_dst
    cell_edges_at: Dict[int, np.ndarray] = {}
    if len(c_dst):
        dst_level = graph.level[c_dst]
        order = np.argsort(dst_level, kind="stable")
        bounds = np.searchsorted(dst_level[order],
                                 np.arange(dst_level.max() + 2))
        for lvl in range(len(bounds) - 1):
            chunk = order[bounds[lvl]:bounds[lvl + 1]]
            if len(chunk):
                cell_edges_at[lvl] = chunk

    # ------------------------------------------------------------------
    # Initialize sources.
    # ------------------------------------------------------------------
    arrival = np.full(n, -np.inf)
    slew = np.full(n, PI_INPUT_SLEW)
    best_pred = np.full(n, -1, dtype=np.int64)
    for node, pid in zip(graph.startpoints.tolist(),
                         graph.pin_ids[graph.startpoints].tolist()):
        pin = nl.pins[pid]
        if pin.cell is None:
            arrival[node] = (constraints.input_delay(pin.name)
                             if constraints is not None else 0.0)
            slew[node] = PI_INPUT_SLEW
        else:  # flip-flop Q launch
            ctype = lib.cell(nl.cells[pin.cell].type_name)
            arrival[node] = ctype.clk_to_q
            slew[node] = PI_INPUT_SLEW
    # Isolated nodes (no preds, not startpoints) still get arrival 0.
    lonely = (graph.level == 0) & (arrival == -np.inf)
    arrival[lonely] = 0.0

    cell_delay = np.zeros(len(c_src))

    # ------------------------------------------------------------------
    # Level-by-level propagation.
    # ------------------------------------------------------------------
    for lvl in range(1, graph.n_levels):
        nodes = graph.levels[lvl]
        # Net sinks: single incoming net edge.
        sinks = nodes[graph.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            src = e_src[edges]
            arrival[sinks] = arrival[src] + wire_delay[edges]
            slew[sinks] = slew[src] + SLEW_WIRE_FACTOR * wire_delay[edges]
            best_pred[sinks] = src

        # Cell outputs: max over all incoming cell arcs.
        chunk = cell_edges_at.get(lvl)
        if chunk is not None:
            src = c_src[chunk]
            dst = c_dst[chunk]
            d, s_out = nldm.lookup(out_type_id[dst], slew[src], load[dst])
            cell_delay[chunk] = d
            cand = arrival[src] + d
            np.maximum.at(arrival, dst, cand)
            sel = _argmax_per_dst(cand, dst, arrival)
            slew[dst[sel]] = s_out[sel]
            best_pred[dst[sel]] = src[sel]

    require(bool(np.all(np.isfinite(arrival))),
            "arrival propagation left unreachable nodes")

    # ------------------------------------------------------------------
    # Endpoint slacks and per-edge delay reports.
    # ------------------------------------------------------------------
    endpoint_arrival: Dict[int, float] = {}
    endpoint_slack: Dict[int, float] = {}
    required = np.full(n, np.inf)
    for node, pid in zip(graph.endpoints.tolist(),
                         graph.pin_ids[graph.endpoints].tolist()):
        pin = nl.pins[pid]
        setup = 0.0
        if pin.cell is not None:
            setup = lib.cell(nl.cells[pin.cell].type_name).setup_time
        elif constraints is not None:
            setup = constraints.output_delay(pin.name)
        endpoint_arrival[pid] = float(arrival[node])
        endpoint_slack[pid] = float(clock_period - setup - arrival[node])
        required[node] = clock_period - setup

    # Backward required-time sweep (levels in reverse):
    # required[src] = min over out-edges (required[dst] - edge delay).
    for lvl in range(graph.n_levels - 1, 0, -1):
        nodes = graph.levels[lvl]
        sinks = nodes[graph.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            np.minimum.at(required, e_src[edges],
                          required[sinks] - wire_delay[edges])
        chunk = cell_edges_at.get(lvl)
        if chunk is not None:
            np.minimum.at(required, c_src[chunk],
                          required[c_dst[chunk]] - cell_delay[chunk])

    return STAResult(
        graph=graph,
        clock_period=clock_period,
        arrival=arrival,
        slew=slew,
        required=required,
        load=load,
        best_pred=best_pred,
        endpoint_arrival=endpoint_arrival,
        endpoint_slack=endpoint_slack,
        net_delay=wire_delay,
        cell_delay=cell_delay,
    )
