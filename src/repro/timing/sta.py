"""Vectorized static timing analysis (PERT traversal).

Propagates arrival time and slew through the pin-level DAG in topological
level order — the classic single-pass PERT sweep of [5] in the paper.  Cell
arcs are evaluated through the batched NLDM tables; net arcs use the Elmore
model with wire lengths from a pluggable :class:`WireLengthProvider`, so the
same engine produces both the pre-routing estimate and the sign-off timing.

This module holds the only propagation: :func:`run_sta` runs it over every
node, and :class:`~repro.timing.incremental.IncrementalSTA` re-runs the
same steps from the lowest level a local edit dirtied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_metrics, get_tracer
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import NET_SINK, TimingGraph
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
    # The static data the sweep read: pin caps (fF), cell-output NLDM
    # type ids, and net-edge wire lengths (µm).  An incremental STA on
    # the same graph, wires and library starts from them
    # (:class:`~repro.timing.incremental.IncrementalSTA`, ``start=``).
    pin_cap: Optional[np.ndarray] = None      # (n,)
    out_type_id: Optional[np.ndarray] = None  # (n,)
    wire_len: Optional[np.ndarray] = None     # (E_n,)

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


# ----------------------------------------------------------------------
# The propagation engine.  Each step reads and writes the arrays of an
# STAResult in place, over the nodes or from the level it is given:
# run_sta runs every step over every node, and IncrementalSTA
# (timing/incremental.py) re-runs them from the lowest level its edits
# dirtied.
# ----------------------------------------------------------------------
def _pin_statics(res: STAResult, lib, nldm, po_pins,
                 nodes: np.ndarray) -> None:
    """Read the static electrical data of *nodes* into *res*.

    That is each pin's capacitance (an input's cell pin cap,
    ``PO_LOAD_FF`` for a primary output, else 0) and, for the cell
    outputs among them, their NLDM type ids.
    """
    nl = res.graph.netlist
    pins, cells = nl.pins, nl.cells
    caps: List[float] = []
    outs: List[int] = []
    types: List[int] = []
    for k, pid in enumerate(res.graph.pin_ids[nodes].tolist()):
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
    res.pin_cap[nodes] = caps
    res.out_type_id[nodes[outs]] = types


def _wire_terms(res: STAResult, lib) -> None:
    """Net-edge wire delays and per-driver loads (star Elmore) from the
    wire lengths and pin caps in *res*.  A driver's load is the pin caps
    of its sinks plus the total wire capacitance of its net."""
    g = res.graph
    w = lib.wire
    sink_cap = res.pin_cap[g.net_edge_dst]
    res.net_delay = w.resistance(res.wire_len) * (
        0.5 * w.capacitance(res.wire_len) + sink_cap)
    res.load = np.zeros(g.n_nodes)
    np.add.at(res.load, g.net_edge_src,
              sink_cap + w.capacitance(res.wire_len))


def _seed_sources(res: STAResult, lib, nodes: np.ndarray,
                  constraints: Optional[TimingConstraints] = None) -> None:
    """Launch the startpoints *nodes*: a primary input at its input
    delay (0 without constraints), a flip-flop Q at its cell's
    clock-to-Q; both at ``PI_INPUT_SLEW``."""
    nl = res.graph.netlist
    for node, pid in zip(nodes.tolist(), res.graph.pin_ids[nodes].tolist()):
        pin = nl.pins[pid]
        if pin.cell is None:
            res.arrival[node] = (constraints.input_delay(pin.name)
                                 if constraints is not None else 0.0)
        else:  # flip-flop Q launch
            res.arrival[node] = lib.cell(
                nl.cells[pin.cell].type_name).clk_to_q
        res.slew[node] = PI_INPUT_SLEW


def _sweep(res: STAResult, nldm, start_level: int) -> None:
    """Forward pass: arrival, slew, winning predecessor and cell-arc
    delay of every node at level *start_level* and above, from the
    levels below, level by level."""
    g = res.graph
    arrival, slew, best_pred = res.arrival, res.slew, res.best_pred
    wire_delay = res.net_delay
    e_src, edge_of_sink = g.net_edge_src, g.net_edge_of_sink
    c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
    cell_edges_at = g.cell_edges_at
    for lvl in range(start_level, g.n_levels):
        nodes = g.levels[lvl]
        # Net sinks: single incoming net edge.
        sinks = nodes[g.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            src = e_src[edges]
            arrival[sinks] = arrival[src] + wire_delay[edges]
            slew[sinks] = slew[src] + SLEW_WIRE_FACTOR * wire_delay[edges]
            best_pred[sinks] = src

        # Cell outputs: max over all incoming cell arcs.
        chunk = cell_edges_at[lvl]
        if len(chunk):
            src = c_src[chunk]
            dst = c_dst[chunk]
            d, s_out = nldm.lookup(res.out_type_id[dst], slew[src],
                                   res.load[dst])
            res.cell_delay[chunk] = d
            arrival[dst] = -np.inf
            cand = arrival[src] + d
            np.maximum.at(arrival, dst, cand)
            sel = _argmax_per_dst(cand, dst, arrival)
            slew[dst[sel]] = s_out[sel]
            best_pred[dst[sel]] = src[sel]


def _package_endpoints(res: STAResult, lib,
                       constraints: Optional[TimingConstraints] = None
                       ) -> None:
    """Endpoint arrivals and slacks at ``res.clock_period``, and a fresh
    ``required`` holding each endpoint's required time (``inf``
    elsewhere until :func:`_required_times` fills it in)."""
    g = res.graph
    nl = g.netlist
    endpoint_arrival: Dict[int, float] = {}
    endpoint_slack: Dict[int, float] = {}
    required = np.full(g.n_nodes, np.inf)
    for node, pid in zip(g.endpoints.tolist(),
                         g.pin_ids[g.endpoints].tolist()):
        pin = nl.pins[pid]
        setup = 0.0
        if pin.cell is not None:
            setup = lib.cell(nl.cells[pin.cell].type_name).setup_time
        elif constraints is not None:
            setup = constraints.output_delay(pin.name)
        endpoint_arrival[pid] = float(res.arrival[node])
        endpoint_slack[pid] = float(res.clock_period - setup
                                    - res.arrival[node])
        required[node] = res.clock_period - setup
    res.endpoint_arrival = endpoint_arrival
    res.endpoint_slack = endpoint_slack
    res.required = required


def _required_times(res: STAResult) -> None:
    """Backward pass (levels in reverse): required[src] = min over
    out-edges of (required[dst] - edge delay)."""
    g = res.graph
    required = res.required
    e_src, edge_of_sink = g.net_edge_src, g.net_edge_of_sink
    c_src, c_dst = g.cell_edge_src, g.cell_edge_dst
    for lvl in range(g.n_levels - 1, 0, -1):
        nodes = g.levels[lvl]
        sinks = nodes[g.kind[nodes] == NET_SINK]
        if len(sinks):
            edges = edge_of_sink[sinks]
            np.minimum.at(required, e_src[edges],
                          required[sinks] - res.net_delay[edges])
        chunk = g.cell_edges_at[lvl]
        if len(chunk):
            np.minimum.at(required, c_src[chunk],
                          required[c_dst[chunk]] - res.cell_delay[chunk])


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
    """The engine with every node dirty: every step over every node,
    swept from level 1."""
    nl = graph.netlist
    if corner is None:
        lib = nl.library
    else:
        from repro.timing.corners import derate_library

        lib = derate_library(nl.library, corner)
    nldm = batch_nldm_for(lib)
    n = graph.n_nodes
    res = STAResult(
        graph=graph,
        clock_period=clock_period,
        arrival=np.full(n, -np.inf),
        slew=np.full(n, PI_INPUT_SLEW),
        required=np.full(n, np.inf),
        load=np.zeros(n),
        best_pred=np.full(n, -1, dtype=np.int64),
        endpoint_arrival={},
        endpoint_slack={},
        cell_delay=np.zeros(len(graph.cell_edge_src)),
        pin_cap=np.zeros(n),
        out_type_id=np.zeros(n, dtype=np.int64),
        wire_len=edge_lengths(wires, graph.pin_ids[graph.net_edge_src],
                              graph.pin_ids[graph.net_edge_dst]),
    )
    po_pins = {p.pin for p in nl.primary_outputs()}
    _pin_statics(res, lib, nldm, po_pins, np.arange(n))
    _wire_terms(res, lib)
    _seed_sources(res, lib, graph.startpoints, constraints)
    # Isolated nodes (no preds, not startpoints) still get arrival 0.
    res.arrival[(graph.level == 0) & (res.arrival == -np.inf)] = 0.0
    _sweep(res, nldm, 1)
    require(bool(np.all(np.isfinite(res.arrival))),
            "arrival propagation left unreachable nodes")
    _package_endpoints(res, lib, constraints)
    _required_times(res)
    return res
