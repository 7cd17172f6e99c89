"""A session's incremental STA against the construction it replaced.

A session opened on a boot's inputs starts its incremental STA from the
boot's pre-route STA (``IncrementalSTA(..., start=)``) and runs only the
required-time pass at its own clock; a session opened on a full
``FlowResult`` still builds and sweeps its own.  The frozen copy below
is the incremental STA as it was before ``start=`` existed: static pin
data, wire lengths and a full sweep at construction; its refresh
re-launches the edited startpoints (a flip-flop resize changes its
clock-to-Q).  On every paper preset, at design seeds 0 and 1, one
corner, three corners and a partitioned config, and for sessions opened
by name, from a pooled boot and from a full flow, every array of the
session's STA result and every endpoint slack must equal the frozen
copy's at open and again after a committed batch of moves and resizes,
and a fresh ``run_sta`` of the edited design after it.
"""

from __future__ import annotations

import pickle
from typing import Dict, Set

import numpy as np
import pytest

from repro.flow import FlowConfig, run_scenario_flow
from repro.ml import boot_designs
from repro.netlist import PAPER_DESIGNS
from repro.serve import Edit, SessionFactory
from repro.timing import STAResult, build_timing_graph, run_sta
from repro.timing.graph import NET_SINK
from repro.timing.nldm import batch_nldm_for
from repro.timing.rc import PreRouteEstimator, edge_lengths
from repro.timing.sta import (
    PI_INPUT_SLEW,
    PO_LOAD_FF,
    SLEW_WIRE_FACTOR,
    _argmax_per_dst,
)

from .conftest import MAP_BINS

SCALE = 0.1
SEEDS = (0, 1)
THREE_CORNERS = ("base", "slow", "fast")
CONFIGS = {
    "one-corner": {},
    "three-corners": {"corners": THREE_CORNERS},
    "partitioned": {"partition_pins": 64},
}
OPENS = ("by-name", "pooled-boot", "full-flow")
ARRAYS = ("arrival", "slew", "required", "load", "best_pred", "net_delay",
          "cell_delay")


# -- frozen copy of the incremental STA's construction and updates -----
def _frozen_pin_statics(netlist, lib, nldm, pin_ids, po_pins):
    pins, cells = netlist.pins, netlist.cells
    caps, outs, types = [], [], []
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


class FrozenIncrementalSTA:
    def __init__(self, netlist, placement, clock_period, graph):
        self.netlist = netlist
        self.placement = placement
        self.clock_period = clock_period
        self.wires = PreRouteEstimator(netlist, placement)
        self._dirty: Set[int] = set()
        self.graph = graph
        g, nl = graph, netlist
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
        self._launch(g.startpoints.tolist())
        lonely = (g.level == 0) & (self._arrival == -np.inf)
        self._arrival[lonely] = 0.0
        self._sweep(1)
        self.result = self._package()

    def _launch(self, startpoints):
        nl = self.netlist
        for node in startpoints:
            pin = nl.pins[int(self.graph.pin_ids[node])]
            if pin.cell is None:
                self._arrival[node] = 0.0
            else:
                self._arrival[node] = nl.library.cell(
                    nl.cells[pin.cell].type_name).clk_to_q
            self._slew[node] = PI_INPUT_SLEW

    def _refresh_static(self, nodes):
        nodes = np.asarray(nodes, dtype=np.int64)
        caps, outs, types = _frozen_pin_statics(
            self.netlist, self.netlist.library, self._nldm,
            self.graph.pin_ids[nodes].tolist(), self._po_pins)
        self._pin_cap[nodes] = caps
        self._out_type[nodes[outs]] = types

    def _recompute_wire_terms(self):
        g = self.graph
        w = self.netlist.library.wire
        self._wire_delay = w.resistance(self._wire_len) * (
            0.5 * w.capacitance(self._wire_len)
            + self._pin_cap[g.net_edge_dst])
        self._load = np.zeros(g.n_nodes)
        np.add.at(self._load, g.net_edge_src,
                  self._pin_cap[g.net_edge_dst]
                  + w.capacitance(self._wire_len))

    def resize_cell(self, cid, new_type_name):
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

    def move_cell(self, cid, x, y):
        nl = self.netlist
        self.placement.set_position(cid, x, y)
        node_of = self.graph.node_of
        inst = nl.cells[cid]
        for pid in list(inst.input_pins) + [inst.output_pin]:
            net_id = nl.pins[pid].net
            if net_id is None:
                continue
            net = nl.nets[net_id]
            self._dirty.add(node_of[net.driver])
            for sp in net.sinks:
                sink_node = node_of[sp]
                edge = self._edge_of_sink[sink_node]
                self._wire_len[edge] = self.wires.length(net.driver, sp)
                self._dirty.add(sink_node)

    def refresh(self):
        if not self._dirty:
            return self.result
        start = max(1, int(min(self.graph.level[v] for v in self._dirty)))
        self._recompute_wire_terms()
        self._launch(sorted(self._dirty & set(
            self.graph.startpoints.tolist())))
        self._sweep(start)
        self.result = self._package()
        self._dirty.clear()
        return self.result

    def _sweep(self, start_level):
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

    def _package(self):
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
            graph=g, clock_period=self.clock_period,
            arrival=self._arrival.copy(), slew=self._slew.copy(),
            required=required, load=self._load.copy(),
            best_pred=self._best_pred.copy(),
            endpoint_arrival=endpoint_arrival,
            endpoint_slack=endpoint_slack,
            net_delay=self._wire_delay.copy(),
            cell_delay=self._cell_delay.copy())


# ----------------------------------------------------------------------
def _config(seed: int, case: str) -> FlowConfig:
    return FlowConfig(scale=SCALE, base_seed=seed, **CONFIGS[case])


@pytest.fixture(scope="module")
def pooled_boots():
    """One pooled boot of every preset per (seed, config), built once."""
    cache = {}

    def get(seed: int, case: str):
        if (seed, case) not in cache:
            built, report = boot_designs(list(PAPER_DESIGNS),
                                         _config(seed, case),
                                         map_bins=MAP_BINS, jobs=2)
            assert report.ok and report.jobs == 2
            cache[seed, case] = dict(zip(PAPER_DESIGNS, built))
        return cache[seed, case]

    return get


def _open(how: str, design: str, seed: int, case: str, factory,
          pooled_boots):
    if how == "by-name":
        return factory.open(design)
    if how == "pooled-boot":
        pre, inputs, _ = pooled_boots(seed, case)[design]
        assert inputs.sta is not None
        return factory.open(pre, sample=inputs)
    return factory.open(run_scenario_flow(design, _config(seed, case)))


def _edit_batch(session, seed: int):
    """Three moves and three resizes on seeded cells."""
    nl, die = session.netlist, session.placement.die
    rng = np.random.default_rng(seed)
    cids = sorted(nl.cells)
    edits = []
    for k, cid in enumerate(rng.choice(cids, size=6, replace=False)):
        cid = int(cid)
        if k % 2:
            inst = nl.cells[cid]
            kind = inst.type_name.rsplit("_X", 1)[0]
            alts = [t.name for t in nl.library.sizes_of(kind)
                    if t.name != inst.type_name]
            edits.append(Edit(op="resize", cell=cid,
                              type_name=alts[int(rng.integers(len(alts)))]))
        else:
            edits.append(Edit(op="move", cell=cid,
                              x=float(rng.uniform(0, die.width)),
                              y=float(rng.uniform(0, die.height))))
    return edits


def _assert_equal(got: STAResult, want: STAResult, where: str) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), \
            f"{where}: {name}"
    assert got.endpoint_slack == want.endpoint_slack, where
    assert got.endpoint_arrival == want.endpoint_arrival, where


@pytest.mark.parametrize("how", OPENS)
@pytest.mark.parametrize("case", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_session_sta_matches_the_frozen_construction(
        seed, case, how, served_predictor, three_corner_predictor,
        pooled_boots):
    corners = CONFIGS[case].get("corners")
    predictor = (three_corner_predictor if corners
                 else served_predictor)
    factory = SessionFactory(lambda: predictor,
                             flow_config=_config(seed, case),
                             corners=corners)
    for design in PAPER_DESIGNS:
        session = _open(how, design, seed, case, factory, pooled_boots)
        try:
            # An independent copy of the design as opened: the frozen
            # STA times it on a graph of its own.
            nl, pl = pickle.loads(pickle.dumps(
                (session.netlist, session.placement)))
            ref = FrozenIncrementalSTA(nl, pl, session.clock_period,
                                       build_timing_graph(nl))
            where = f"{design} seed {seed} {case} {how}"
            _assert_equal(session.sta.result, ref.result,
                          f"{where}, at open")
            edits = _edit_batch(session, seed)
            session.apply(edits)
            for e in edits:
                if e.op == "resize":
                    ref.resize_cell(e.cell, e.type_name)
                else:
                    ref.move_cell(e.cell, e.x, e.y)
            ref.refresh()
            _assert_equal(session.sta.result, ref.result,
                          f"{where}, after edits")
            _assert_equal(session.sta.result,
                          run_sta(build_timing_graph(nl),
                                  PreRouteEstimator(nl, pl),
                                  session.clock_period),
                          f"{where}, after edits, against a fresh STA")
        finally:
            session.close()
