"""Differential battery: array-computed node features must equal the
per-pin rows they replaced, bit for bit.

``node_features`` used to fill ``x_cell``/``x_net`` one pin at a time
through ``cell_feature_row``/``net_feature_row``.  It now computes each
block as arrays (:func:`repro.ml.features.feature_rows`); a net's load
still adds its sinks' pin and wire caps in sink order, interleaved.  The
frozen copies below are the old per-pin code.  On every paper preset, at
design seeds 0 and 1 and scales 0.1 and 0.35, whole-graph and chunked
(``partition=64``) features must be ``np.array_equal`` to it.  The
incremental featurizer refreshes its dirty rows through the same array
function, so after batches of moves its rows must equal the frozen
features of the moved placement too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow import FlowConfig, run_pre_route
from repro.ml.features import (
    CELL_FEATURE_DIM,
    DELAY_SCALE,
    DISTANCE_SCALE,
    DRIVE_SCALE,
    FANOUT_SCALE,
    LOAD_SCALE,
    NET_FEATURE_DIM,
    PIN_CAP_SCALE,
    node_features,
)
from repro.netlist import PAPER_DESIGNS
from repro.serve.featurize import IncrementalFeaturizer
from repro.timing import CELL_OUT, NET_SINK

SEEDS = (0, 1)
SCALES = (0.1, 0.35)
CASES = [(d, s, k) for d in PAPER_DESIGNS for s in SEEDS for k in SCALES]


# --- frozen: the per-pin feature rows.  Do not "modernize". -----------
def frozen_pin_position(netlist, placement, pid):
    pin = netlist.pins[pid]
    if pin.cell is None:
        return placement.die.port_positions[pid]
    return placement.cell_xy[pin.cell]


def frozen_net_output_load(netlist, placement, nid):
    lib = netlist.library
    wire = lib.wire
    net = netlist.nets[nid]
    xd, yd = frozen_pin_position(netlist, placement, net.driver)
    load = 0.0
    for sp in net.sinks:
        spin = netlist.pins[sp]
        if spin.cell is not None:
            load += lib.cell(netlist.cells[spin.cell].type_name).input_cap
        else:
            load += 2.0
        xs, ys = frozen_pin_position(netlist, placement, sp)
        load += wire.capacitance(abs(xd - xs) + abs(yd - ys))
    return load


def frozen_cell_feature_row(netlist, placement, pid):
    lib = netlist.library
    pin = netlist.pins[pid]
    ctype = lib.cell(netlist.cells[pin.cell].type_name)
    load = (frozen_net_output_load(netlist, placement, pin.net)
            if pin.net is not None else 0.0)
    row = np.zeros(CELL_FEATURE_DIM)
    row[0] = ctype.drive / DRIVE_SCALE
    row[1] = ctype.input_cap / PIN_CAP_SCALE
    row[2] = (len(netlist.nets[pin.net].sinks) / FANOUT_SCALE
              if pin.net is not None else 0.0)
    row[3] = load / LOAD_SCALE
    row[4] = ctype.drive_resistance * load / DELAY_SCALE
    row[5 + lib.kind_index(ctype.kind.name)] = 1.0
    return row


def frozen_net_feature_row(netlist, placement, pid):
    lib = netlist.library
    wire = lib.wire
    pin = netlist.pins[pid]
    net = netlist.nets[pin.net]
    xd, yd = frozen_pin_position(netlist, placement, net.driver)
    xs, ys = frozen_pin_position(netlist, placement, pid)
    dist = abs(xd - xs) + abs(yd - ys)
    sink_cap = (lib.cell(netlist.cells[pin.cell].type_name).input_cap
                if pin.cell is not None else 2.0)
    wire_delay = wire.resistance(dist) * (
        0.5 * wire.capacitance(dist) + sink_cap)
    row = np.zeros(NET_FEATURE_DIM)
    row[0] = dist / DISTANCE_SCALE
    row[1] = wire_delay / DELAY_SCALE
    row[2] = sink_cap / PIN_CAP_SCALE
    return row


def frozen_node_features(netlist, placement, graph):
    n = graph.n_nodes
    x_cell = np.zeros((n, CELL_FEATURE_DIM))
    x_net = np.zeros((n, NET_FEATURE_DIM))
    for i, pid in enumerate(graph.pin_ids):
        if graph.kind[i] == CELL_OUT:
            x_cell[i] = frozen_cell_feature_row(netlist, placement, int(pid))
        elif graph.kind[i] == NET_SINK:
            x_net[i] = frozen_net_feature_row(netlist, placement, int(pid))
    return x_cell, x_net


@pytest.mark.parametrize("name,seed,scale", CASES)
def test_node_features_match_frozen(name, seed, scale):
    pre, sta = run_pre_route(name, FlowConfig(scale=scale, base_seed=seed))
    nl, pl, graph = pre.input_netlist, pre.input_placement, sta.graph
    ref_cell, ref_net = frozen_node_features(nl, pl, graph)
    for partition in (None, 64):
        x_cell, x_net = node_features(nl, pl, graph, partition=partition)
        assert np.array_equal(x_cell, ref_cell)
        assert np.array_equal(x_net, ref_net)


@pytest.mark.parametrize("name", ["xgate", "chacha", "rocket"])
def test_refreshed_rows_match_frozen_after_moves(name):
    pre, sta = run_pre_route(name, FlowConfig(scale=0.25))
    nl, pl, graph = pre.input_netlist, pre.input_placement, sta.graph
    x_cell, x_net = node_features(nl, pl, graph)
    bins = 16
    feat = IncrementalFeaturizer(
        nl, pl, graph, x_cell, x_net, np.zeros((0, bins * bins)), [],
        np.zeros((3, bins, bins)), bins)
    die = pl.die
    for step in range(3):
        # A batch of six moves, marked and refreshed as a committed
        # what-if does it.
        rng = np.random.default_rng(step)
        for cid in rng.choice(sorted(pl.cell_xy), size=6, replace=False):
            cid = int(cid)
            feat.mark_cell_region(cid, moved=True)
            pl.set_position(cid, float(rng.uniform(0, die.width)),
                            float(rng.uniform(0, die.height)))
            feat.mark_cell_region(cid, moved=True)
            feat.mark_move(cid)
        feat.refresh()
        ref_cell, ref_net = frozen_node_features(nl, pl, graph)
        assert np.array_equal(x_cell, ref_cell)
        assert np.array_equal(x_net, ref_net)
