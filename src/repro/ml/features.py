"""Node features of the pin-level heterograph (paper Section IV-A).

Feature assignment follows the paper: the **net distance** is attached to
net nodes; **cell driving strength**, **gate type** (one-hot) and **pin
capacitance** are attached to cell nodes.  Source nodes carry no features
(the GNN gives them a learned start embedding).

We extend the paper's "pin capacitance" feature to the full electrical
picture a placement-stage tool can compute from the timing library: the
cell's input pin capacitance, its fan-out, and the estimated capacitive
load at the output pin (sink pin caps + estimated wire cap).  Without the
load term the GNN physically cannot estimate gate delay (delay ≈ R_drive ×
C_load dominates at 7 nm); these are all pre-routing quantities.

All features are scaled by fixed constants so that they land in O(1) ranges
regardless of the design (data-independent normalization keeps train/test
consistent).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.liberty import GATE_KINDS
from repro.netlist import Netlist
from repro.placement import Placement
from repro.timing import CELL_OUT, NET_SINK, TimingGraph
from repro.timing.partition import partition_graph, resolve_pins

#: Fixed normalization scales (µm, fF, ps, drive units).
DISTANCE_SCALE = 50.0
PIN_CAP_SCALE = 5.0
DRIVE_SCALE = 8.0
LOAD_SCALE = 20.0
FANOUT_SCALE = 10.0
DELAY_SCALE = 50.0

#: x_net: [distance, estimated wire delay, sink pin cap]
NET_FEATURE_DIM = 3
#: x_cell: [drive, input cap, fanout, est. load, est. drive delay, one-hot]
CELL_FEATURE_DIM = 5 + len(GATE_KINDS)


def net_output_load(netlist: Netlist, placement: Placement,
                    nid: int) -> float:
    """Estimated capacitive load of one net (sink pin caps + star wire cap).

    Shared between the full feature pass below and the incremental
    re-featurization in :mod:`repro.serve` — both must accumulate the sink
    terms in net order so recomputed values are bit-identical.
    """
    lib = netlist.library
    wire = lib.wire
    net = netlist.nets[nid]
    xd, yd = placement.pin_position(netlist, net.driver)
    load = 0.0
    for sp in net.sinks:
        spin = netlist.pins[sp]
        if spin.cell is not None:
            load += lib.cell(netlist.cells[spin.cell].type_name).input_cap
        else:
            load += 2.0  # output pad
        xs, ys = placement.pin_position(netlist, sp)
        load += wire.capacitance(abs(xd - xs) + abs(yd - ys))
    return load


def cell_feature_row(netlist: Netlist, placement: Placement,
                     pid: int) -> np.ndarray:
    """The x_cell row of one CELL_OUT pin (drive, caps, load, one-hot)."""
    lib = netlist.library
    pin = netlist.pins[pid]
    ctype = lib.cell(netlist.cells[pin.cell].type_name)
    load = (net_output_load(netlist, placement, pin.net)
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


def net_feature_row(netlist: Netlist, placement: Placement,
                    pid: int) -> np.ndarray:
    """The x_net row of one NET_SINK pin (distance, wire delay, sink cap)."""
    lib = netlist.library
    wire = lib.wire
    pin = netlist.pins[pid]
    net = netlist.nets[pin.net]
    xd, yd = placement.pin_position(netlist, net.driver)
    xs, ys = placement.pin_position(netlist, pid)
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


class FeatureShapeError(ValueError):
    """A feature block has the wrong shape, dtype, or non-finite values.

    Raised at *build* time, with the offending design/chunk named, so
    malformed blocks never reach the GNN (where they would surface as an
    opaque broadcast error dozens of frames deep).
    """

    def __init__(self, message: str, *, design: str = "?",
                 chunk: Optional[int] = None) -> None:
        where = f"design {design!r}" + (
            "" if chunk is None else f", chunk {chunk}")
        super().__init__(f"malformed feature block ({where}): {message}")
        self.design = design
        self.chunk = chunk


def _check_block(arr: np.ndarray, rows: int, dim: int, label: str,
                 design: str, chunk: Optional[int]) -> None:
    if not isinstance(arr, np.ndarray):
        raise FeatureShapeError(f"{label} is {type(arr).__name__}, "
                                "expected ndarray", design=design, chunk=chunk)
    if arr.shape != (rows, dim):
        raise FeatureShapeError(f"{label} shape {arr.shape} != ({rows}, {dim})",
                                design=design, chunk=chunk)
    if arr.dtype != np.float64:
        raise FeatureShapeError(f"{label} dtype {arr.dtype} != float64",
                                design=design, chunk=chunk)
    if not np.isfinite(arr).all():
        bad = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise FeatureShapeError(f"{label} has non-finite values (first at "
                                f"row {bad})", design=design, chunk=chunk)


def validate_node_features(x_cell: np.ndarray, x_net: np.ndarray,
                           n_nodes: int, design: str = "?",
                           chunk: Optional[int] = None) -> None:
    """Validate full (or per-chunk) feature matrices; raise
    :class:`FeatureShapeError` on any shape/dtype/finiteness violation."""
    _check_block(x_cell, n_nodes, CELL_FEATURE_DIM, "x_cell", design, chunk)
    _check_block(x_net, n_nodes, NET_FEATURE_DIM, "x_net", design, chunk)


def chunk_feature_block(
        netlist: Netlist, placement: Placement, graph: TimingGraph,
        nodes: np.ndarray, chunk: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows for one chunk's node set.

    Returns ``(cell_rows, cell_nodes, net_rows, net_nodes)`` where
    ``cell_rows[i]`` is the x_cell row of node ``cell_nodes[i]`` (ditto
    net).  Rows are computed by the exact same per-pin functions as the
    whole-graph pass — features are per-node, so scattering the blocks
    into full-size arrays reproduces :func:`node_features` bit for bit.
    Each block is validated before it is returned.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    kinds = graph.kind[nodes]
    cell_nodes = nodes[kinds == CELL_OUT]
    net_nodes = nodes[kinds == NET_SINK]
    cell_rows = np.zeros((len(cell_nodes), CELL_FEATURE_DIM))
    for j, i in enumerate(cell_nodes):
        cell_rows[j] = cell_feature_row(netlist, placement,
                                        int(graph.pin_ids[i]))
    net_rows = np.zeros((len(net_nodes), NET_FEATURE_DIM))
    for j, i in enumerate(net_nodes):
        net_rows[j] = net_feature_row(netlist, placement,
                                      int(graph.pin_ids[i]))
    design = netlist.name
    _check_block(cell_rows, len(cell_nodes), CELL_FEATURE_DIM, "x_cell block",
                 design, chunk)
    _check_block(net_rows, len(net_nodes), NET_FEATURE_DIM, "x_net block",
                 design, chunk)
    return cell_rows, cell_nodes, net_rows, net_nodes


def node_features(netlist: Netlist, placement: Placement,
                  graph: TimingGraph,
                  partition: Any = None) -> Tuple[np.ndarray, np.ndarray]:
    """Compute (x_cell, x_net) feature matrices for all nodes.

    ``x_cell[i]`` is nonzero only for CELL_OUT nodes, ``x_net[i]`` only for
    NET_SINK nodes; the GNN consumes each where appropriate (Eq. (3)).

    With *partition* set (a chunk size in pins), rows are produced
    chunk-by-chunk via :func:`chunk_feature_block` and scattered into the
    full arrays — bit-identical to the monolithic pass (features are
    per-node), but the working set per step is one chunk's rows.
    """
    n = graph.n_nodes
    x_cell = np.zeros((n, CELL_FEATURE_DIM))
    x_net = np.zeros((n, NET_FEATURE_DIM))
    pins = resolve_pins(partition)
    if pins is None:
        for i, pid in enumerate(graph.pin_ids):
            if graph.kind[i] == CELL_OUT:
                x_cell[i] = cell_feature_row(netlist, placement, int(pid))
            elif graph.kind[i] == NET_SINK:
                x_net[i] = net_feature_row(netlist, placement, int(pid))
    else:
        for chunk in partition_graph(graph, pins):
            cell_rows, cell_nodes, net_rows, net_nodes = chunk_feature_block(
                netlist, placement, graph, chunk.nodes, chunk=chunk.index)
            x_cell[cell_nodes] = cell_rows
            x_net[net_nodes] = net_rows
    validate_node_features(x_cell, x_net, n, design=netlist.name)
    return x_cell, x_net
