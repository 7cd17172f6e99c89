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

from typing import Any, List, Optional, Tuple

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


def feature_rows(
        netlist: Netlist, placement: Placement, graph: TimingGraph,
        nodes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows of a node set, computed as arrays.

    Returns ``(cell_rows, cell_nodes, net_rows, net_nodes)`` where
    ``cell_rows[i]`` is the x_cell row of node ``cell_nodes[i]`` (ditto
    net); nodes of other kinds are dropped.  A row depends only on its
    own node, so the rows of any node set (a chunk, or the dirty rows of
    an incremental refresh) equal the whole graph's bit for bit.  A
    net's load adds its sinks' terms in sink order, pin cap then wire
    cap.
    """
    lib = netlist.library
    wire = lib.wire
    pins, nets, cells = netlist.pins, netlist.nets, netlist.cells
    nodes = np.asarray(nodes, dtype=np.int64)
    kinds = graph.kind[nodes]
    cell_nodes = nodes[kinds == CELL_OUT]
    net_nodes = nodes[kinds == NET_SINK]

    def sink_caps(sinks: List[int]) -> np.ndarray:
        """Input cap of each sink pin, 2.0 for an output pad."""
        return np.fromiter(
            (2.0 if (cid := pins[p].cell) is None
             else lib.cell(cells[cid].type_name).input_cap for p in sinks),
            dtype=float, count=len(sinks))

    def distances(drivers: List[int], sinks: List[int]) -> np.ndarray:
        d = placement.pin_positions(netlist, drivers)
        s = placement.pin_positions(netlist, sinks)
        return np.abs(d[:, 0] - s[:, 0]) + np.abs(d[:, 1] - s[:, 1])

    # --- x_net: one row per net sink.
    sinks = graph.pin_ids[net_nodes].tolist()
    dist = distances([nets[pins[p].net].driver for p in sinks], sinks)
    cap = sink_caps(sinks)
    wire_delay = wire.resistance(dist) * (0.5 * wire.capacitance(dist) + cap)
    net_rows = np.empty((len(net_nodes), NET_FEATURE_DIM))
    net_rows[:, 0] = dist / DISTANCE_SCALE
    net_rows[:, 1] = wire_delay / DELAY_SCALE
    net_rows[:, 2] = cap / PIN_CAP_SCALE

    # --- x_cell: one row per combinational output.  ``terms`` lists
    # every (row, driver, sink) of the rows' nets, sinks in net order;
    # ``rank`` is the sink's position in its net.
    n_cell = len(cell_nodes)
    types: List[Tuple[float, float, float, int]] = []
    fanout = np.zeros(n_cell)
    term_row: List[int] = []
    term_drv: List[int] = []
    term_sink: List[int] = []
    rank: List[int] = []
    for j, pid in enumerate(graph.pin_ids[cell_nodes].tolist()):
        pin = pins[pid]
        ctype = lib.cell(cells[pin.cell].type_name)
        types.append((ctype.drive, ctype.input_cap, ctype.drive_resistance,
                      lib.kind_index(ctype.kind.name)))
        if pin.net is None:
            continue
        net = nets[pin.net]
        fanout[j] = len(net.sinks)
        term_row.extend([j] * len(net.sinks))
        term_drv.extend([net.driver] * len(net.sinks))
        term_sink.extend(net.sinks)
        rank.extend(range(len(net.sinks)))
    term_cap = sink_caps(term_sink)
    term_wire = wire.capacitance(distances(term_drv, term_sink))
    load = np.zeros(n_cell)
    # Step r adds every net's r-th sink: a row sees its terms in order.
    by_rank = np.argsort(np.asarray(rank, dtype=np.int64), kind="stable")
    bounds = np.cumsum(np.bincount(np.asarray(rank, dtype=np.int64)))
    rows_of = np.asarray(term_row, dtype=np.int64)[by_rank]
    caps_of, wires_of = term_cap[by_rank], term_wire[by_rank]
    lo = 0
    for hi in bounds.tolist():
        r = rows_of[lo:hi]
        load[r] = (load[r] + caps_of[lo:hi]) + wires_of[lo:hi]
        lo = hi
    attrs = np.array(types, dtype=float).reshape(n_cell, 4)
    cell_rows = np.zeros((n_cell, CELL_FEATURE_DIM))
    cell_rows[:, 0] = attrs[:, 0] / DRIVE_SCALE
    cell_rows[:, 1] = attrs[:, 1] / PIN_CAP_SCALE
    cell_rows[:, 2] = fanout / FANOUT_SCALE
    cell_rows[:, 3] = load / LOAD_SCALE
    cell_rows[:, 4] = attrs[:, 2] * load / DELAY_SCALE
    cell_rows[np.arange(n_cell), 5 + attrs[:, 3].astype(np.int64)] = 1.0
    return cell_rows, cell_nodes, net_rows, net_nodes


def chunk_feature_block(
        netlist: Netlist, placement: Placement, graph: TimingGraph,
        nodes: np.ndarray, chunk: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows for one chunk's node set, validated.

    Returns :func:`feature_rows` of *nodes*.  Features are per-node, so
    scattering the blocks into full-size arrays reproduces
    :func:`node_features` bit for bit.
    """
    cell_rows, cell_nodes, net_rows, net_nodes = feature_rows(
        netlist, placement, graph, nodes)
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
        blocks = [feature_rows(netlist, placement, graph, np.arange(n))]
    else:
        blocks = (chunk_feature_block(netlist, placement, graph, chunk.nodes,
                                      chunk=chunk.index)
                  for chunk in partition_graph(graph, pins))
    for cell_rows, cell_nodes, net_rows, net_nodes in blocks:
        x_cell[cell_nodes] = cell_rows
        x_net[net_nodes] = net_rows
    validate_node_features(x_cell, x_net, n, design=netlist.name)
    return x_cell, x_net
