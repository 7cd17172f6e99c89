"""Pin-level timing graph with topological levelization.

This is the data representation of the paper's Section IV-A: every pin is a
node; **net edges** connect a net's driver pin to each sink pin, **cell
edges** connect each input pin of a combinational cell to its output pin.
Cell edges of sequential elements are cut, so the graph is a DAG; its
topological levels drive both the STA propagation order and the paper's
GNN message-passing schedule and longest-path masking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_tracer
from repro.utils import require

# Node kinds.
SOURCE = 0     # startpoints: primary-input pads and flip-flop Q pins
NET_SINK = 1   # destination of a net edge
CELL_OUT = 2   # destination of cell edges (combinational output pin)


@dataclass
class TimingGraph:
    """Array-form DAG over the pins of a netlist.

    Node order is the sorted pin-id order at build time; ``pin_ids[i]`` maps
    node *i* back to its netlist pin.
    """

    netlist: Netlist
    pin_ids: np.ndarray                 # (n,) node -> pin id
    node_of: Dict[int, int]             # pin id -> node
    kind: np.ndarray                    # (n,) SOURCE / NET_SINK / CELL_OUT
    level: np.ndarray                   # (n,) topological level, sources = 0
    levels: List[np.ndarray]            # nodes grouped by level (ascending)
    net_edge_src: np.ndarray            # (E_n,) driver node per net edge
    net_edge_dst: np.ndarray            # (E_n,) sink node per net edge
    cell_edge_src: np.ndarray           # (E_c,) input node per cell edge
    cell_edge_dst: np.ndarray           # (E_c,) output node per cell edge
    # CSR-style predecessor structure over ALL edges (net + cell):
    pred_ptr: np.ndarray                # (n+1,)
    pred_idx: np.ndarray                # (sum,) predecessor nodes
    pred_is_cell: np.ndarray            # (sum,) True where the edge is a cell edge
    # Populated and validated by :func:`build_timing_graph`; ``None`` only
    # on hand-rolled partial graphs (the annotation is honest about it).
    endpoints: Optional[np.ndarray] = None    # endpoint nodes
    startpoints: Optional[np.ndarray] = None  # source nodes

    @property
    def n_nodes(self) -> int:
        return len(self.pin_ids)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @cached_property
    def net_edge_of_sink(self) -> np.ndarray:
        """(n,) index of each node's incoming net edge, -1 if it has none."""
        edge = np.full(self.n_nodes, -1, dtype=np.int64)
        edge[self.net_edge_dst] = np.arange(len(self.net_edge_dst))
        return edge

    @cached_property
    def cell_edges_at(self) -> List[np.ndarray]:
        """Cell edge ids grouped by the level of their output node.

        Entry *lvl* holds the edges into level *lvl* in ascending edge
        order (empty where there are none, always at level 0), so both
        STA passes visit each level's arcs in the same order.
        """
        dst_level = self.level[self.cell_edge_dst]
        order = np.argsort(dst_level, kind="stable")
        bounds = np.searchsorted(dst_level[order],
                                 np.arange(self.n_levels + 1))
        return [order[bounds[lvl]:bounds[lvl + 1]]
                for lvl in range(self.n_levels)]

    def predecessors(self, node: int) -> np.ndarray:
        return self.pred_idx[self.pred_ptr[node]:self.pred_ptr[node + 1]]


def levelize(n: int, src: np.ndarray,
             dst: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Topological levels of the DAG on nodes ``0..n-1`` with edges
    ``src[k] -> dst[k]``: ``(level per node, ascending nodes per level)``.

    Kahn's algorithm as a frontier sweep over the successor CSR: each
    step gathers the frontier's successors, decrements their indegrees
    with one bincount, and the touched nodes that reach 0 are the next
    level.  Nodes without edges sit at level 0; a cycle fails.
    """
    indeg = np.bincount(dst, minlength=n)
    outdeg = np.bincount(src, minlength=n)
    succ_idx = dst[np.argsort(src, kind="stable")]
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(outdeg, out=succ_ptr[1:])
    level = np.zeros(n, dtype=np.int64)
    levels: List[np.ndarray] = []
    visited = 0
    cur = np.flatnonzero(indeg == 0)
    while len(cur):
        levels.append(np.sort(cur))
        level[cur] = len(levels) - 1
        visited += len(cur)
        # CSR rows of the frontier, back to back: entry j of row u sits at
        # succ_ptr[u] + j, i.e. at its gather position shifted by the
        # row's start minus the row's offset in the gather.
        counts = outdeg[cur]
        ends = np.cumsum(counts)
        if not ends[-1]:
            break
        shift = np.repeat(succ_ptr[cur] - (ends - counts), counts)
        succ = succ_idx[np.arange(ends[-1]) + shift]
        dec = np.bincount(succ, minlength=n)
        touched = np.flatnonzero(dec)
        left = indeg[touched] - dec[touched]
        indeg[touched] = left
        cur = touched[left == 0]
    require(visited == n, "netlist timing graph contains a cycle")
    return level, levels


def build_timing_graph(netlist: Netlist) -> TimingGraph:
    """Construct the pin-level DAG and its topological levels.

    Records one ``timing.graph.build`` span.
    """
    with get_tracer().span("timing.graph.build",
                           design=netlist.name) as sp:
        graph = _build_timing_graph(netlist)
        sp.set(n_nodes=graph.n_nodes, n_levels=graph.n_levels)
    return graph


def _build_timing_graph(netlist: Netlist) -> TimingGraph:
    pin_list = sorted(netlist.pins)
    pin_ids = np.array(pin_list, dtype=np.int64)
    node_of = {p: i for i, p in enumerate(pin_list)}
    n = len(pin_ids)

    net_src, net_dst = [], []
    for drv, snk in netlist.net_edges():
        net_src.append(node_of[drv])
        net_dst.append(node_of[snk])
    cell_src, cell_dst = [], []
    for ip, op in netlist.cell_edges():
        cell_src.append(node_of[ip])
        cell_dst.append(node_of[op])

    net_edge_src = np.asarray(net_src, dtype=np.int64)
    net_edge_dst = np.asarray(net_dst, dtype=np.int64)
    cell_edge_src = np.asarray(cell_src, dtype=np.int64)
    cell_edge_dst = np.asarray(cell_dst, dtype=np.int64)

    kind = np.full(n, SOURCE, dtype=np.int8)
    kind[net_edge_dst] = NET_SINK
    kind[cell_edge_dst] = CELL_OUT

    # Predecessor CSR over the union of both edge types.
    all_src = np.concatenate([net_edge_src, cell_edge_src])
    all_dst = np.concatenate([net_edge_dst, cell_edge_dst])
    is_cell = np.concatenate([
        np.zeros(len(net_edge_src), dtype=bool),
        np.ones(len(cell_edge_src), dtype=bool),
    ])
    order = np.argsort(all_dst, kind="stable")
    sorted_dst = all_dst[order]
    pred_idx = all_src[order]
    pred_is_cell = is_cell[order]
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(pred_ptr, sorted_dst + 1, 1)
    pred_ptr = np.cumsum(pred_ptr)

    level, levels = levelize(n, all_src, all_dst)

    endpoints = np.array(sorted(node_of[p] for p in netlist.endpoint_pins()),
                         dtype=np.int64)
    startpoints = np.array(sorted(node_of[p] for p in netlist.startpoint_pins()),
                           dtype=np.int64)
    require(len(endpoints) == 0 or
            (endpoints[0] >= 0 and endpoints[-1] < n),
            "endpoint nodes out of range")
    require(len(startpoints) == 0 or
            (startpoints[0] >= 0 and startpoints[-1] < n),
            "startpoint nodes out of range")
    require(bool(np.all(level[startpoints] == 0)),
            "startpoints must sit at topological level 0")
    return TimingGraph(
        netlist=netlist,
        pin_ids=pin_ids,
        node_of=node_of,
        kind=kind,
        level=level,
        levels=levels,
        net_edge_src=net_edge_src,
        net_edge_dst=net_edge_dst,
        cell_edge_src=cell_edge_src,
        cell_edge_dst=cell_edge_dst,
        pred_ptr=pred_ptr,
        pred_idx=pred_idx,
        pred_is_cell=pred_is_cell,
        endpoints=endpoints,
        startpoints=startpoints,
    )
