"""Endpoint-wise critical-region masking (paper Section V-B, Fig. 6).

For each timing endpoint we find **the longest path by topological level**
(not by delay — levels are available before any timing run, which is what
makes the masking cheap) with a reverse walk that always steps to a
predecessor one level up, then rasterize the union of the bounding boxes of
the *net edges* along that path (Eqs. (4)–(5)) into a mask at one quarter of
the layout-map resolution — the resolution of the CNN's output map
``M^L`` (Eq. (6) applies the mask via Hadamard product).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.placement import Placement
from repro.timing import NET_SINK, TimingGraph
from repro.utils import require, spawn_rng


def _level_up_csr(graph: TimingGraph) -> Tuple[list, list]:
    """Per-node predecessors one level up, as CSR ``(ptr, idx)`` lists.

    Row *v* holds the predecessors ``u`` of *v* with ``level[u] ==
    level[v] - 1``, in predecessor-CSR order — exactly the candidates
    the reverse walk picks from.  Every non-source node has one, because
    levels are longest-path depths.
    """
    ptr = graph.pred_ptr
    counts = np.diff(ptr)
    dst = np.repeat(np.arange(graph.n_nodes), counts)
    up = graph.level[graph.pred_idx] == graph.level[dst] - 1
    up_counts = np.bincount(dst[up], minlength=graph.n_nodes)
    require(bool(np.all(up_counts[graph.level > 0] > 0)),
            "non-source node without a predecessor one level up")
    up_ptr = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum(up_counts, out=up_ptr[1:])
    return up_ptr.tolist(), graph.pred_idx[up].tolist()


def _walk_up(ptr: list, idx: list, level: list, node: int,
             rng: np.random.Generator) -> List[int]:
    """One reverse walk from *node* to a source, endpoint first.

    Ties draw ``rng.integers(count)``; a single candidate draws nothing.
    """
    path = [node]
    while level[node] > 0:
        start = ptr[node]
        count = ptr[node + 1] - start
        node = idx[start + int(rng.integers(count))] if count > 1 \
            else idx[start]
        path.append(node)
    return path


def longest_level_path(graph: TimingGraph, endpoint_node: int,
                       rng: np.random.Generator) -> List[int]:
    """Longest path (by level) from the sources into *endpoint_node*.

    Implements the paper's reverse DFS: from a node at level *i*, step to a
    predecessor at level *i − 1* (one always exists because levels are
    longest-path depths); ties are broken randomly.  Returns node indices,
    source first.  Each call builds the whole graph's walk lists, so
    walk every endpoint with :func:`build_endpoint_paths` instead.
    """
    ptr, idx = _level_up_csr(graph)
    path = _walk_up(ptr, idx, graph.level.tolist(), int(endpoint_node), rng)
    path.reverse()
    return path


def _net_edges(pin: Sequence[int], kind: Sequence[int],
               path: List[int]) -> List[tuple]:
    """The (driver pin, sink pin) net edges along a source-first node
    path; *pin* and *kind* are the graph's ``pin_ids`` and ``kind``, as
    arrays or lists."""
    return [(int(pin[u]), int(pin[v])) for u, v in zip(path, path[1:])
            if kind[v] == NET_SINK]


def path_net_edges(graph: TimingGraph, path: List[int]) -> List[tuple]:
    """The (driver pin, sink pin) net edges along a node path."""
    return _net_edges(graph.pin_ids, graph.kind, path)


def rasterize_region(netlist: Netlist, placement: Placement,
                     net_edges: List[tuple], side_x: int,
                     side_y: int) -> np.ndarray:
    """Union of net-edge bounding boxes as a (side_x, side_y) boolean mask."""
    return paint_path_boxes(netlist, placement, [net_edges],
                            side_x, side_y)[0].reshape(side_x, side_y)


def paint_path_boxes(netlist: Netlist, placement: Placement,
                     paths: Sequence[Sequence[tuple]], side_x: int,
                     side_y: int) -> np.ndarray:
    """Each path's union of net-edge bounding boxes, in one pass.

    Row *k* of the ``(len(paths), side_x * side_y)`` boolean result is
    the flattened ``(side_x, side_y)`` mask of ``paths[k]``.  A box spans
    the bins of its two pins' positions, clamped to the grid; the boxes
    of every path go into one 2-D difference array whose prefix sums
    count the boxes over each bin.
    """
    die = placement.die
    bw = die.width / side_x
    bh = die.height / side_y
    counts = [len(edges) for edges in paths]
    pins = [p for edges in paths for edge in edges for p in edge]
    xy = placement.pin_positions(netlist, pins).reshape(-1, 2, 2)
    lo = xy.min(axis=1)
    hi = xy.max(axis=1)
    i0 = np.minimum(np.maximum(lo[:, 0] / bw, 0), side_x - 1).astype(np.int64)
    i1 = np.minimum(np.maximum(hi[:, 0] / bw, 0), side_x - 1).astype(np.int64)
    j0 = np.minimum(np.maximum(lo[:, 1] / bh, 0), side_y - 1).astype(np.int64)
    j1 = np.minimum(np.maximum(hi[:, 1] / bh, 0), side_y - 1).astype(np.int64)
    # Corner updates of each box in a (paths, side_x + 1, side_y + 1) grid.
    row = np.repeat(np.arange(len(paths)), counts) * (side_x + 1)
    stride = side_y + 1
    add = np.concatenate([(row + i0) * stride + j0,
                          (row + i1 + 1) * stride + j1 + 1])
    sub = np.concatenate([(row + i1 + 1) * stride + j0,
                          (row + i0) * stride + j1 + 1])
    size = len(paths) * (side_x + 1) * stride
    cover = np.zeros(size, dtype=np.int32)
    np.add.at(cover, add, 1)
    np.subtract.at(cover, sub, 1)
    cover = cover.reshape(len(paths), side_x + 1, stride)
    np.cumsum(cover, axis=1, out=cover)
    np.cumsum(cover, axis=2, out=cover)
    return (cover[:, :side_x, :side_y] > 0).reshape(len(paths),
                                                    side_x * side_y)


def build_endpoint_paths(name: str, graph: TimingGraph,
                         seed: int = 0) -> List[List[tuple]]:
    """Per-endpoint critical-path net edges, in endpoint order.

    The paths depend only on graph *topology* (plus the seeded tie-break
    rng), not on placement, so callers that edit positions — notably
    :class:`repro.serve.DesignSession` — compute them once and
    re-rasterize only the endpoints an edit touches.  Endpoints are
    walked in order on one rng spawned from *name* and *seed*, each step
    drawing only on a tie, as :func:`longest_level_path` does.
    """
    rng = spawn_rng(f"mask/{name}", seed)
    ptr, idx = _level_up_csr(graph)
    level = graph.level.tolist()
    pin = graph.pin_ids.tolist()
    kind = graph.kind.tolist()
    paths = []
    for ep in graph.endpoints.tolist():
        nodes = _walk_up(ptr, idx, level, ep, rng)
        nodes.reverse()
        paths.append(_net_edges(pin, kind, nodes))
    return paths


def rasterize_endpoint_masks(netlist: Netlist, placement: Placement,
                             paths: List[List[tuple]],
                             map_bins: int) -> np.ndarray:
    """Rasterize per-endpoint path edges into flattened boolean masks."""
    require(map_bins % 4 == 0, "map_bins must be divisible by 4")
    side = map_bins // 4
    return paint_path_boxes(netlist, placement, paths, side, side)


def stack_endpoint_masks(samples) -> np.ndarray:
    """Stack per-design endpoint masks along one batched endpoint axis.

    The masked-layout product (Eq. (6)) is per-endpoint, so masks of
    several designs batch by simple concatenation — provided every design
    was rasterized at the same resolution (one CNN output map serves the
    whole batch).  Returns a ``(sum_E, P4)`` boolean array.
    """
    require(len(samples) > 0, "need at least one sample to stack")
    p4 = samples[0].masks.shape[1]
    for s in samples[1:]:
        require(s.masks.shape[1] == p4,
                f"cannot stack masks of widths {p4} and "
                f"{s.masks.shape[1]} ({s.name}): designs were rasterized "
                "at different map resolutions")
    if len(samples) == 1:
        return samples[0].masks
    return np.concatenate([s.masks for s in samples], axis=0)


def build_endpoint_masks(netlist: Netlist, placement: Placement,
                         graph: TimingGraph, map_bins: int,
                         seed: int = 0) -> np.ndarray:
    """Critical-region masks for every endpoint.

    Returns a boolean array of shape ``(E, (map_bins // 4) ** 2)`` — one
    flattened mask per endpoint, at the resolution of the CNN output map
    (M/4 × N/4 for an M×N input, Section V-A).
    """
    paths = build_endpoint_paths(netlist.name, graph, seed)
    return rasterize_endpoint_masks(netlist, placement, paths, map_bins)
