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

from typing import List

import numpy as np

from repro.netlist import Netlist
from repro.placement import Placement
from repro.timing import NET_SINK, TimingGraph
from repro.utils import require, spawn_rng


def longest_level_path(graph: TimingGraph, endpoint_node: int,
                       rng: np.random.Generator) -> List[int]:
    """Longest path (by level) from the sources into *endpoint_node*.

    Implements the paper's reverse DFS: from a node at level *i*, step to a
    predecessor at level *i − 1* (one always exists because levels are
    longest-path depths); ties are broken randomly.  Returns node indices,
    source first.
    """
    path = [endpoint_node]
    node = endpoint_node
    while graph.level[node] > 0:
        preds = graph.predecessors(node)
        require(len(preds) > 0, "non-source node without predecessors")
        want = graph.level[node] - 1
        candidates = preds[graph.level[preds] == want]
        if len(candidates) == 0:
            # Defensive: fall back to the deepest predecessor.
            candidates = preds[graph.level[preds] == graph.level[preds].max()]
        node = int(candidates[rng.integers(len(candidates))]) \
            if len(candidates) > 1 else int(candidates[0])
        path.append(node)
    path.reverse()
    return path


def path_net_edges(graph: TimingGraph, path: List[int]) -> List[tuple]:
    """The (driver pin, sink pin) net edges along a node path."""
    edges = []
    for u, v in zip(path, path[1:]):
        if graph.kind[v] == NET_SINK:
            edges.append((int(graph.pin_ids[u]), int(graph.pin_ids[v])))
    return edges


def rasterize_region(netlist: Netlist, placement: Placement,
                     net_edges: List[tuple], side_x: int,
                     side_y: int) -> np.ndarray:
    """Union of net-edge bounding boxes as a (side_x, side_y) boolean mask."""
    die = placement.die
    mask = np.zeros((side_x, side_y), dtype=bool)
    bw = die.width / side_x
    bh = die.height / side_y
    for drv, snk in net_edges:
        xd, yd = placement.pin_position(netlist, drv)
        xs, ys = placement.pin_position(netlist, snk)
        i0 = int(min(max(min(xd, xs) / bw, 0), side_x - 1))
        i1 = int(min(max(max(xd, xs) / bw, 0), side_x - 1))
        j0 = int(min(max(min(yd, ys) / bh, 0), side_y - 1))
        j1 = int(min(max(max(yd, ys) / bh, 0), side_y - 1))
        mask[i0:i1 + 1, j0:j1 + 1] = True
    return mask


def build_endpoint_paths(name: str, graph: TimingGraph,
                         seed: int = 0) -> List[List[tuple]]:
    """Per-endpoint critical-path net edges, in endpoint order.

    The paths depend only on graph *topology* (plus the seeded tie-break
    rng), not on placement, so callers that edit positions — notably
    :class:`repro.serve.DesignSession` — can compute them once and
    re-rasterize only the endpoints an edit touches.  The rng is spawned
    and consumed exactly as :func:`build_endpoint_masks` always did, so
    cached paths and a from-scratch mask build agree bit-for-bit.
    """
    rng = spawn_rng(f"mask/{name}", seed)
    return [path_net_edges(graph, longest_level_path(graph, int(ep), rng))
            for ep in graph.endpoints]


def rasterize_endpoint_masks(netlist: Netlist, placement: Placement,
                             paths: List[List[tuple]],
                             map_bins: int) -> np.ndarray:
    """Rasterize per-endpoint path edges into flattened boolean masks."""
    require(map_bins % 4 == 0, "map_bins must be divisible by 4")
    side = map_bins // 4
    masks = np.zeros((len(paths), side * side), dtype=bool)
    for k, edges in enumerate(paths):
        masks[k] = rasterize_region(netlist, placement, edges,
                                    side, side).ravel()
    return masks


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
