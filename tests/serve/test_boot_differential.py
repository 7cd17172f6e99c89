"""A session on the boot's one graph equals the old per-session rebuild.

Before the boot built each design's timing graph once, a session built
its own graph for the featurizer and another inside its incremental
STA, featurization built a third, and the endpoint critical paths were
walked twice with a per-step numpy mask, then rasterized one net-edge
box at a time.  The frozen copies below are that code.  On every paper
preset, at design seeds 0 and 1, with one corner, three corners and
``partition_pins=64``, a session opened by name (the fleet worker's
path) must hold exactly what the frozen construction builds from the
same pre-route design: paths, masks, ``x_cell``/``x_net`` and every STA
array — and still after a committed batch of moves re-rasterizes the
dirty masks.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.flow import FlowConfig
from repro.ml import node_features
from repro.netlist import PAPER_DESIGNS
from repro.serve import Edit, SessionFactory
from repro.timing import NET_SINK, IncrementalSTA, build_timing_graph
from repro.utils import require, spawn_rng

from .conftest import MAP_BINS

SCALE = 0.2
THREE_CORNERS = ("base", "slow", "fast")
#: case id -> (FlowConfig overrides, served corners)
CASES = {
    "one-corner": ({}, None),
    "three-corners": ({"corners": THREE_CORNERS}, THREE_CORNERS),
    "partitioned": ({"partition_pins": 64}, None),
}
STA_ARRAYS = ("arrival", "slew", "required", "load", "best_pred",
              "net_delay", "cell_delay")


# --- frozen: the walk, the rasterizer and the session construction ----
def old_longest_level_path(graph, endpoint_node: int, rng) -> List[int]:
    path = [endpoint_node]
    node = endpoint_node
    while graph.level[node] > 0:
        preds = graph.predecessors(node)
        require(len(preds) > 0, "non-source node without predecessors")
        want = graph.level[node] - 1
        candidates = preds[graph.level[preds] == want]
        if len(candidates) == 0:
            candidates = preds[graph.level[preds] == graph.level[preds].max()]
        node = int(candidates[rng.integers(len(candidates))]) \
            if len(candidates) > 1 else int(candidates[0])
        path.append(node)
    path.reverse()
    return path


def old_path_net_edges(graph, path):
    edges = []
    for u, v in zip(path, path[1:]):
        if graph.kind[v] == NET_SINK:
            edges.append((int(graph.pin_ids[u]), int(graph.pin_ids[v])))
    return edges


def old_rasterize_region(netlist, placement, net_edges, side_x, side_y):
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


def old_paths(name, graph, seed):
    rng = spawn_rng(f"mask/{name}", seed)
    return [old_path_net_edges(graph, old_longest_level_path(
        graph, int(ep), rng)) for ep in graph.endpoints]


def old_masks(netlist, placement, paths):
    side = MAP_BINS // 4
    masks = np.zeros((len(paths), side * side), dtype=bool)
    for k, edges in enumerate(paths):
        masks[k] = old_rasterize_region(netlist, placement, edges,
                                        side, side).ravel()
    return masks


def old_session(netlist, placement, clock_period, seed, partition_pins):
    """What a session used to build on open: the inputs' graph, the
    session's own graph and paths, and an STA with a third graph."""
    inputs_graph = build_timing_graph(netlist)
    x_cell, x_net = node_features(netlist, placement, inputs_graph,
                                  partition=partition_pins)
    graph = build_timing_graph(netlist)
    paths = old_paths(netlist.name, graph, seed)
    return dict(x_cell=x_cell, x_net=x_net, paths=paths,
                masks=old_masks(netlist, placement, paths),
                sta=IncrementalSTA(netlist, placement, clock_period))


# --- the battery ------------------------------------------------------
def assert_same_sta(got, ref) -> None:
    for name in STA_ARRAYS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.endpoint_arrival == ref.endpoint_arrival
    assert got.endpoint_slack == ref.endpoint_slack


def moves(session, rng, n: int = 6) -> List[Edit]:
    """Random moves of cells on the endpoints' critical paths, so every
    move dirties at least one mask."""
    nl, die = session.netlist, session.placement.die
    cells = sorted({nl.pins[pid].cell
                    for edges in session.featurizer.paths
                    for edge in edges for pid in edge
                    if nl.pins[pid].cell is not None})
    return [Edit(op="move", cell=int(cells[i]),
                 x=float(rng.uniform(0, die.width)),
                 y=float(rng.uniform(0, die.height)))
            for i in rng.choice(len(cells), size=min(n, len(cells)),
                                replace=False)]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("design", PAPER_DESIGNS)
def test_session_equals_the_frozen_construction(
        design, seed, case, served_predictor, three_corner_predictor):
    overrides, corners = CASES[case]
    config = FlowConfig(scale=SCALE, base_seed=seed, **overrides)
    predictor = (three_corner_predictor if corners
                 else served_predictor)
    session = SessionFactory(lambda: predictor, flow_config=config,
                             corners=corners, default_seed=seed
                             ).open(design)
    nl, pl = session.netlist, session.placement
    ref = old_session(nl, pl, session.clock_period, seed,
                      config.partition_pins)

    assert session.featurizer.paths == ref["paths"]
    sample = session.sample
    for name in ("x_cell", "x_net", "masks"):
        a, b = getattr(sample, name), ref[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert_same_sta(session.sta.result, ref["sta"].result)

    # A committed batch of moves re-rasterizes the dirty masks on the
    # session's one graph; the frozen rasterizer agrees.
    before = sample.masks.copy()
    session.apply(moves(session, np.random.default_rng(seed)))
    np.testing.assert_array_equal(sample.masks,
                                  old_masks(nl, pl, ref["paths"]))
    assert not np.array_equal(sample.masks, before), "no mask was dirtied"
    assert_same_sta(session.sta.result,
                    IncrementalSTA(nl, pl, session.clock_period).result)
    session.close()
