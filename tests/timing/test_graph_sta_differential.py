"""Differential battery: array-native levelization and batched wire lengths
must equal the per-element loops they replaced, exactly.

Topological levels fix the STA propagation order, the GNN level plans and
the longest-path masks; wire lengths and edge delays feed every arrival,
the optimizer's buffering decisions and the baselines' local labels.  This
module keeps frozen copies of the old per-node Kahn loop, the old per-edge
wire-length loop and the old edge-delay dict comprehensions, and compares
the new code against them with exact ``==`` on every paper preset (input
and optimized netlist) and on seeded random DAGs with isolated nodes.
"""

import numpy as np
import pytest

from repro.flow import FlowConfig, run_flow
from repro.netlist import DESIGN_PRESETS, Netlist
from repro.timing import (
    IncrementalSTA,
    PreRouteEstimator,
    WireLengthProvider,
    build_timing_graph,
    run_sta,
)
from repro.timing.graph import levelize
from repro.utils import require

#: Every paper preset ("large" is bench-only and 40x the size).
PAPER_DESIGNS = tuple(n for n, s in DESIGN_PRESETS.items()
                      if s.split != "bench")

_SCALE = 0.1


# ----------------------------------------------------------------------
# Frozen reference: the loops as they were.  Do not "modernize" them.
# ----------------------------------------------------------------------
def _frozen_kahn(n, all_src, all_dst):
    """The per-node Kahn levelization of ``build_timing_graph``."""
    indegree = np.zeros(n, dtype=np.int64)
    np.add.at(indegree, all_dst, 1)
    level = np.zeros(n, dtype=np.int64)
    frontier = np.where(indegree == 0)[0]
    levels = []
    sorder = np.argsort(all_src, kind="stable")
    succ_idx = all_dst[sorder]
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(succ_ptr, all_src[sorder] + 1, 1)
    succ_ptr = np.cumsum(succ_ptr)

    visited = 0
    cur = frontier
    lvl = 0
    indeg = indegree.copy()
    while len(cur):
        levels.append(np.sort(cur))
        level[cur] = lvl
        visited += len(cur)
        nxt = []
        for u in cur:
            for v in succ_idx[succ_ptr[u]:succ_ptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    nxt.append(int(v))
        cur = np.asarray(nxt, dtype=np.int64)
        lvl += 1
    require(visited == n, "netlist timing graph contains a cycle")
    return level, levels


def _frozen_wire_len(wires, drivers, sinks):
    """The per-edge ``wires.length()`` loop of ``_run_sta_impl``."""
    wire_len = np.empty(len(drivers))
    for k in range(len(drivers)):
        wire_len[k] = wires.length(int(drivers[k]), int(sinks[k]))
    return wire_len


def _frozen_edge_dicts(graph, wire_delay, cell_delay):
    """The eager edge-delay dicts ``_run_sta_impl`` used to build."""
    e_src, e_dst = graph.net_edge_src, graph.net_edge_dst
    c_src, c_dst = graph.cell_edge_src, graph.cell_edge_dst
    net_edge_delay = {
        (int(graph.pin_ids[e_src[k]]), int(graph.pin_ids[e_dst[k]])):
            float(wire_delay[k])
        for k in range(len(e_src))
    }
    cell_edge_delay = {
        (int(graph.pin_ids[c_src[k]]), int(graph.pin_ids[c_dst[k]])):
            float(cell_delay[k])
        for k in range(len(c_src))
    }
    return net_edge_delay, cell_edge_delay


class _PerEdgeWires(WireLengthProvider):
    """A provider answering batch queries with the frozen per-edge loop."""

    def __init__(self, inner: WireLengthProvider) -> None:
        self.inner = inner

    def length(self, driver_pin, sink_pin):
        return self.inner.length(driver_pin, sink_pin)

    def lengths_of(self, drivers, sinks):
        return _frozen_wire_len(self.inner, drivers, sinks)


# ----------------------------------------------------------------------
def _same(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and bool(np.all(a == b)))


def _assert_levels_match(graph_level, graph_levels, n, src, dst):
    level, levels = _frozen_kahn(n, src, dst)
    assert _same(graph_level, level)
    assert len(graph_levels) == len(levels)
    for got, want in zip(graph_levels, levels):
        assert _same(got, want)


def _all_edges(graph):
    return (np.concatenate([graph.net_edge_src, graph.cell_edge_src]),
            np.concatenate([graph.net_edge_dst, graph.cell_edge_dst]))


@pytest.fixture(scope="module", params=PAPER_DESIGNS)
def flow(request):
    return run_flow(request.param, FlowConfig(scale=_SCALE))


@pytest.fixture(params=["input", "opt"])
def design(request, flow):
    if request.param == "input":
        return flow.input_netlist, flow.input_placement, flow.clock_period
    return flow.opt_netlist, flow.opt_placement, flow.clock_period


def test_levels_match_frozen_kahn(design):
    netlist, _, _ = design
    graph = build_timing_graph(netlist)
    _assert_levels_match(graph.level, graph.levels, graph.n_nodes,
                         *_all_edges(graph))


def test_batch_lengths_match_per_edge_loop(design):
    netlist, placement, _ = design
    graph = build_timing_graph(netlist)
    wires = PreRouteEstimator(netlist, placement)
    drivers = graph.pin_ids[graph.net_edge_src]
    sinks = graph.pin_ids[graph.net_edge_dst]
    assert _same(wires.lengths_of(drivers, sinks),
                 _frozen_wire_len(wires, drivers, sinks))


def test_sta_and_edge_delays_match_per_edge_loop(design):
    netlist, placement, clock = design
    graph = build_timing_graph(netlist)
    wires = PreRouteEstimator(netlist, placement)
    res = run_sta(graph, wires, clock)
    ref = run_sta(graph, _PerEdgeWires(wires), clock)
    for name in ("arrival", "slew", "required", "load", "best_pred",
                 "net_delay", "cell_delay"):
        assert _same(getattr(res, name), getattr(ref, name)), name
    assert res.endpoint_arrival == ref.endpoint_arrival
    assert res.endpoint_slack == ref.endpoint_slack

    net_ref, cell_ref = _frozen_edge_dicts(graph, ref.net_delay,
                                           ref.cell_delay)
    # Same keys, values and insertion order as the eager dicts.
    assert list(res.net_edge_delay.items()) == list(net_ref.items())
    assert list(res.cell_edge_delay.items()) == list(cell_ref.items())
    for (drv, snk), delay in net_ref.items():
        assert res.wire_delay(drv, snk) == delay
        assert res.wire_delay(snk, drv) == net_ref.get((snk, drv), 0.0)
    assert res.wire_delay(-1, -1) == 0.0


def test_incremental_package_matches_frozen_dicts(design):
    netlist, placement, clock = design
    inc = IncrementalSTA(netlist, placement, clock)
    res = inc.result
    net_ref, cell_ref = _frozen_edge_dicts(res.graph, res.net_delay,
                                           res.cell_delay)
    assert list(res.net_edge_delay.items()) == list(net_ref.items())
    assert list(res.cell_edge_delay.items()) == list(cell_ref.items())
    full = run_sta(res.graph, PreRouteEstimator(netlist, placement), clock)
    assert _same(res.net_delay, full.net_delay)
    assert _same(res.cell_delay, full.cell_delay)


def test_routed_lengths_match_per_edge_loop(flow):
    graph = flow.signoff_sta.graph
    routed = flow.routing.lengths
    drivers = graph.pin_ids[graph.net_edge_src]
    sinks = graph.pin_ids[graph.net_edge_dst]
    assert _same(routed.lengths_of(drivers, sinks),
                 _frozen_wire_len(routed, drivers, sinks))


# ----------------------------------------------------------------------
# Random DAGs
# ----------------------------------------------------------------------
def _random_dag(seed):
    """Edges between a random subset of nodes, oriented along a random
    permutation (so acyclic), with duplicate edges and isolated nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    wired = rng.permutation(n)[:max(1, int(rng.integers(0, n + 1)))]
    rank = rng.permutation(n)
    n_edges = int(rng.integers(0, 4 * len(wired) + 1))
    a = rng.choice(wired, size=n_edges)
    b = rng.choice(wired, size=n_edges)
    keep = a != b
    a, b = a[keep], b[keep]
    forward = rank[a] < rank[b]
    src = np.where(forward, a, b).astype(np.int64)
    dst = np.where(forward, b, a).astype(np.int64)
    return n, src, dst


@pytest.mark.parametrize("seed", range(25))
def test_random_dag_levels_match_frozen_kahn(seed):
    n, src, dst = _random_dag(seed)
    level, levels = levelize(n, src, dst)
    _assert_levels_match(level, levels, n, src, dst)
    wired = np.union1d(src, dst)
    isolated = np.setdiff1d(np.arange(n), wired)
    assert np.all(level[isolated] == 0)


def test_empty_graph_levels():
    empty = np.zeros(0, dtype=np.int64)
    level, levels = levelize(0, empty, empty)
    assert level.shape == (0,) and levels == []
    level, levels = levelize(3, empty, empty)
    assert _same(level, np.zeros(3, dtype=np.int64))
    assert len(levels) == 1 and _same(levels[0], np.arange(3))


def test_cycle_fails_levelize():
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 0, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="cycle"):
        levelize(6, src, dst)
    with pytest.raises(ValueError, match="cycle"):
        _frozen_kahn(6, src, dst)


def test_combinational_loop_fails_graph_build():
    nl = Netlist("loop")
    g0 = nl.add_cell("INV_X1", "g0")
    g1 = nl.add_cell("INV_X1", "g1")
    nl.connect(nl.create_net(g0.output_pin).nid, g1.input_pins[0])
    nl.connect(nl.create_net(g1.output_pin).nid, g0.input_pins[0])
    with pytest.raises(ValueError, match="cycle"):
        build_timing_graph(nl)
