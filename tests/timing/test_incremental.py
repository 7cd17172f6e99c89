"""Tests: incremental STA must agree exactly with full STA."""

import numpy as np
import pytest

from repro.obs import get_metrics
from repro.timing import PreRouteEstimator, build_timing_graph, run_sta
from repro.timing.incremental import IncrementalSTA


@pytest.fixture
def design(tiny_spec):
    from repro.netlist import generate_netlist
    from repro.placement import build_die, legalize, place

    nl = generate_netlist(tiny_spec)
    die = build_die(nl, tiny_spec)
    pl = place(nl, die)
    legalize(nl, pl)
    return nl, pl


def _full(nl, pl, period):
    return run_sta(build_timing_graph(nl), PreRouteEstimator(nl, pl), period)


ARRAYS = ("arrival", "slew", "required", "load", "best_pred", "net_delay",
          "cell_delay")


def _assert_equal(inc_res, full_res):
    for name in ARRAYS:
        assert np.array_equal(getattr(inc_res, name),
                              getattr(full_res, name)), name
    assert inc_res.endpoint_arrival == full_res.endpoint_arrival
    assert inc_res.endpoint_slack == full_res.endpoint_slack


def test_initial_state_matches_full_sta(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    _assert_equal(inc.result, _full(nl, pl, 800.0))


def test_resize_refresh_matches_full_sta(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    cid = next(c.cid for c in nl.combinational_cells()
               if nl.cell_type(c.cid).drive == 1)
    kind = nl.cell_type(cid).kind.name
    inc.resize_cell(cid, f"{kind}_X8")
    got = inc.refresh()
    _assert_equal(got, _full(nl, pl, 800.0))
    assert inc.partial_updates == 1


def test_flip_flop_resize_relaunches_its_q(design):
    """A flip-flop resize changes its clock-to-Q launch: the refresh
    re-seeds the Q pin's arrival before it sweeps."""
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    ff = nl.sequential_cells()[0]
    ctype = nl.cell_type(ff.cid)
    target = nl.library.upsize(ctype) or nl.library.downsize(ctype)
    assert target.clk_to_q != ctype.clk_to_q
    q = inc.graph.node_of[ff.output_pin]
    inc.resize_cell(ff.cid, target.name)
    got = inc.refresh()
    assert got.arrival[q] == target.clk_to_q
    _assert_equal(got, _full(nl, pl, 800.0))


def test_move_refresh_matches_full_sta(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    cid = sorted(nl.cells)[len(nl.cells) // 2]
    x, y = pl.position(cid)
    inc.move_cell(cid, x + 10.0, y + 5.0)
    got = inc.refresh()
    _assert_equal(got, _full(nl, pl, 800.0))


def test_refresh_counts_the_nodes_it_sweeps(design):
    """``sta.incremental.nodes_swept`` observes, per refresh, every node
    at or above the lowest level the edit dirtied."""
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    g = inc.graph
    rng = np.random.default_rng(11)
    cid = int(rng.choice(sorted(nl.cells)))
    inst = nl.cells[cid]
    nets = [nl.nets[nl.pins[p].net]
            for p in list(inst.input_pins) + [inst.output_pin]
            if nl.pins[p].net is not None]
    touched = [g.node_of[p] for net in nets for p in [net.driver, *net.sinks]]
    start = max(1, int(g.level[touched].min()))
    swept = get_metrics().histogram("sta.incremental.nodes_swept")
    count, total = swept.count, swept.summary()["total"]
    x, y = pl.position(cid)
    inc.move_cell(cid, x + 3.0, y + 2.0)
    inc.refresh()
    assert swept.count == count + 1
    assert swept.summary()["total"] - total == np.count_nonzero(
        g.level >= start)


def test_sequence_of_edits(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    comb = [c.cid for c in nl.combinational_cells()][:5]
    for cid in comb:
        ctype = nl.cell_type(cid)
        bigger = nl.library.upsize(ctype)
        if bigger is not None:
            inc.resize_cell(cid, bigger.name)
        inc.refresh()
    _assert_equal(inc.result, _full(nl, pl, 800.0))
    assert inc.partial_updates >= 1


def test_refresh_without_edits_is_noop(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    before = inc.result
    assert inc.refresh() is before
    assert inc.partial_updates == 0


def test_rebuild_after_structural_edit(design):
    nl, pl = design
    from repro.opt.moves import insert_buffer
    from repro.placement import RowGrid

    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    grid = RowGrid.from_placement(nl, pl)
    net = next(n for n in nl.nets.values() if len(n.sinks) >= 2)
    assert insert_buffer(nl, pl, grid, net.nid, [net.sinks[0]]) is not None
    got = inc.rebuild()
    _assert_equal(got, _full(nl, pl, 800.0))
    assert inc.full_rebuilds == 1


def test_resize_changes_downstream_timing(design):
    nl, pl = design
    inc = IncrementalSTA(nl, pl, clock_period=800.0)
    before = dict(inc.result.endpoint_arrival)
    # Upsize the driver of the worst endpoint's critical path head.
    ep = min(inc.result.endpoint_slack, key=inc.result.endpoint_slack.get)
    path = inc.result.critical_path(ep)
    cid = next(nl.pins[p].cell for p in path
               if nl.pins[p].cell is not None
               and not nl.cell_type(nl.pins[p].cell).is_sequential)
    ctype = nl.cell_type(cid)
    bigger = nl.library.upsize(ctype)
    if bigger is None:
        pytest.skip("cell already at max drive")
    inc.resize_cell(cid, bigger.name)
    after = inc.refresh().endpoint_arrival
    assert any(abs(after[p] - before[p]) > 1e-6 for p in after)
