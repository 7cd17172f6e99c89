"""Tests for netlist statistics."""

from repro.netlist import generate_preset
from repro.netlist.stats import compute_stats

from tests.conftest import make_toy_netlist


def test_toy_stats():
    stats = compute_stats(make_toy_netlist())
    assert stats.name == "toy"
    assert stats.n_pins == 11
    assert stats.n_endpoints == 2
    assert stats.n_net_edges == 6
    assert stats.n_cell_edges == 4
    assert stats.n_regs == 1
    assert stats.max_fanout == 2


def test_stats_consistency_on_generated_design():
    nl = generate_preset("xgate", scale=0.3)
    stats = compute_stats(nl)
    assert stats.n_cells == len(nl.cells)
    assert stats.n_nets == len(nl.nets)
    assert stats.n_net_edges >= stats.n_nets  # every net ≥ 1 sink
    assert stats.total_area > 0
    assert "xgate" in stats.row()
