"""Tests for global placement."""

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.placement import Placement, PlacerConfig, build_die, place


@pytest.fixture(scope="module")
def placed():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    return nl, die, place(nl, die)


def test_every_cell_placed_inside_die(placed):
    nl, die, pl = placed
    assert set(pl.cell_xy) == set(nl.cells)
    for x, y in pl.cell_xy.values():
        assert 0 <= x <= die.width
        assert 0 <= y <= die.height


def test_placement_is_deterministic():
    spec = DESIGN_PRESETS["xgate"].scaled(0.2)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    a = place(nl, die)
    b = place(nl, die)
    for cid in nl.cells:
        assert a.cell_xy[cid] == b.cell_xy[cid]


def test_placement_beats_random_wirelength(placed):
    nl, die, pl = placed
    rng = np.random.default_rng(7)
    random_pl = Placement(die=die)
    for cid in nl.cells:
        random_pl.set_position(cid, rng.uniform(0, die.width),
                               rng.uniform(0, die.height))
    assert pl.total_hpwl(nl) < 0.8 * random_pl.total_hpwl(nl)


def test_placement_is_spread_out(placed):
    nl, die, pl = placed
    xs = np.array([p[0] for p in pl.cell_xy.values()])
    ys = np.array([p[1] for p in pl.cell_xy.values()])
    # Cells should cover a substantial part of the die, not collapse.
    assert xs.std() > 0.15 * die.width
    assert ys.std() > 0.15 * die.height


def test_pin_position_cells_and_ports(placed):
    nl, die, pl = placed
    port = next(iter(nl.ports.values()))
    assert pl.pin_position(nl, port.pin) == die.port_positions[port.pin]
    cell = next(iter(nl.cells.values()))
    assert pl.pin_position(nl, cell.output_pin) == pl.cell_xy[cell.cid]


def test_net_hpwl_simple(placed):
    nl, die, pl = placed
    nid = next(iter(nl.nets))
    hpwl = pl.net_hpwl(nl, nid)
    assert hpwl >= 0
    assert pl.total_hpwl(nl) >= hpwl


def test_cells_avoid_macros():
    spec = DESIGN_PRESETS["rocket"].scaled(0.15)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die, PlacerConfig())
    inside = sum(1 for x, y in pl.cell_xy.values() if die.in_macro(x, y))
    assert inside == 0


def test_pin_positions_of_no_pins_is_empty_2d(placed):
    nl, _, pl = placed
    pts = pl.pin_positions(nl, [])
    assert pts.shape == (0, 2)
    assert pts[:, 0].shape == (0,)
    pid = next(iter(nl.pins))
    assert pl.pin_positions(nl, [pid]).shape == (1, 2)
