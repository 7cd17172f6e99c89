"""Tests for row legalization and the incremental site grid."""

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.placement import (
    ROW_HEIGHT,
    SITE_WIDTH,
    RowGrid,
    build_die,
    cell_site_width,
    find_site_near,
    legalize,
    place,
    reclaim_sites,
    release_cell_sites,
)


@pytest.fixture(scope="module")
def legalized():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    disp = legalize(nl, pl)
    return nl, die, pl, disp


def test_cells_on_row_grid(legalized):
    nl, die, pl, _ = legalized
    for cid, (x, y) in pl.cell_xy.items():
        assert (y - 0.5 * ROW_HEIGHT) % ROW_HEIGHT == pytest.approx(0.0)
        assert 0 <= y <= die.height


def test_no_overlaps_after_legalization(legalized):
    nl, die, pl, _ = legalized
    spans = {}
    for cid, (x, y) in pl.cell_xy.items():
        row = int(y / ROW_HEIGHT)
        w = cell_site_width(nl, cid)
        start = int(round(x / SITE_WIDTH - w / 2.0))
        for s in range(start, start + w):
            key = (row, s)
            assert key not in spans, f"site {key} claimed twice"
            spans[key] = cid


def test_displacement_is_moderate(legalized):
    nl, die, pl, disp = legalized
    assert disp < 0.15 * die.width


def test_cells_not_in_macros_after_legalization():
    spec = DESIGN_PRESETS["rocket"].scaled(0.15)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    for x, y in pl.cell_xy.values():
        # Cell centers must not be strictly inside a macro.
        for m in die.macros:
            assert not (m.x0 + 0.25 < x < m.x1 - 0.25
                        and m.y0 + 0.25 < y < m.y1 - 0.25)


def test_find_site_near_prefers_near(legalized):
    nl, die, pl, _ = legalized
    grid = RowGrid.from_placement(nl, pl)
    new = nl.add_cell("BUF_X1")
    tx, ty = die.width / 2, die.height / 2
    assert find_site_near(nl, pl, grid, new.cid, tx, ty)
    nx, ny = pl.cell_xy[new.cid]
    assert abs(nx - tx) + abs(ny - ty) <= 25.0


def test_find_site_respects_max_disp(legalized):
    nl, die, pl, _ = legalized
    grid = RowGrid(die)
    for row in range(grid.n_rows):  # everything full
        grid.block(row, 0, grid.n_sites)
    new = nl.add_cell("BUF_X1")
    assert not find_site_near(nl, pl, grid, new.cid, 1.0, 1.0, max_disp=5.0)
    del nl.cells[new.cid]  # cleanup without wiring


def test_release_and_reclaim_roundtrip(legalized):
    nl, die, pl, _ = legalized
    grid = RowGrid.from_placement(nl, pl)
    cid = next(iter(pl.cell_xy))
    before = grid.occupied.copy()
    span = release_cell_sites(nl, pl, grid, cid)
    assert grid.occupied.sum() < before.sum()
    reclaim_sites(grid, span)
    np.testing.assert_array_equal(grid.occupied, before)


def test_rowgrid_blocks_macros():
    spec = DESIGN_PRESETS["rocket"].scaled(0.15)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    grid = RowGrid(die)
    m = die.macros[0]
    row = int((m.y0 + m.y1) / 2 / ROW_HEIGHT)
    col = int((m.x0 + m.x1) / 2 / SITE_WIDTH)
    assert grid.occupied[row, col]


def test_free_run_near_finds_nearest():
    from repro.placement import Die
    die = Die(width=20.0, height=5.0)
    grid = RowGrid(die)
    grid.block(0, 8, 4)
    start = grid.free_run_near(0, 9, 2)
    assert start in (6, 12)  # nearest free run of width 2 around col 9
    grid.block(0, 0, grid.n_sites)
    assert grid.free_run_near(0, 9, 1) == -1
