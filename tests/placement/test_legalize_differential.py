"""Differential battery: the cached row search must equal the per-row scan
it replaced, answer for answer.

Legal positions feed every map, wire length and sample digest, and the
optimizer's structural moves claim, release and re-occupy sites on a
live grid.  ``RowGrid`` now answers ``free_run_near`` from free-start
lists cached per (row, width), kept exact by every write.  This module
keeps a frozen copy of the old grid (a cumulative-sum scan per query),
``legalize`` and ``find_site_near`` and checks that legalized positions,
the mean displacement and seeded sequences of writes and searches agree
exactly, including oversized widths and equal-distance ties.  The
legalizer no longer calls ``free_run_near`` per row; on every paper
preset at design seeds 0 and 1 and scales 0.1 and 0.35 it must still
place every cell where the frozen scan does.
"""

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.placement import (
    ROW_HEIGHT,
    SITE_WIDTH,
    Die,
    Placement,
    PlacerConfig,
    RowGrid,
    build_die,
    cell_site_width,
    find_site_near,
    legalize,
    place,
    reclaim_sites,
    release_cell_sites,
)
from repro.utils import require

#: Every paper preset ("large" is bench-only and 40x the size).
PAPER_DESIGNS = tuple(n for n, s in DESIGN_PRESETS.items()
                      if s.split != "bench")

_SCALE = 0.25


# ----------------------------------------------------------------------
# Frozen reference: the uncached grid and its users.  Do not "modernize".
# ----------------------------------------------------------------------
class _FrozenRowGrid:
    def __init__(self, die):
        self.n_rows = die.n_rows
        self.n_sites = int(die.width / SITE_WIDTH)
        require(self.n_rows > 0 and self.n_sites > 0, "die too small")
        self.occupied = np.zeros((self.n_rows, self.n_sites), dtype=bool)
        for m in die.macros:
            r0 = max(0, int(m.y0 / ROW_HEIGHT))
            r1 = min(self.n_rows, int(np.ceil(m.y1 / ROW_HEIGHT)))
            s0 = max(0, int(m.x0 / SITE_WIDTH))
            s1 = min(self.n_sites, int(np.ceil(m.x1 / SITE_WIDTH)))
            self.occupied[r0:r1, s0:s1] = True

    @classmethod
    def from_placement(cls, netlist, placement):
        grid = cls(placement.die)
        for cid, (x, y) in placement.cell_xy.items():
            width = cell_site_width(netlist, cid)
            row = int(np.clip(y / ROW_HEIGHT, 0, grid.n_rows - 1))
            start = int(np.clip(round(x / SITE_WIDTH - width / 2.0), 0,
                                grid.n_sites - width))
            grid.occupied[row, start:start + width] = True
        return grid

    def free_run_near(self, row, col, width):
        occ = self.occupied[row]
        if width > len(occ):
            return -1
        csum = np.concatenate([[0], np.cumsum(occ)])
        window_sum = csum[width:] - csum[:-width]
        free = np.where(window_sum == 0)[0]
        if len(free) == 0:
            return -1
        target = np.clip(col - width // 2, 0, len(occ) - width)
        return int(free[np.argmin(np.abs(free - target))])

    def claim(self, row, start, width):
        require(not self.occupied[row, start:start + width].any(),
                "claiming occupied sites")
        self.occupied[row, start:start + width] = True


def _frozen_release_cell_sites(netlist, placement, grid, cid):
    x, y = placement.cell_xy[cid]
    width = cell_site_width(netlist, cid)
    row = int(np.clip(y / ROW_HEIGHT, 0, grid.n_rows - 1))
    start = int(np.clip(round(x / SITE_WIDTH - width / 2.0), 0,
                        grid.n_sites - width))
    grid.occupied[row, start:start + width] = False
    return row, start, width


def _frozen_legalize(netlist, placement):
    die = placement.die
    grid = _FrozenRowGrid(die)
    order = sorted(
        placement.cell_xy,
        key=lambda cid: (-cell_site_width(netlist, cid),
                         placement.cell_xy[cid][0]))
    total_disp = 0.0
    for cid in order:
        x, y = placement.cell_xy[cid]
        width = cell_site_width(netlist, cid)
        want_row = int(np.clip(y / ROW_HEIGHT, 0, grid.n_rows - 1))
        want_col = int(np.clip(x / SITE_WIDTH, 0, grid.n_sites - 1))
        best = None
        for dr in range(grid.n_rows):
            candidates = {want_row - dr, want_row + dr}
            for row in candidates:
                if not 0 <= row < grid.n_rows:
                    continue
                start = grid.free_run_near(row, want_col, width)
                if start < 0:
                    continue
                nx = (start + width / 2.0) * SITE_WIDTH
                ny = (row + 0.5) * ROW_HEIGHT
                cost = abs(nx - x) + abs(ny - y)
                if best is None or cost < best[0]:
                    best = (cost, row, start)
            if best is not None and best[0] <= (dr - 1) * ROW_HEIGHT:
                break
        require(best is not None, f"no legal site for cell {cid} "
                "(utilization too high?)")
        _, row, start = best
        grid.claim(row, start, width)
        nx = (start + width / 2.0) * SITE_WIDTH
        ny = (row + 0.5) * ROW_HEIGHT
        total_disp += abs(nx - x) + abs(ny - y)
        placement.cell_xy[cid] = (nx, ny)
    return total_disp / max(1, len(order))


def _frozen_find_site_near(netlist, placement, grid, cid, x, y,
                           max_disp=25.0):
    width = cell_site_width(netlist, cid)
    want_row = int(np.clip(y / ROW_HEIGHT, 0, grid.n_rows - 1))
    want_col = int(np.clip(x / SITE_WIDTH, 0, grid.n_sites - 1))
    best = None
    for dr in range(grid.n_rows):
        if best is not None and best[0] <= (dr - 1) * ROW_HEIGHT:
            break
        if dr * ROW_HEIGHT > max_disp:
            break
        for row in {want_row - dr, want_row + dr}:
            if not 0 <= row < grid.n_rows:
                continue
            start = grid.free_run_near(row, want_col, width)
            if start < 0:
                continue
            nx = (start + width / 2.0) * SITE_WIDTH
            ny = (row + 0.5) * ROW_HEIGHT
            cost = abs(nx - x) + abs(ny - y)
            if best is None or cost < best[0]:
                best = (cost, row, start)
    if best is None or best[0] > max_disp:
        return False
    _, row, start = best
    grid.claim(row, start, width)
    nx = (start + width / 2.0) * SITE_WIDTH
    ny = (row + 0.5) * ROW_HEIGHT
    placement.cell_xy[cid] = (nx, ny)
    return True


# ----------------------------------------------------------------------
def _global_placement(name):
    spec = DESIGN_PRESETS[name].scaled(_SCALE)
    netlist = generate_netlist(spec)
    die = build_die(netlist, spec)
    return netlist, place(netlist, die)


def _copy(placement):
    return Placement(die=placement.die, cell_xy=dict(placement.cell_xy))


@pytest.mark.parametrize("name", PAPER_DESIGNS)
def test_legalize_matches_frozen(name):
    netlist, placement = _global_placement(name)
    ours, ref = _copy(placement), _copy(placement)
    disp = legalize(netlist, ours)
    ref_disp = _frozen_legalize(netlist, ref)
    assert disp == ref_disp
    assert ours.cell_xy == ref.cell_xy
    assert list(ours.cell_xy) == list(ref.cell_xy)


@pytest.mark.parametrize("name,seed,scale", [
    (d, s, k) for d in PAPER_DESIGNS for s in (0, 1) for k in (0.1, 0.35)])
def test_legalize_matches_frozen_at_every_seed_and_scale(name, seed, scale):
    """The legalizer's inlined row search (one width per cell type, one
    free-start list per row and width group, rows whose y-cost alone
    cannot win skipped) lands every cell where the per-row scan did."""
    spec = DESIGN_PRESETS[name].scaled(scale)
    netlist = generate_netlist(spec, seed)
    placement = place(netlist, build_die(netlist, spec, seed),
                      PlacerConfig(seed=seed))
    ours, ref = _copy(placement), _copy(placement)
    assert legalize(netlist, ours) == _frozen_legalize(netlist, ref)
    assert ours.cell_xy == ref.cell_xy
    assert list(ours.cell_xy) == list(ref.cell_xy)


@pytest.mark.parametrize("name", ("xgate", "rocket", "chacha"))
def test_optimizer_style_edits_match_frozen(name):
    """Release, re-place and roll back, as the optimizer's moves do, on
    a grid built from a legalized placement."""
    netlist, placement = _global_placement(name)
    legalize(netlist, placement)
    ours, ref = _copy(placement), _copy(placement)
    grid = RowGrid.from_placement(netlist, ours)
    fgrid = _FrozenRowGrid.from_placement(netlist, ref)
    assert np.array_equal(grid.occupied, fgrid.occupied)
    die = placement.die
    rng = np.random.default_rng(7)
    cids = sorted(placement.cell_xy)
    for step in range(150):
        cid = int(rng.choice(cids))
        x = float(rng.uniform(-5.0, die.width + 5.0))
        y = float(rng.uniform(-5.0, die.height + 5.0))
        before = ours.cell_xy[cid]
        span = release_cell_sites(netlist, ours, grid, cid)
        assert span == _frozen_release_cell_sites(netlist, ref, fgrid, cid)
        placed = find_site_near(netlist, ours, grid, cid, x, y)
        assert placed == _frozen_find_site_near(netlist, ref, fgrid, cid,
                                                x, y)
        if not placed or step % 3 == 0:
            if placed:  # undo the move: give back the new sites first
                release_cell_sites(netlist, ours, grid, cid)
                _frozen_release_cell_sites(netlist, ref, fgrid, cid)
                ours.cell_xy[cid] = ref.cell_xy[cid] = before
            reclaim_sites(grid, span)
            row, start, width = span
            fgrid.occupied[row, start:start + width] = True
        assert ours.cell_xy == ref.cell_xy
        assert np.array_equal(grid.occupied, fgrid.occupied)


@pytest.mark.parametrize("seed", range(12))
def test_random_write_and_search_sequences_match(seed):
    rng = np.random.default_rng(seed)
    die = Die(width=float(rng.integers(8, 60)),
              height=ROW_HEIGHT * int(rng.integers(1, 6)))
    grid, fgrid = RowGrid(die), _FrozenRowGrid(die)
    spans = []
    for _ in range(400):
        op = rng.random()
        row = int(rng.integers(grid.n_rows))
        width = int(rng.integers(1, 7))
        col = int(rng.integers(-3, grid.n_sites + 3))
        start = grid.free_run_near(row, col, width)
        assert start == fgrid.free_run_near(row, col, width)
        if op < 0.45 and start >= 0:
            grid.claim(row, start, width)
            fgrid.claim(row, start, width)
            spans.append((row, start, width))
        elif op < 0.7 and spans:
            span = spans.pop(int(rng.integers(len(spans))))
            grid.release(*span)
            r, s, w = span
            fgrid.occupied[r, s:s + w] = False
            if rng.random() < 0.5:  # roll back
                reclaim_sites(grid, span)
                fgrid.occupied[r, s:s + w] = True
                spans.append(span)
        elif op < 0.8:
            s = int(rng.integers(0, grid.n_sites))
            grid.block(row, s, width)
            fgrid.occupied[row, s:s + width] = True
        assert np.array_equal(grid.occupied, fgrid.occupied)


def test_width_larger_than_row_returns_minus_one():
    die = Die(width=10.0, height=ROW_HEIGHT)
    grid, fgrid = RowGrid(die), _FrozenRowGrid(die)
    for width in (grid.n_sites + 1, grid.n_sites + 5):
        assert grid.free_run_near(0, 5, width) == -1
        assert fgrid.free_run_near(0, 5, width) == -1
    assert grid.free_run_near(0, 5, grid.n_sites) == 0


def test_equal_distance_tie_picks_lower_start():
    die = Die(width=20.0, height=ROW_HEIGHT)
    grid, fgrid = RowGrid(die), _FrozenRowGrid(die)
    grid.block(0, 9, 3)
    fgrid.occupied[0, 9:12] = True
    # Target 10: free starts 8 and 12 are both 2 sites away.
    assert grid.free_run_near(0, 10, 1) == fgrid.free_run_near(0, 10, 1) == 8
    # Width 2 at col 11 -> target 10: starts 7 and 12, 3 and 2 away.
    assert grid.free_run_near(0, 11, 2) == fgrid.free_run_near(0, 11, 2) == 12


def test_occupied_is_read_only():
    grid = RowGrid(Die(width=10.0, height=ROW_HEIGHT))
    with pytest.raises(ValueError):
        grid.occupied[0, 0] = True
    assert not grid.occupied.any()
