"""Row legalization (Tetris-style) for global placement results.

Snaps every standard cell onto a row/site grid, avoiding macro blockages and
cell overlaps while minimizing displacement from the global-placement
location.  Runs in-place on a :class:`~repro.placement.placer.Placement`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_tracer
from repro.placement.die import ROW_HEIGHT, Die
from repro.placement.placer import Placement
from repro.utils import require

__all__ = [
    "SITE_WIDTH",
    "RowGrid",
    "cell_site_width",
    "cell_span",
    "release_cell_sites",
    "reclaim_sites",
    "legalize",
    "find_site_near",
]

SITE_WIDTH = 1.0


def _nearest(starts: List[int], target: int) -> int:
    """The start in ascending, non-empty *starts* nearest *target*.

    Equal distances go to the lower start.
    """
    k = bisect_left(starts, target)
    if k == len(starts):
        return starts[-1]
    if k == 0 or starts[k] == target:
        return starts[k]
    below, above = starts[k - 1], starts[k]
    return below if target - below <= above - target else above


class RowGrid:
    """Occupancy grid of placement sites; macros are pre-blocked.

    Row searches read free-start lists cached per (row, width).  Every
    write to the grid goes through :meth:`claim`, :meth:`block` or
    :meth:`release` and keeps the written row's lists exact: occupying
    sites removes the starts whose runs now overlap them, freeing sites
    drops the row's lists.  ``occupied`` is a read-only view, so no write
    can leave a stale list behind.
    """

    def __init__(self, die: Die) -> None:
        self.n_rows = die.n_rows
        self.n_sites = int(die.width / SITE_WIDTH)
        require(self.n_rows > 0 and self.n_sites > 0, "die too small")
        self._occ = np.zeros((self.n_rows, self.n_sites), dtype=bool)
        # row -> {width: ascending list of free-run starts}
        self._free_starts: Dict[int, Dict[int, List[int]]] = {}
        for m in die.macros:
            r0 = max(0, int(m.y0 / ROW_HEIGHT))
            r1 = min(self.n_rows, int(np.ceil(m.y1 / ROW_HEIGHT)))
            s0 = max(0, int(m.x0 / SITE_WIDTH))
            s1 = min(self.n_sites, int(np.ceil(m.x1 / SITE_WIDTH)))
            self._occ[r0:r1, s0:s1] = True

    @property
    def occupied(self) -> np.ndarray:
        """Read-only (n_rows, n_sites) occupancy view."""
        view = self._occ.view()
        view.flags.writeable = False
        return view

    @classmethod
    def from_placement(cls, netlist: Netlist,
                       placement: "Placement") -> "RowGrid":
        """Occupancy grid of an already-legalized placement.

        Used by the incremental optimizer so inserted cells claim real free
        sites instead of overlapping existing logic.
        """
        grid = cls(placement.die)
        for cid in placement.cell_xy:
            # Tolerate overlap with blockages rather than fail: the grid is
            # advisory for incremental insertion.
            grid.block(*cell_span(netlist, placement, grid, cid))
        return grid

    def _occupy(self, row: int, start: int, width: int) -> None:
        self._occ[row, start:start + width] = True
        # A run of w sites starting at s overlaps the span iff
        # start - w < s < start + width.
        for w, starts in self._free_starts.get(row, {}).items():
            del starts[bisect_left(starts, start - w + 1):
                       bisect_left(starts, start + width)]

    def _starts(self, row: int, width: int) -> List[int]:
        """Ascending starts of every free run of *width* sites in *row*."""
        by_width = self._free_starts.setdefault(row, {})
        starts = by_width.get(width)
        if starts is None:
            # window_sum[s] = number of occupied sites in occ[s : s + width]
            csum = np.concatenate([[0], np.cumsum(self._occ[row])])
            window_sum = csum[width:] - csum[:-width]
            starts = by_width[width] = np.flatnonzero(window_sum == 0).tolist()
        return starts

    def _starts_of_width(self, width: int) -> List[List[int]]:
        """Every row's :meth:`_starts` for one *width* (at most
        ``n_sites``), computed at once.

        The cache is replaced by these lists, so each claim updates one
        list instead of every width's.  They stay exact through claims
        until the next call or a release; a caller therefore visits its
        cells grouped by width and calls this once per group.  Keeping
        the other widths measured 30% slower on ``_legalize``.
        """
        csum = np.zeros((self.n_rows, self.n_sites + 1), dtype=np.int64)
        np.cumsum(self._occ, axis=1, out=csum[:, 1:])
        rows, starts = np.nonzero(csum[:, width:] - csum[:, :-width] == 0)
        bounds = np.searchsorted(rows, np.arange(self.n_rows + 1)).tolist()
        flat = starts.tolist()
        by_row = [flat[bounds[r]:bounds[r + 1]] for r in range(self.n_rows)]
        self._free_starts = {r: {width: lst} for r, lst in enumerate(by_row)}
        return by_row

    def free_run_near(self, row: int, col: int, width: int) -> int:
        """Leftmost site of the free run of *width* nearest *col*, or -1.

        Equal distances go to the lower start.
        """
        if width > self.n_sites:
            return -1
        starts = self._starts(row, width)
        if not starts:
            return -1
        return _nearest(starts, min(max(col - width // 2, 0),
                                    self.n_sites - width))

    def claim(self, row: int, start: int, width: int) -> None:
        require(not self._occ[row, start:start + width].any(),
                "claiming occupied sites")
        self._occupy(row, start, width)

    def block(self, row: int, start: int, width: int) -> None:
        """Occupy a span of sites whether or not it is free."""
        self._occupy(row, start, width)

    def release(self, row: int, start: int, width: int) -> None:
        """Free a span of sites."""
        self._occ[row, start:start + width] = False
        self._free_starts.pop(row, None)


def cell_span(netlist: Netlist, placement: "Placement", grid: RowGrid,
              cid: int) -> tuple:
    """(row, start, width) of a placed cell on the grid."""
    x, y = placement.cell_xy[cid]
    width = cell_site_width(netlist, cid)
    row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
    start = int(min(max(round(x / SITE_WIDTH - width / 2.0), 0),
                    grid.n_sites - width))
    return row, start, width


def release_cell_sites(netlist: Netlist, placement: "Placement",
                       grid: RowGrid, cid: int) -> tuple:
    """Free a cell's sites (before removing/rewriting it in place).

    Returns the released span so the caller can re-claim it on rollback.
    """
    span = cell_span(netlist, placement, grid, cid)
    grid.release(*span)
    return span


def reclaim_sites(grid: RowGrid, span: tuple) -> None:
    """Re-occupy a span previously freed by :func:`release_cell_sites`."""
    grid.block(*span)


def cell_site_width(netlist: Netlist, cid: int) -> int:
    """Number of sites a cell occupies (area / row height, ≥ 1)."""
    area = netlist.cell_type(cid).area
    return max(1, int(round(area / ROW_HEIGHT / SITE_WIDTH)))


def legalize(netlist: Netlist, placement: Placement) -> float:
    """Legalize all cells; returns the mean displacement in µm.

    Records one ``placement.legalize`` span.
    """
    with get_tracer().span("placement.legalize",
                           cells=len(placement.cell_xy)):
        return _legalize(netlist, placement)


def _legalize(netlist: Netlist, placement: Placement) -> float:
    die = placement.die
    grid = RowGrid(die)
    n_rows, n_sites = grid.n_rows, grid.n_sites
    cell_xy = placement.cell_xy
    by_type: Dict[str, int] = {}
    width_of: Dict[int, int] = {}
    for cid in cell_xy:
        type_name = netlist.cells[cid].type_name
        width = by_type.get(type_name)
        if width is None:
            width = by_type[type_name] = cell_site_width(netlist, cid)
        width_of[cid] = width
    # Large cells first: they are hardest to fit.
    order: List[int] = sorted(
        cell_xy, key=lambda cid: (-width_of[cid], cell_xy[cid][0]))
    total_disp = 0.0
    width = -1
    for cid in order:
        if width_of[cid] != width:
            # The order groups cells by width, as _starts_of_width needs:
            # each group searches one free-start list per row, and claims
            # keep those exact in place.
            width = width_of[cid]
            half = width / 2.0
            fits = width <= n_sites
            if fits:
                row_starts = grid._starts_of_width(width)
        x, y = cell_xy[cid]
        want_row = int(min(max(y / ROW_HEIGHT, 0), n_rows - 1))
        want_col = int(min(max(x / SITE_WIDTH, 0), n_sites - 1))
        # As RowGrid.free_run_near, with the target shared by every row.
        target = min(max(want_col - width // 2, 0), n_sites - width)
        best_cost, best_row, best_start = math.inf, -1, -1
        for dr in range(n_rows if fits else 0):
            # Rows in set order ({7, 9} visits 9 first); equal costs keep
            # the first.
            for row in {want_row - dr, want_row + dr}:
                if not 0 <= row < n_rows:
                    continue
                dy = abs((row + 0.5) * ROW_HEIGHT - y)
                if dy >= best_cost:
                    continue  # its y-cost alone cannot beat the best
                starts = row_starts[row]
                if not starts:
                    continue
                start = _nearest(starts, target)
                cost = abs((start + half) * SITE_WIDTH - x) + dy
                if cost < best_cost:
                    best_cost, best_row, best_start = cost, row, start
            # Any solution within dr rows beats anything further away in y
            # by at least (dr+1 - dr) row heights only if its x-cost is
            # small; allow a one-row slack before stopping the search.
            if best_cost <= (dr - 1) * ROW_HEIGHT:
                break
        if best_row < 0:
            raise ValueError(f"no legal site for cell {cid} "
                             "(utilization too high?)")
        grid.claim(best_row, best_start, width)
        nx = (best_start + half) * SITE_WIDTH
        ny = (best_row + 0.5) * ROW_HEIGHT
        total_disp += abs(nx - x) + abs(ny - y)
        cell_xy[cid] = (nx, ny)
    return total_disp / max(1, len(order))


def find_site_near(netlist: Netlist, placement: Placement, grid: RowGrid,
                   cid: int, x: float, y: float,
                   max_disp: float = 25.0) -> bool:
    """Place a newly created cell near (x, y) on an existing grid.

    Used by the incremental optimizer when it inserts buffers or decomposed
    gates.  Scans rows outward from the target and keeps the cheapest
    (Manhattan-displacement) free run.  Returns False when nothing exists
    within *max_disp* µm — a placement this far from the work site would
    defeat the optimization, so the caller rejects the move instead.
    """
    width = cell_site_width(netlist, cid)
    want_row = int(min(max(y / ROW_HEIGHT, 0), grid.n_rows - 1))
    want_col = int(min(max(x / SITE_WIDTH, 0), grid.n_sites - 1))
    best = None  # (cost, row, start)
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
