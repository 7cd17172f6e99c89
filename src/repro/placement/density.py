"""Layout feature maps: cell density, RUDY and macro region.

These are the three input channels of the paper's CNN branch (Section V-A,
Fig. 5).  The layout is divided into M×N bins (the paper uses 512×512; we
default to a configurable, smaller grid for CPU-scale experiments — the
paper value remains supported).

Map convention: ``map[i, j]`` covers x-bin ``i`` and y-bin ``j``.

Every map comes out of one array-at-a-time rasterizer
(:func:`_rasterize`): object extents become bin spans, per-bin overlap
areas and weighted patches, and ``np.add.at`` scatters them into the
grid.  Full maps, the optimizer's free-space grid and the serving
featurizer's region recomputes all run it, over a bin window, so a
region recompute is bit-identical to the same slice of a full pass, and
both to the per-object reference loops kept in the tests.  Two rules
make that hold:

* contributions are added in object order, sequentially, so every bin
  accumulates in the loop's order whatever the window.  Objects are
  expanded in runs of bounded size to cap memory, which is why the
  scatter is ``np.add.at`` (it continues from the grid's current values)
  and not one ``np.bincount`` per run (which would restart from zero);
* a density patch's normalizing sum runs over exactly that cell's whole
  patch, ``(kx, ky)`` elements in row-major order (:func:`_patch_totals`
  groups patches by shape to do it array-at-a-time).  A sum over a
  padded patch would change NumPy's pairwise association from 8
  elements up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.obs import get_tracer
from repro.placement.die import Die
from repro.placement.placer import Placement
from repro.utils import require

#: Inclusive bin window (first row, last row, first col, last col).
Window = Tuple[int, int, int, int]

#: Degenerate RUDY bounding boxes are widened to this size (µm).
_RUDY_EPS = 1e-6


@dataclass(frozen=True)
class LayoutMaps:
    """The stacked layout feature maps of one placed design."""

    cell_density: np.ndarray  # (M, N), utilization in [0, ~1]
    rudy: np.ndarray          # (M, N), wire density estimate
    macro: np.ndarray         # (M, N), macro coverage fraction in [0, 1]
    bin_w: float
    bin_h: float

    @property
    def shape(self) -> tuple:
        return self.cell_density.shape

    def stacked(self) -> np.ndarray:
        """(3, M, N) channel stack fed to the CNN."""
        return np.stack([self.cell_density, self.rudy, self.macro])

    def free_space(self) -> np.ndarray:
        """Fraction of each bin usable by the optimizer (Section V-A)."""
        return free_space(self.cell_density, self.macro)


def free_space(density: np.ndarray, macro: np.ndarray) -> np.ndarray:
    """High density and macro coverage both remove optimization headroom."""
    free = (1.0 - np.clip(density, 0.0, 1.0)) * (1.0 - macro)
    return np.clip(free, 0.0, 1.0)


def bin_span(lo: float, hi: float, n_bins: int, bin_size: float) -> tuple:
    """Inclusive (first, last) bin indices covered by [lo, hi].

    Pure-scalar twin of the rasterizer's array spans (:func:`_spans`),
    cheap enough to compute a dirty rect per edit.
    """
    if lo < 0.0:
        lo = 0.0
    if hi < lo:
        hi = lo
    b0 = int(lo / bin_size)
    if b0 > n_bins - 1:
        b0 = n_bins - 1
    b1 = int(math.ceil(hi / bin_size)) - 1
    if b1 < b0:
        b1 = b0
    elif b1 > n_bins - 1:
        b1 = n_bins - 1
    return b0, b1


def cell_extent(netlist: Netlist, placement: Placement,
                cid: int) -> tuple:
    """(x0, x1, y0, y1) footprint a cell contributes to the density map."""
    x, y = placement.cell_xy[cid]
    area = netlist.cell_type(cid).area
    half_w = 0.5 * max(area / 1.0, 1.0)
    return x - half_w, x + half_w, y - 0.5, y + 0.5


# ----------------------------------------------------------------------
# Rasterizer kernel
# ----------------------------------------------------------------------
#: Patch elements expanded at a time.  Bounds the kernel's scratch memory
#: (about 100 bytes per element) when large nets meet a fine grid: at
#: 512×512 bins a full-size design's nets cover tens of millions of bins.
_CHUNK = 1 << 14


def _spans(lo: np.ndarray, hi: np.ndarray, n_bins: int,
           bin_size: float) -> tuple:
    """Die-clipped extents and inclusive bin spans, one per object."""
    lo = np.maximum(lo, 0.0)
    hi = np.maximum(hi, lo)
    b0 = np.clip(lo / bin_size, 0, n_bins - 1).astype(np.int64)
    b1 = np.clip(np.ceil(hi / bin_size) - 1, b0, n_bins - 1).astype(np.int64)
    return lo, hi, b0, b1


def _reaching(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
              y1: np.ndarray, m: int, n: int, bin_w: float, bin_h: float,
              window: Window) -> tuple:
    """Boxes whose bin span meets *window*, in input order:
    ``(index, x0, x1, y0, y1, i0, i1, j0, j1)`` with die-clipped extents
    and whole (not window-clipped) spans."""
    x0, x1, i0, i1 = _spans(x0, x1, m, bin_w)
    y0, y1, j0, j1 = _spans(y0, y1, n, bin_h)
    r0, r1, c0, c1 = window
    index = np.flatnonzero((i0 <= r1) & (i1 >= r0) & (j0 <= c1) & (j1 >= c0))
    return (index, x0[index], x1[index], y0[index], y1[index],
            i0[index], i1[index], j0[index], j1[index])


def _runs(count: np.ndarray) -> Iterator[slice]:
    """Consecutive objects holding at most :data:`_CHUNK` patch elements
    together (or one object, if it alone holds more)."""
    ends = np.cumsum(count)
    start = 0
    while start < len(count):
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _axis_overlaps(bins: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   bin_size: float) -> np.ndarray:
    """Length of [lo, hi] inside each bin (clipped at zero)."""
    edges_lo = bins * bin_size
    edges_hi = (bins + 1) * bin_size
    return np.clip(np.minimum(edges_hi, hi) - np.maximum(edges_lo, lo),
                   0.0, None)


@dataclass
class _Patches:
    """Expanded patches of a run of objects: one element per (object,
    bin), object-major and row-major inside each ``(kx, ky)`` patch."""

    start: np.ndarray    # (S,) first element of each object
    kx: np.ndarray       # (S,) patch rows
    ky: np.ndarray       # (S,) patch cols
    obj: np.ndarray      # (E,) object (position in the run) of each element
    i: np.ndarray        # (E,) x bin
    j: np.ndarray        # (E,) y bin
    overlap: np.ndarray  # (E,) overlap area, wx * wy


def _ragged(first: np.ndarray, count: np.ndarray) -> tuple:
    """Ranges ``[first, first + count)`` laid back to back:
    ``(owner, value, start)`` with one owner and value per entry and the
    first entry of each range."""
    start = np.cumsum(count) - count
    owner = np.repeat(np.arange(len(count)), count)
    return owner, first[owner] + (np.arange(len(owner)) - start[owner]), start


def _patches(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
             y1: np.ndarray, i0: np.ndarray, i1: np.ndarray,
             j0: np.ndarray, j1: np.ndarray, bin_w: float,
             bin_h: float) -> _Patches:
    """Expand boxes over the inclusive bin spans [i0, i1] × [j0, j1].

    A bin's overlap depends only on the bin and the box, so a span cut
    down to a window gives its bins the values the whole span would.
    """
    kx = i1 - i0 + 1
    ky = j1 - j0 + 1
    # Per-axis overlaps: one per (object, x bin) and (object, y bin).
    xo, xb, _ = _ragged(i0, kx)
    yo, yb, ystart = _ragged(j0, ky)
    wx = _axis_overlaps(xb, x0[xo], x1[xo], bin_w)
    wy = _axis_overlaps(yb, y0[yo], y1[yo], bin_h)
    # Each (object, x bin) row runs over its object's y entries.
    row, col, _ = _ragged(ystart[xo], ky[xo])
    count = kx * ky
    return _Patches(start=np.cumsum(count) - count, kx=kx, ky=ky,
                    obj=xo[row], i=xb[row], j=yb[col],
                    overlap=wx[row] * wy[col])


def _patch_totals(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
                  y1: np.ndarray, m: int, n: int, bin_w: float,
                  bin_h: float, window: Window) -> np.ndarray:
    """Sum of each box's whole patch (zero for boxes that miss *window*).

    Each sum runs over exactly that patch's elements: boxes are grouped
    by patch shape so each group is one ``(g, kx * ky)`` row sum, which
    associates like ``patch.sum()`` of the patch alone.
    """
    totals = np.zeros(len(x0))
    index, x0, x1, y0, y1, i0, i1, j0, j1 = _reaching(
        x0, x1, y0, y1, m, n, bin_w, bin_h, window)
    for run in _runs((i1 - i0 + 1) * (j1 - j0 + 1)):
        p = _patches(x0[run], x1[run], y0[run], y1[run], i0[run], i1[run],
                     j0[run], j1[run], bin_w, bin_h)
        key = p.kx * (int(p.ky.max()) + 1) + p.ky
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        for group in np.split(order, cuts):
            size = int(p.kx[group[0]] * p.ky[group[0]])
            rows = p.start[group, None] + np.arange(size)
            totals[index[run][group]] = p.overlap[rows].sum(axis=1)
    return totals


def _rasterize(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
               y1: np.ndarray, m: int, n: int, bin_w: float, bin_h: float,
               window: Window,
               weigh: Callable[[np.ndarray, np.ndarray], np.ndarray]
               ) -> np.ndarray:
    """The window's bins, each the sum of ``weigh(box, overlap)`` over
    the boxes covering it.

    Contributions are added in box order (``np.add.at`` accumulates
    sequentially, also across runs), so each bin adds them in the same
    order whatever the window.
    """
    index, x0, x1, y0, y1, i0, i1, j0, j1 = _reaching(
        x0, x1, y0, y1, m, n, bin_w, bin_h, window)
    r0, r1, c0, c1 = window
    i0, i1 = np.maximum(i0, r0), np.minimum(i1, r1)
    j0, j1 = np.maximum(j0, c0), np.minimum(j1, c1)
    rows, cols = r1 - r0 + 1, c1 - c0 + 1
    grid = np.zeros(rows * cols)
    for run in _runs((i1 - i0 + 1) * (j1 - j0 + 1)):
        p = _patches(x0[run], x1[run], y0[run], y1[run], i0[run], i1[run],
                     j0[run], j1[run], bin_w, bin_h)
        np.add.at(grid, (p.i - r0) * cols + (p.j - c0),
                  weigh(index[run][p.obj], p.overlap))
    return grid.reshape(rows, cols)


# ----------------------------------------------------------------------
# Object extents
# ----------------------------------------------------------------------
def _cell_boxes(netlist: Netlist, placement: Placement) -> tuple:
    """Density footprints of every placed cell (see :func:`cell_extent`),
    as arrays ``(x0, x1, y0, y1, area)`` in placement order."""
    cells = placement.cell_xy
    xy = np.array(list(cells.values()), dtype=float).reshape(-1, 2)
    area = np.array([netlist.cell_type(cid).area for cid in cells],
                    dtype=float)
    half_w = 0.5 * np.maximum(area / 1.0, 1.0)
    x, y = xy[:, 0], xy[:, 1]
    return x - half_w, x + half_w, y - 0.5, y + 0.5, area


def _net_boxes(netlist: Netlist, placement: Placement) -> tuple:
    """Pin bounding box of every net, as arrays ``(x0, x1, y0, y1)``."""
    if not netlist.nets:
        empty = np.empty(0)
        return empty, empty, empty, empty
    pins = netlist.pins
    cell_xy = placement.cell_xy
    ports = placement.die.port_positions
    points = []
    starts = []
    for net in netlist.nets.values():
        starts.append(len(points))
        for pid in (net.driver, *net.sinks):
            cell = pins[pid].cell
            points.append(ports[pid] if cell is None else cell_xy[cell])
    pts = np.array(points, dtype=float)
    lo = np.minimum.reduceat(pts, starts, axis=0)
    hi = np.maximum.reduceat(pts, starts, axis=0)
    return lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]


# ----------------------------------------------------------------------
# Channels, each over an inclusive bin window
# ----------------------------------------------------------------------
def _density(netlist: Netlist, placement: Placement, m: int, n: int,
             window: Window) -> tuple:
    """Each cell's row-height footprint spread over the bins it overlaps
    (so the map stays meaningful when bins are smaller than the largest
    cells), normalized to the cell's area, then divided by the bin area
    once.  Returns ``(bins, n_cells)``."""
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    x0, x1, y0, y1, area = _cell_boxes(netlist, placement)
    totals = _patch_totals(x0, x1, y0, y1, m, n, bin_w, bin_h, window)
    # Cells off the die (all-zero patch) or off the window add nothing.
    live = totals > 0
    area, totals = area[live], totals[live]
    bins = _rasterize(x0[live], x1[live], y0[live], y1[live], m, n,
                      bin_w, bin_h, window,
                      lambda k, overlap: area[k] * overlap / totals[k])
    return bins / (bin_w * bin_h), len(live)


def _rudy(netlist: Netlist, placement: Placement, m: int, n: int,
          window: Window) -> tuple:
    """Per net, (w + h) / (w * h) spread over its bounding box by the
    exact bin-overlap fractions.  Returns ``(bins, n_nets)``."""
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h
    x0, x1, y0, y1 = _net_boxes(netlist, placement)
    w = np.maximum(x1 - x0, _RUDY_EPS)
    h = np.maximum(y1 - y0, _RUDY_EPS)
    wire_density = (w + h) / (w * h)
    bins = _rasterize(
        x0, x1, y0, y1, m, n, bin_w, bin_h, window,
        lambda k, overlap: wire_density[k] * (overlap / bin_area))
    return bins, len(x0)


def _macro(die: Die, m: int, n: int) -> np.ndarray:
    """Exact macro coverage fraction per bin."""
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h
    x0, x1, y0, y1 = (np.array([getattr(r, f) for r in die.macros],
                               dtype=float)
                      for f in ("x0", "x1", "y0", "y1"))
    macro = _rasterize(x0, x1, y0, y1, m, n, bin_w, bin_h,
                       (0, m - 1, 0, n - 1),
                       lambda k, overlap: overlap / bin_area)
    return np.clip(macro, 0.0, 1.0)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def compute_layout_maps(netlist: Netlist, placement: Placement,
                        m: int = 64, n: int = 64) -> LayoutMaps:
    """Compute the three feature maps for a placed netlist."""
    require(m > 0 and n > 0, "bin counts must be positive")
    die = placement.die
    full = (0, m - 1, 0, n - 1)
    with get_tracer().span("placement.layout_maps", m=m, n=n,
                           rudy=True) as sp:
        density, n_cells = _density(netlist, placement, m, n, full)
        rudy, n_nets = _rudy(netlist, placement, m, n, full)
        macro = _macro(die, m, n)
        sp.set(objects=n_cells + n_nets + len(die.macros))
    return LayoutMaps(cell_density=density, rudy=rudy, macro=macro,
                      bin_w=die.width / m, bin_h=die.height / n)


def compute_free_space(netlist: Netlist, placement: Placement,
                       m: int, n: int) -> np.ndarray:
    """The (M, N) :func:`free_space` grid, from density and macro
    coverage only: equal to ``compute_layout_maps(...).free_space()``
    without paying for the RUDY channel."""
    require(m > 0 and n > 0, "bin counts must be positive")
    die = placement.die
    with get_tracer().span("placement.layout_maps", m=m, n=n,
                           rudy=False) as sp:
        density, n_cells = _density(netlist, placement, m, n,
                                    (0, m - 1, 0, n - 1))
        free = free_space(density, _macro(die, m, n))
        sp.set(objects=n_cells + len(die.macros))
    return free


def recompute_density_region(netlist: Netlist, placement: Placement,
                             density: np.ndarray, r0: int, r1: int,
                             c0: int, c1: int) -> None:
    """Recompute the density bins [r0..r1] × [c0..c1] in place.

    The recomputed bins are **bit-identical** to a full
    :func:`compute_layout_maps` pass because both run the same kernel:
    a cell's patch and its normalizing sum do not depend on the window,
    the window's bins receive the same contributions in the same
    (object) order, and the bin-area division is applied once after
    accumulation in both.  Used by the incremental what-if featurizer
    (:mod:`repro.serve`) to refresh only touched bins.
    """
    m, n = density.shape
    bins, _ = _density(netlist, placement, m, n, (r0, r1, c0, c1))
    density[r0:r1 + 1, c0:c1 + 1] = bins


def recompute_rudy_region(netlist: Netlist, placement: Placement,
                          rudy: np.ndarray, r0: int, r1: int,
                          c0: int, c1: int) -> None:
    """Recompute the RUDY bins [r0..r1] × [c0..c1] in place.

    Bit-identical to the full pass for the same reason as
    :func:`recompute_density_region`: the same kernel, windowed.
    """
    m, n = rudy.shape
    bins, _ = _rudy(netlist, placement, m, n, (r0, r1, c0, c1))
    rudy[r0:r1 + 1, c0:c1 + 1] = bins
