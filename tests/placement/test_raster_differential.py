"""Differential battery: the vectorized layout rasterizer must equal the
per-object loops it replaced, bit for bit.

The density, RUDY and macro maps feed the optimizer's layout gate, the
CNN branch and every cached sample, so any drift in the last bit would
change optimizer decisions and sample digests.  This module keeps a
frozen copy of the loop implementation of :func:`compute_layout_maps`
and the two region recomputes as the ground truth, and asserts
``np.array_equal`` against it over every paper preset, several bin
counts, both the input and the optimized placement, and the edge cases
where the kernel's batching could show (pairwise sums of large patches,
die-edge clamping, degenerate nets, no macros, random windows).
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from repro.flow import FlowConfig, run_flow
from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.opt import OptimizerConfig, TimingOptimizer
from repro.placement import (
    Die,
    Placement,
    build_die,
    compute_free_space,
    compute_layout_maps,
    legalize,
    place,
    recompute_density_region,
    recompute_rudy_region,
)

#: Every paper preset ("large" is bench-only and 40x the size).
PAPER_DESIGNS = tuple(n for n, s in DESIGN_PRESETS.items()
                      if s.split != "bench")

_SCALE = 0.1
_BINS = (16, 32, 64)


# ----------------------------------------------------------------------
# Frozen reference: the loop implementation, verbatim.  Do not
# "modernize" it — its whole value is that it does not change.
# ----------------------------------------------------------------------
def _ref_axis_overlap(lo, hi, n_bins, bin_size):
    lo = max(0.0, lo)
    hi = max(lo, hi)
    b0 = int(np.clip(lo / bin_size, 0, n_bins - 1))
    b1 = int(np.clip(np.ceil(hi / bin_size) - 1, b0, n_bins - 1))
    edges = np.arange(b0, b1 + 2) * bin_size
    overlaps = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
    return b0, np.clip(overlaps, 0.0, None)


def _ref_bin_span(lo, hi, n_bins, bin_size):
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


def _ref_layout_maps(netlist, placement, m, n):
    """(density, rudy, macro) exactly as the seed loops computed them."""
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h

    density = np.zeros((m, n))
    for cid, (x, y) in placement.cell_xy.items():
        area = netlist.cell_type(cid).area
        half_w = 0.5 * max(area / 1.0, 1.0)
        i0, wx = _ref_axis_overlap(x - half_w, x + half_w, m, bin_w)
        j0, wy = _ref_axis_overlap(y - 0.5, y + 0.5, n, bin_h)
        patch = np.outer(wx, wy)
        total = patch.sum()
        if total > 0:
            density[i0:i0 + len(wx), j0:j0 + len(wy)] += area * patch / total
    density /= bin_area

    rudy = np.zeros((m, n))
    eps = 1e-6
    for nid, net in netlist.nets.items():
        pts = placement.pin_positions(netlist, [net.driver] + list(net.sinks))
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        w = max(x1 - x0, eps)
        h = max(y1 - y0, eps)
        wire_density = (w + h) / (w * h)
        i0, wx = _ref_axis_overlap(x0, x1, m, bin_w)
        j0, wy = _ref_axis_overlap(y0, y1, n, bin_h)
        patch = np.outer(wx, wy) / bin_area
        rudy[i0:i0 + len(wx), j0:j0 + len(wy)] += wire_density * patch

    macro = np.zeros((m, n))
    for rect in die.macros:
        i0, wx = _ref_axis_overlap(rect.x0, rect.x1, m, bin_w)
        j0, wy = _ref_axis_overlap(rect.y0, rect.y1, n, bin_h)
        macro[i0:i0 + len(wx), j0:j0 + len(wy)] += np.outer(wx, wy) / bin_area
    macro = np.clip(macro, 0.0, 1.0)
    return density, rudy, macro


def _ref_net_bbox(netlist, placement, net):
    x0 = y0 = math.inf
    x1 = y1 = -math.inf
    for pid in (net.driver, *net.sinks):
        x, y = placement.pin_position(netlist, pid)
        if x < x0:
            x0 = x
        if x > x1:
            x1 = x
        if y < y0:
            y0 = y
        if y > y1:
            y1 = y
    return x0, y0, x1, y1


def _ref_slice_add(acc, i0, j0, patch, r0, r1, c0, c1):
    pi0 = max(r0 - i0, 0)
    pi1 = min(r1 - i0, patch.shape[0] - 1)
    pj0 = max(c0 - j0, 0)
    pj1 = min(c1 - j0, patch.shape[1] - 1)
    if pi0 > pi1 or pj0 > pj1:
        return
    acc[i0 + pi0 - r0:i0 + pi1 - r0 + 1,
        j0 + pj0 - c0:j0 + pj1 - c0 + 1] += patch[pi0:pi1 + 1, pj0:pj1 + 1]


def _ref_density_region(netlist, placement, density, r0, r1, c0, c1):
    m, n = density.shape
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    acc = np.zeros((r1 - r0 + 1, c1 - c0 + 1))
    for cid, (x, y) in placement.cell_xy.items():
        area = netlist.cell_type(cid).area
        half_w = 0.5 * max(area / 1.0, 1.0)
        i0, i1 = _ref_bin_span(x - half_w, x + half_w, m, bin_w)
        j0, j1 = _ref_bin_span(y - 0.5, y + 0.5, n, bin_h)
        if i0 > r1 or i1 < r0 or j0 > c1 or j1 < c0:
            continue
        i0, wx = _ref_axis_overlap(x - half_w, x + half_w, m, bin_w)
        j0, wy = _ref_axis_overlap(y - 0.5, y + 0.5, n, bin_h)
        patch = np.outer(wx, wy)
        total = patch.sum()
        if total > 0:
            _ref_slice_add(acc, i0, j0, area * patch / total, r0, r1, c0, c1)
    density[r0:r1 + 1, c0:c1 + 1] = acc / (bin_w * bin_h)


def _ref_rudy_region(netlist, placement, rudy, r0, r1, c0, c1):
    m, n = rudy.shape
    die = placement.die
    bin_w = die.width / m
    bin_h = die.height / n
    bin_area = bin_w * bin_h
    eps = 1e-6
    acc = np.zeros((r1 - r0 + 1, c1 - c0 + 1))
    for nid, net in netlist.nets.items():
        x0, y0, x1, y1 = _ref_net_bbox(netlist, placement, net)
        w = max(x1 - x0, eps)
        h = max(y1 - y0, eps)
        i0, i1 = _ref_bin_span(x0, x1, m, bin_w)
        j0, j1 = _ref_bin_span(y0, y1, n, bin_h)
        if i0 > r1 or i1 < r0 or j0 > c1 or j1 < c0:
            continue
        i0, wx = _ref_axis_overlap(x0, x1, m, bin_w)
        j0, wy = _ref_axis_overlap(y0, y1, n, bin_h)
        wire_density = (w + h) / (w * h)
        patch = np.outer(wx, wy) / bin_area
        _ref_slice_add(acc, i0, j0, wire_density * patch, r0, r1, c0, c1)
    rudy[r0:r1 + 1, c0:c1 + 1] = acc


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flows():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_flow(name, FlowConfig(scale=_SCALE))
        return cache[name]

    return get


def _placed(flow, which):
    if which == "input":
        return flow.input_netlist, flow.input_placement
    return flow.opt_netlist, flow.opt_placement


def _assert_maps_equal(netlist, placement, m, n):
    density, rudy, macro = _ref_layout_maps(netlist, placement, m, n)
    maps = compute_layout_maps(netlist, placement, m=m, n=n)
    assert np.array_equal(maps.cell_density, density)
    assert np.array_equal(maps.rudy, rudy)
    assert np.array_equal(maps.macro, macro)
    return maps


def _placed_design(name, scale, seed=0):
    spec = DESIGN_PRESETS[name].scaled(scale)
    netlist = generate_netlist(spec, seed)
    die = build_die(netlist, spec, seed)
    placement = place(netlist, die)
    legalize(netlist, placement)
    return netlist, placement


# ----------------------------------------------------------------------
# Full maps over every preset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ["input", "opt"])
@pytest.mark.parametrize("name", PAPER_DESIGNS)
def test_full_maps_bit_identical(flows, name, which):
    netlist, placement = _placed(flows(name), which)
    for bins in _BINS:
        _assert_maps_equal(netlist, placement, bins, bins)


def test_non_square_grid_bit_identical(flows):
    netlist, placement = _placed(flows("chacha"), "opt")
    _assert_maps_equal(netlist, placement, 24, 40)


def test_optimizer_free_space_grid_equal(flows):
    """The gate's smoothed grid, built without RUDY, equals the grid
    derived from the reference loop maps."""
    flow = flows("steelcore")
    config = OptimizerConfig()
    bins = config.gate_bins
    placement = Placement(die=flow.input_placement.die,
                          cell_xy=dict(flow.input_placement.cell_xy))
    opt = TimingOptimizer(flow.input_netlist.clone(), placement, config)
    density, _, macro = _ref_layout_maps(flow.input_netlist,
                                         flow.input_placement, bins, bins)
    free = np.clip((1.0 - np.clip(density, 0.0, 1.0)) * (1.0 - macro),
                   0.0, 1.0)
    expected = ndimage.uniform_filter(free, size=3, mode="nearest")
    assert np.array_equal(opt._free, expected)
    for netlist, placement in (_placed(flow, "input"), _placed(flow, "opt")):
        maps = compute_layout_maps(netlist, placement, m=bins, n=bins)
        assert np.array_equal(
            compute_free_space(netlist, placement, bins, bins),
            maps.free_space())


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_paper_resolution_512(flows):
    """At 512×512 bins cell patches span 8+ bins per axis, so a patch sum
    takes NumPy's pairwise path: its association must still match."""
    netlist, placement = _placed(flows("xgate"), "opt")
    maps = _assert_maps_equal(netlist, placement, 512, 512)
    die = placement.die
    widest = max(netlist.cell_type(c).area for c in placement.cell_xy)
    assert widest / (die.width / 512) >= 8


def test_runs_accumulate_in_object_order(flows, monkeypatch):
    """Tiny expansion runs split objects across many scatters: each bin
    must still add its contributions in object order."""
    import repro.placement.density as density

    netlist, placement = _placed(flows("arm9"), "opt")
    monkeypatch.setattr(density, "_CHUNK", 7)
    _assert_maps_equal(netlist, placement, 32, 32)
    full = compute_layout_maps(netlist, placement, m=32, n=32)
    got = np.zeros_like(full.rudy)
    recompute_rudy_region(netlist, placement, got, 3, 20, 5, 30)
    assert np.array_equal(got[3:21, 5:31], full.rudy[3:21, 5:31])


def test_cells_clamped_against_die_edge():
    netlist, placement = _placed_design("xgate", 0.15)
    die = placement.die
    cells = list(placement.cell_xy)
    edges = [(0.0, 0.0), (die.width, die.height), (0.0, die.height),
             (die.width, 0.0), (0.2, die.height / 2), (die.width - 0.1, 3.0)]
    for cid, (x, y) in zip(cells, edges):
        placement.set_position(cid, x, y)
    # Also cells past the die edge, which contribute nothing.
    placement.cell_xy[cells[-1]] = (die.width + 50.0, die.height + 50.0)
    placement.cell_xy[cells[-2]] = (-50.0, -50.0)
    for bins in (16, 64):
        _assert_maps_equal(netlist, placement, bins, bins)


def test_net_with_coincident_pins():
    """Stacking every cell of a net on one spot drives w and h to eps."""
    netlist, placement = _placed_design("xgate", 0.15)
    stacked = 0
    for net in netlist.nets.values():
        cells = {netlist.pins[p].cell for p in (net.driver, *net.sinks)}
        if None in cells or len(cells) < 2:
            continue
        x, y = placement.cell_xy[next(iter(cells))]
        for cid in cells:
            placement.cell_xy[cid] = (x, y)
        stacked += 1
        if stacked == 5:
            break
    assert stacked == 5
    _assert_maps_equal(netlist, placement, 32, 32)


def test_design_without_macros():
    netlist, placement = _placed_design("steelcore", 0.15)
    die = placement.die
    bare = Die(width=die.width, height=die.height, macros=[],
               port_positions=die.port_positions)
    placement = Placement(die=bare, cell_xy=dict(placement.cell_xy))
    maps = _assert_maps_equal(netlist, placement, 32, 32)
    assert not maps.macro.any()


@pytest.mark.parametrize("name", ["xgate", "chacha"])
def test_region_recomputes_match_full_pass(flows, name):
    """Seeded random windows: each recompute equals the full pass's
    slice, and the loop reference's recompute."""
    netlist, placement = _placed(flows(name), "opt")
    rng = np.random.default_rng(7)
    for bins in (32, 64):
        full = compute_layout_maps(netlist, placement, m=bins, n=bins)
        for _ in range(8):
            r0, r1 = np.sort(rng.integers(0, bins, 2))
            c0, c1 = np.sort(rng.integers(0, bins, 2))
            for fn, ref, base in (
                    (recompute_density_region, _ref_density_region,
                     full.cell_density),
                    (recompute_rudy_region, _ref_rudy_region, full.rudy)):
                got = np.full_like(base, np.nan)
                want = np.full_like(base, np.nan)
                fn(netlist, placement, got, r0, r1, c0, c1)
                ref(netlist, placement, want, r0, r1, c0, c1)
                window = np.s_[r0:r1 + 1, c0:c1 + 1]
                assert np.array_equal(got[window], base[window])
                assert np.array_equal(got[window], want[window])
                # Bins outside the window are left untouched.
                got[window] = 0.0
                assert np.isnan(got).sum() == got.size - (
                    (r1 - r0 + 1) * (c1 - c0 + 1))
