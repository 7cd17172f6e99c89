"""Differential battery: the placer's array sums and the batched pin
gather must equal the code they replaced, position for position.

Global placement used to sum its star model with ``np.add.at`` on
``(n, 2)`` arrays, spread cells one column at a time and clamp every
cell through ``Placement.set_position``; ``Placement.pin_positions``
called ``pin_position`` once per pin.  Placement now sums both axes in
one ``np.bincount`` per step, with each net's fixed-pad sums first, so
every bin adds its terms in the old order; it spreads by one stable
lexsort and clamps all cells at once.  The frozen copies below are the
old code.  On every paper preset, at design seeds 0 and 1 and scales
0.1 and 0.35, the positions must be equal (``==``, in the same cell
order), and so must every pin's position.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, PAPER_DESIGNS, generate_netlist
from repro.placement import Placement, PlacerConfig, build_die, place
from repro.placement.placer import _density_warp, _push_out_of_macros
from repro.utils import spawn_rng

SEEDS = (0, 1)
SCALES = (0.1, 0.35)
CASES = [(d, s, k) for d in PAPER_DESIGNS for s in SEEDS for k in SCALES]


# --- frozen: the placer loop before the rewrite.  Do not "modernize". --
def frozen_spread_by_ranks(xy, die, blend):
    n = len(xy)
    n_cols = max(1, int(np.ceil(np.sqrt(n))))
    per_col = int(np.ceil(n / n_cols))
    target = np.empty_like(xy)
    order_x = np.argsort(xy[:, 0], kind="stable")
    for c in range(n_cols):
        members = order_x[c * per_col:(c + 1) * per_col]
        if len(members) == 0:
            continue
        tx = (c + 0.5) / n_cols * die.width
        rows = members[np.argsort(xy[members, 1], kind="stable")]
        ty = (np.arange(len(rows)) + 0.5) / len(rows) * die.height
        target[rows, 0] = tx
        target[rows, 1] = ty
    return (1 - blend) * xy + blend * target


def frozen_place(netlist, die, config=None):
    config = config or PlacerConfig()
    rng = spawn_rng(f"place/{netlist.name}", config.seed)
    cell_ids = sorted(netlist.cells)
    index = {cid: i for i, cid in enumerate(cell_ids)}
    n_cells = len(cell_ids)
    net_ids = sorted(netlist.nets)
    net_index = {nid: j for j, nid in enumerate(net_ids)}
    pair_cell: List[int] = []
    pair_net: List[int] = []
    fixed_sum = np.zeros((len(net_ids), 2))
    fixed_cnt = np.zeros(len(net_ids))
    for nid in net_ids:
        net = netlist.nets[nid]
        j = net_index[nid]
        members = set()
        for pid in [net.driver] + list(net.sinks):
            pin = netlist.pins[pid]
            if pin.cell is None:
                fixed_sum[j] += die.port_positions[pid]
                fixed_cnt[j] += 1
            else:
                members.add(index[pin.cell])
        for ci in members:
            pair_cell.append(ci)
            pair_net.append(j)
    pair_cell_arr = np.asarray(pair_cell, dtype=np.int64)
    pair_net_arr = np.asarray(pair_net, dtype=np.int64)
    net_members = np.bincount(pair_net_arr, minlength=len(net_ids)) + fixed_cnt
    cell_degree = np.bincount(pair_cell_arr, minlength=n_cells).astype(float)
    cell_degree[cell_degree == 0] = 1.0
    xy = np.column_stack([
        rng.uniform(0.1 * die.width, 0.9 * die.width, n_cells),
        rng.uniform(0.1 * die.height, 0.9 * die.height, n_cells),
    ])
    for it in range(config.n_iterations):
        net_sum = fixed_sum.copy()
        np.add.at(net_sum, pair_net_arr, xy[pair_cell_arr])
        centroid = net_sum / net_members[:, None]
        cell_sum = np.zeros_like(xy)
        np.add.at(cell_sum, pair_cell_arr, centroid[pair_net_arr])
        target = cell_sum / cell_degree[:, None]
        xy = (1 - config.damping) * xy + config.damping * target
        if (it + 1) % config.spread_every == 0:
            blend = 0.25 + 0.45 * (it + 1) / config.n_iterations
            xy = frozen_spread_by_ranks(xy, die, blend)
        xy[:, 0] = np.clip(xy[:, 0], 0.5, die.width - 0.5)
        xy[:, 1] = np.clip(xy[:, 1], 0.5, die.height - 0.5)
    xy = frozen_spread_by_ranks(xy, die, blend=0.6)
    xy = _density_warp(xy, die, netlist.name, config.seed)
    xy = _push_out_of_macros(xy, die)
    placement = Placement(die=die)
    for cid, pos in zip(cell_ids, xy):
        placement.set_position(cid, float(pos[0]), float(pos[1]))
    return placement


def frozen_pin_positions(placement, netlist, pids):
    return np.array([placement.pin_position(netlist, p) for p in pids],
                    dtype=float).reshape(-1, 2)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,seed,scale", CASES)
def test_place_and_pin_positions_match_frozen(name, seed, scale):
    spec = DESIGN_PRESETS[name].scaled(scale)
    netlist = generate_netlist(spec, seed)
    die = build_die(netlist, spec, seed)
    config = PlacerConfig(seed=seed)
    ours = place(netlist, die, config)
    ref = frozen_place(netlist, die, config)
    assert ours.cell_xy == ref.cell_xy
    assert list(ours.cell_xy) == list(ref.cell_xy)

    pids = sorted(netlist.pins)  # cell pins and every port pad
    got = ours.pin_positions(netlist, pids)
    assert got.shape == (len(pids), 2) and got.dtype == np.float64
    assert np.array_equal(got, frozen_pin_positions(ref, netlist, pids))


def test_pin_positions_of_no_pins_is_empty():
    spec = DESIGN_PRESETS["xgate"].scaled(0.1)
    netlist = generate_netlist(spec)
    placement = place(netlist, build_die(netlist, spec))
    assert placement.pin_positions(netlist, []).shape == (0, 2)
