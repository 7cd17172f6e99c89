"""Differential suite: incremental STA vs. full re-run after move sequences.

Property-style lockdown of the optimizer's central invariant: after *each*
edit in a seeded sequence of parameter-only moves (gate and flip-flop
resizes and cell moves — the edits :class:`IncrementalSTA` claims to
handle without a rebuild), every array of the result and every endpoint
arrival and slack must equal a from-scratch :func:`run_sta` exactly.
Runs over three design presets so level structure, fanout profile and
library usage all vary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.placement import build_die, legalize, place
from repro.timing import PreRouteEstimator, build_timing_graph, run_sta
from repro.timing.incremental import IncrementalSTA

PRESETS = [("xgate", 0.25), ("steelcore", 0.25), ("chacha", 0.2)]
N_MOVES = 8
ARRAYS = ("arrival", "slew", "required", "load", "best_pred", "net_delay",
          "cell_delay")


def _make_design(name: str, scale: float):
    spec = DESIGN_PRESETS[name].scaled(scale)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    return nl, pl


def _full_sta(nl, pl, period):
    return run_sta(build_timing_graph(nl), PreRouteEstimator(nl, pl), period)


def _assert_matches_full(inc_result, full_result, context: str) -> None:
    for name in ARRAYS:
        assert np.array_equal(getattr(inc_result, name),
                              getattr(full_result, name)), \
            f"{context}: {name} mismatch"
    assert inc_result.endpoint_arrival == full_result.endpoint_arrival, \
        context
    assert inc_result.endpoint_slack == full_result.endpoint_slack, context


EDIT_KINDS = ("flip-flop", "cell", "move")


def _apply_random_move(inc: IncrementalSTA, nl, pl, rng, step: int) -> str:
    """One seeded edit through the incremental API; *step* rotates it
    through a flip-flop resize, a combinational resize and a move."""
    lib = nl.library
    kind = EDIT_KINDS[step % len(EDIT_KINDS)]
    if kind != "move":
        # Resize a random flip-flop (which changes its clock-to-Q
        # launch) or combinational cell to a neighbouring drive.
        pool = (nl.sequential_cells() if kind == "flip-flop"
                else nl.combinational_cells())
        cells = sorted(c.cid for c in pool)
        rng.shuffle(cells)
        for cid in cells:
            ctype = nl.cell_type(cid)
            target = lib.upsize(ctype) or lib.downsize(ctype)
            if target is not None:
                inc.resize_cell(cid, target.name)
                return f"resize {kind} {cid} -> {target.name}"
    # Move: jitter a random cell inside the die.
    cells = sorted(nl.cells)
    cid = cells[int(rng.integers(len(cells)))]
    x, y = pl.position(cid)
    die = pl.die
    nx = float(np.clip(x + rng.uniform(-40.0, 40.0), 0.0, die.width))
    ny = float(np.clip(y + rng.uniform(-40.0, 40.0), 0.0, die.height))
    inc.move_cell(cid, nx, ny)
    return f"move {cid} -> ({nx:.1f}, {ny:.1f})"


@pytest.mark.parametrize("name,scale", PRESETS)
def test_incremental_matches_full_after_each_move(name, scale):
    nl, pl = _make_design(name, scale)
    period = 800.0
    inc = IncrementalSTA(nl, pl, clock_period=period)
    _assert_matches_full(inc.result, _full_sta(nl, pl, period),
                         f"{name}: initial state")

    rng = np.random.default_rng(20230716)
    for step in range(N_MOVES):
        what = _apply_random_move(inc, nl, pl, rng, step)
        got = inc.refresh()
        want = _full_sta(nl, pl, period)
        _assert_matches_full(got, want, f"{name} step {step}: {what}")
    assert inc.partial_updates == N_MOVES
    assert inc.full_rebuilds == 0


@pytest.mark.parametrize("name,scale", PRESETS[:1])
def test_batched_moves_then_single_refresh(name, scale):
    """Several dirty edits folded into one refresh still match full STA."""
    nl, pl = _make_design(name, scale)
    period = 800.0
    inc = IncrementalSTA(nl, pl, clock_period=period)
    rng = np.random.default_rng(7)
    for step in range(4):
        _apply_random_move(inc, nl, pl, rng, step)
    got = inc.refresh()
    _assert_matches_full(got, _full_sta(nl, pl, period), f"{name}: batched")
    assert inc.partial_updates == 1
