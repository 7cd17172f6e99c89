"""Property-based tests on netlist construction invariants."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    DESIGN_PRESETS,
    DesignSpec,
    generate_netlist,
)
from repro.netlist.stats import compute_stats
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.timing import build_timing_graph


@st.composite
def small_specs(draw):
    return DesignSpec(
        name="prop",
        n_gates=draw(st.integers(min_value=40, max_value=200)),
        n_regs=draw(st.integers(min_value=4, max_value=20)),
        n_pi=draw(st.integers(min_value=4, max_value=16)),
        n_po=draw(st.integers(min_value=4, max_value=16)),
        gate_mix=draw(st.sampled_from(["default", "xor_heavy", "wide"])),
        max_depth=draw(st.integers(min_value=4, max_value=24)),
        n_modules=draw(st.integers(min_value=1, max_value=4)),
    )


@settings(max_examples=15, deadline=None)
@given(small_specs(), st.integers(min_value=0, max_value=100))
def test_generated_netlists_satisfy_invariants(spec, seed):
    nl = generate_netlist(spec, base_seed=seed)
    nl.check()
    graph = build_timing_graph(nl)  # acyclic by construction
    stats = compute_stats(nl)
    # Exact structural counts.
    assert stats.n_regs == spec.n_regs
    # The per-level profile guarantees ≥ 1 gate per level, which can add a
    # few gates beyond the request on tiny specs.
    n_comb = stats.n_cells - spec.n_regs
    assert spec.n_gates <= n_comb <= spec.n_gates + spec.max_depth
    # Depth bound: each logic level adds at most 2 graph levels.
    assert graph.n_levels <= 2 * spec.max_depth + 2
    # Every endpoint is reachable (level > 0) or trivially at a source-fed
    # net; either way it has a defined level.
    assert (graph.level[graph.endpoints] >= 1).all()


@settings(max_examples=8, deadline=None)
@given(small_specs(), st.integers(min_value=0, max_value=20))
def test_verilog_roundtrip_on_random_designs(spec, seed):
    nl = generate_netlist(spec, base_seed=seed)
    buf = io.StringIO()
    write_verilog(nl, buf)
    back = parse_verilog(buf.getvalue())
    a, b = compute_stats(nl), compute_stats(back)
    assert (a.n_pins, a.n_net_edges, a.n_cell_edges, a.n_endpoints) == \
           (b.n_pins, b.n_net_edges, b.n_cell_edges, b.n_endpoints)
