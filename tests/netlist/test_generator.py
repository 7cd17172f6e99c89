"""Tests for the synthetic design generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    DESIGN_PRESETS,
    PAPER_DESIGNS,
    TEST_DESIGNS,
    TRAIN_DESIGNS,
    generate_netlist,
    generate_preset,
)
from repro.netlist.stats import compute_stats
from repro.timing import build_timing_graph


def test_presets_cover_paper_benchmarks():
    expected = {"jpeg", "rocket", "smallboom", "steelcore", "xgate",
                "arm9", "chacha", "hwacha", "or1200", "sha3"}
    assert set(PAPER_DESIGNS) == expected
    assert set(DESIGN_PRESETS) == expected | {"large"}
    assert len(TRAIN_DESIGNS) == 5 and len(TEST_DESIGNS) == 5
    assert set(TRAIN_DESIGNS) == {"jpeg", "rocket", "smallboom",
                                  "steelcore", "xgate"}


def test_scale_tier_presets_stay_out_of_the_paper_protocol():
    """``split="bench"`` presets never leak into train/test/table runs."""
    spec = DESIGN_PRESETS["large"]
    assert spec.split == "bench"
    assert "large" not in PAPER_DESIGNS
    assert "large" not in TRAIN_DESIGNS and "large" not in TEST_DESIGNS


def test_generation_is_deterministic():
    a = generate_preset("xgate", scale=0.2)
    b = generate_preset("xgate", scale=0.2)
    assert compute_stats(a) == compute_stats(b)
    assert list(a.net_edges()) == list(b.net_edges())


def test_generation_differs_by_seed():
    a = generate_preset("xgate", base_seed=0, scale=0.2)
    b = generate_preset("xgate", base_seed=1, scale=0.2)
    assert list(a.net_edges()) != list(b.net_edges())


def test_generated_counts_match_spec():
    spec = DESIGN_PRESETS["steelcore"].scaled(0.3)
    nl = generate_netlist(spec)
    assert len(nl.sequential_cells()) == spec.n_regs
    assert len(nl.combinational_cells()) == spec.n_gates
    assert len(nl.primary_inputs()) == spec.n_pi
    assert len(nl.primary_outputs()) >= spec.n_po  # + dangling aux POs


def test_generated_netlist_is_acyclic_and_depth_bounded():
    spec = DESIGN_PRESETS["xgate"].scaled(0.3)
    nl = generate_netlist(spec)
    graph = build_timing_graph(nl)  # raises on cycles
    # Each logic level contributes ≤ 2 graph levels (net + cell).
    assert graph.n_levels <= 2 * spec.max_depth + 2


def test_every_gate_output_net_has_sinks():
    """Gate outputs never dangle (dangling drivers become aux POs);
    unused primary inputs / register outputs may legitimately dangle."""
    nl = generate_preset("xgate", scale=0.3)
    for net in nl.nets.values():
        drv = nl.pins[net.driver]
        if drv.cell is not None and not nl.cell_type(drv.cell).is_sequential:
            assert len(net.sinks) >= 1


def test_endpoint_cone_depths_vary():
    nl = generate_preset("steelcore", scale=0.5)
    graph = build_timing_graph(nl)
    levels = graph.level[graph.endpoints]
    assert levels.max() - levels.min() > 5


def test_scaled_spec_scales_down():
    spec = DESIGN_PRESETS["jpeg"]
    small = spec.scaled(0.1)
    assert small.n_gates < spec.n_gates
    assert small.n_regs < spec.n_regs
    assert small.name == spec.name


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        DESIGN_PRESETS["jpeg"].scaled(0.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown design"):
        generate_preset("nonexistent")


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(DESIGN_PRESETS)),
       st.integers(min_value=0, max_value=3))
def test_generated_netlists_always_check(name, seed):
    nl = generate_preset(name, base_seed=seed, scale=0.05)
    nl.check()
    build_timing_graph(nl)  # acyclic
