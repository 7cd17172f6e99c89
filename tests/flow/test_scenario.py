"""Scenario grammar, sweep collapse, ECO invariants, and the data path."""

import numpy as np
import pytest

from repro.flow import (
    FlowConfig,
    ScenarioSpec,
    StageStore,
    expand_scenarios,
    run_flow,
    run_scenario_flow,
    run_scenarios,
)
from repro.flow.scenario import parse_sweep
from repro.netlist import DESIGN_PRESETS

_CFG = FlowConfig(scale=0.25)


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def test_default_scenario_identity():
    s = ScenarioSpec()
    assert s.is_default
    assert s.scenario_id == ""
    assert ScenarioSpec.parse(None) == s
    assert ScenarioSpec.parse("") == s


def test_parse_accepts_both_forms():
    human = ScenarioSpec.parse("clock_frac=0.7+eco=2")
    compact = ScenarioSpec.parse("clock_frac0.7+eco2")
    assert human == compact
    assert human.axes == (("clock_frac", 0.7),)
    assert human.eco_rounds == 2
    # The id round-trips through parse.
    assert ScenarioSpec.parse(human.scenario_id) == human


def test_axes_are_canonically_sorted():
    a = ScenarioSpec(axes=(("utilization", 0.8), ("clock_frac", 0.7)))
    b = ScenarioSpec(axes=(("clock_frac", 0.7), ("utilization", 0.8)))
    assert a == b
    assert a.scenario_id == "clock_frac0.7+utilization0.8"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ScenarioSpec.parse("not a scenario")
    with pytest.raises(ValueError):
        ScenarioSpec(axes=(("clock_frac", 0.6), ("clock_frac", 0.7)))
    with pytest.raises(ValueError):
        ScenarioSpec(eco_rounds=-1)


def test_parse_sweep():
    assert parse_sweep("clock_frac=0.6,0.7,0.8") == (
        "clock_frac", [0.6, 0.7, 0.8])
    for bad in ("clock_frac", "clock_frac=", "=0.5"):
        with pytest.raises(ValueError):
            parse_sweep(bad)


def test_expand_scenarios_cartesian_with_eco():
    out = expand_scenarios(["clock_frac=0.6,0.8"], eco_rounds=1)
    assert [s.scenario_id for s in out] == [
        "clock_frac0.6", "clock_frac0.6+eco1",
        "clock_frac0.8", "clock_frac0.8+eco1"]
    # No arguments: the single default scenario.
    assert expand_scenarios() == [ScenarioSpec()]
    # ECO alone applies to the default sweep point.
    assert [s.scenario_id for s in expand_scenarios(eco_rounds=2)] == [
        "", "eco1", "eco2"]


def test_unknown_or_non_numeric_axis_rejected():
    spec = DESIGN_PRESETS["xgate"].scaled(0.25)
    with pytest.raises(ValueError):
        ScenarioSpec(axes=(("no_such_field", 1.0),)).apply(spec)
    with pytest.raises(ValueError):
        ScenarioSpec(axes=(("name", 1.0),)).apply(spec)


# ----------------------------------------------------------------------
# Sweep collapse: a point at the preset default IS the default
# ----------------------------------------------------------------------
def test_sweep_point_at_default_collapses(tiny_flow):
    spec = DESIGN_PRESETS["xgate"].scaled(0.25)
    swept = ScenarioSpec(axes=(("clock_frac", spec.clock_frac),))
    assert swept.resolve(spec).is_default

    flow = run_scenario_flow("xgate", _CFG, scenario=swept)
    assert flow.scenario == ""
    assert flow.clock_period == tiny_flow.clock_period
    np.testing.assert_array_equal(flow.signoff_sta.arrival,
                                  tiny_flow.signoff_sta.arrival)


def test_off_default_sweep_point_shifts_clock(tiny_flow):
    flow = run_scenario_flow("xgate", _CFG, scenario="clock_frac=0.6")
    assert flow.scenario == "clock_frac0.6"
    # Same physical design, tighter constraint.
    assert flow.spec.clock_frac == 0.6
    assert flow.clock_period < tiny_flow.clock_period
    assert (sorted(flow.input_placement.cell_xy)
            == sorted(tiny_flow.input_placement.cell_xy))


# ----------------------------------------------------------------------
# ECO rounds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eco_chain():
    """The base flow plus two chained ECO rounds, one shared store."""
    scenarios = expand_scenarios(eco_rounds=2)
    flows = run_scenarios("xgate", _CFG, scenarios, store=StageStore())
    return dict(zip([s.scenario_id for s in scenarios], flows))


def test_eco_round_chains_from_previous_signoff(eco_chain):
    base, r1, r2 = eco_chain[""], eco_chain["eco1"], eco_chain["eco2"]
    assert [f.scenario for f in (base, r1, r2)] == ["", "eco1", "eco2"]
    # Round r's inputs are round r-1's optimized implementation...
    assert r1.input_netlist is base.opt_netlist
    assert r2.input_netlist is r1.opt_netlist
    # ...and its timing starting point is r-1's sign-off STA.
    assert r1.pre_route_sta is base.signoff_sta
    assert r2.pre_route_sta is r1.signoff_sta
    # The clock constraint never moves across rounds.
    assert base.clock_period == r1.clock_period == r2.clock_period


def test_eco_rounds_preserve_endpoint_pins(eco_chain):
    """The paper's restructure-tolerance anchor: endpoint pin ids
    survive every ECO round (the optimizer restructures logic cones,
    never the registers/ports that terminate them)."""
    base_eps = set(eco_chain[""].endpoint_labels())
    for rid in ("eco1", "eco2"):
        labels = eco_chain[rid].endpoint_labels()
        assert set(labels) == base_eps
        assert len(labels) == len(base_eps)


def test_eco_round_is_a_real_new_sample(eco_chain):
    base, r1 = eco_chain[""], eco_chain["eco1"]
    assert r1.signoff_sta is not base.signoff_sta
    # Re-optimization against the same constraint cannot hurt WNS much;
    # what matters here is the labels genuinely moved.
    assert eco_chain["eco1"].endpoint_labels() != base.endpoint_labels()


# ----------------------------------------------------------------------
# The data path: scenario-tagged samples through the cache
# ----------------------------------------------------------------------
def test_scenario_samples_build_and_cache(tmp_path):
    from repro.ml.dataset import load_or_build_samples

    scenarios = [ScenarioSpec(),
                 ScenarioSpec.parse("clock_frac0.6"),
                 ScenarioSpec.parse("eco1")]
    samples, status = load_or_build_samples(
        "xgate", _CFG, map_bins=32, cache_dir=tmp_path,
        scenarios=scenarios)
    assert status == "built"
    assert [s.scenario for s in samples] == ["", "clock_frac0.6", "eco1"]
    assert all(s.corner == "base" for s in samples)
    # Tagged cache files appeared next to the untagged default.
    names = sorted(p.name for p in tmp_path.glob("*.pkl"))
    assert sum("@clock_frac0.6" in n for n in names) == 1
    assert sum("@eco1" in n for n in names) == 1
    assert sum("@" not in n for n in names) == 1

    again, status = load_or_build_samples(
        "xgate", _CFG, map_bins=32, cache_dir=tmp_path,
        scenarios=scenarios)
    assert status == "cached"
    assert [s.scenario for s in again] == [s.scenario for s in samples]
    np.testing.assert_array_equal(again[1].y, samples[1].y)


def test_scenario_labels_differ_from_default(tmp_path):
    from repro.ml.dataset import load_or_build_samples

    samples, _ = load_or_build_samples(
        "xgate", _CFG, map_bins=32, cache_dir=tmp_path,
        scenarios=[ScenarioSpec(), ScenarioSpec.parse("clock_frac0.6")])
    base, swept = samples
    # A tighter clock shifts every label; features of the shared
    # placement match.
    assert not np.array_equal(base.y, swept.y)
    np.testing.assert_array_equal(base.x_cell, swept.x_cell)


# ----------------------------------------------------------------------
# Serving a scenario
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_predictor(tiny_sample):
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig

    predictor = TimingPredictor(model_config=ModelConfig(map_bins=32),
                                trainer_config=TrainerConfig(epochs=1))
    predictor.fit([tiny_sample])
    return predictor


def test_serve_session_carries_scenario(fitted_predictor):
    from repro.serve import SessionFactory

    factory = SessionFactory(acquire=lambda: fitted_predictor,
                             flow_config=_CFG,
                             scenario="clock_frac=0.6+eco=1")
    session = factory.open("xgate")
    assert session.scenario == "clock_frac0.6+eco1"
    wire = session.describe()
    assert wire["scenario"] == "clock_frac0.6+eco1"
    session.close()


def test_default_serve_wire_shape_unchanged(fitted_predictor):
    from repro.flow import run_flow
    from repro.serve import DesignSession

    # Sessions mutate their flow, so never wrap the shared tiny_flow.
    session = DesignSession(run_flow("xgate", _CFG), fitted_predictor)
    wire = session.describe()
    assert "scenario" not in wire       # byte-stable default shape
    session.close()
