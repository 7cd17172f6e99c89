"""``run_pre_route`` against the full flow it stands in for.

A server with a model reads only a design's pre-routing inputs, so it
boots through :func:`repro.flow.run_pre_route`, which runs generate,
place and the unconstrained STA the clock period is derived from.  On
every paper preset and every configuration shape a server can be
booted with, its :class:`~repro.flow.PreRouteDesign` must pickle to the
same bytes as ``run_scenario_flow(...).pre_route()``, and the model
inputs built from the two must be equal array for array.  The traced
run must show that opt, route and sign-off were really skipped; an ECO
scenario is the one fallback that runs the full chain.
"""

from __future__ import annotations

import pickle

import pytest

from repro.flow import FlowConfig, run_pre_route, run_scenario_flow
from repro.ml import build_inputs
from repro.netlist import PAPER_DESIGNS
from repro.obs import get_metrics, get_tracer

from ..ml.test_inputs import assert_same_inputs

SCALE = 0.2
BINS = 32
SKIPPED_SPANS = {"flow.opt", "flow.route", "flow.sta"}

#: case id -> (flow config, scenario id)
CASES = {
    "default": (FlowConfig(scale=SCALE), None),
    "three-corners": (FlowConfig(scale=SCALE,
                                 corners=("base", "slow", "fast")), None),
    "no-base-corner": (FlowConfig(scale=SCALE, corners=("slow", "fast")),
                       None),
    "clock-sweep": (FlowConfig(scale=SCALE), "clock_frac0.8"),
    "eco": (FlowConfig(scale=SCALE), "clock_frac0.8+eco1"),
    "partitioned": (FlowConfig(scale=SCALE, partition_pins=64), None),
}


def _traced_pre_route(design, config, scenario):
    """``run_pre_route`` with the span names it emitted and the
    counters it added to the registry."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    before = get_metrics().snapshot()
    try:
        pre = run_pre_route(design, config, scenario=scenario)
        spans = {e["name"] for e in tracer.events()
                 if e.get("type") == "span"}
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()
    after = get_metrics().snapshot()
    added = {k: v - before.get(k, 0) for k, v in after.items()
             if not isinstance(v, dict) and v != before.get(k, 0)}
    return pre, spans, added


@pytest.mark.parametrize("case", sorted(CASES))
# Every paper preset ("large" is bench-only and 40x the size).
@pytest.mark.parametrize("design", PAPER_DESIGNS)
def test_pre_route_equals_the_full_flows_pre_route(design, case):
    config, scenario = CASES[case]
    pre, spans, added = _traced_pre_route(design, config, scenario)
    ref = run_scenario_flow(design, config, scenario=scenario).pre_route()

    assert pickle.dumps(pre) == pickle.dumps(ref)
    assert pre.corner_names == config.corner_set().names
    assert_same_inputs(build_inputs(pre, map_bins=BINS,
                                    partition_pins=config.partition_pins),
                       build_inputs(ref, map_bins=BINS,
                                    partition_pins=config.partition_pins))

    assert "flow.place" in spans
    if case == "eco":
        # Round 1's input is round 0's optimized, routed implementation.
        assert SKIPPED_SPANS <= spans
        return
    assert not spans & SKIPPED_SPANS, spans & SKIPPED_SPANS
    assert not [k for k in added if k.startswith("opt.")]
    assert added.get("sta.runs") == 1
