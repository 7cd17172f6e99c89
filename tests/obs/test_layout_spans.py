"""The layout rasterizer reports itself to the tracer.

``repro profile`` and the traced benchmark attribute map building inside
the flow through one ``placement.layout_maps`` span per rasterization:
``rudy=True`` for a full feature-map set, ``rudy=False`` for the
optimizer's free-space gate.
"""

from __future__ import annotations

import pytest

from repro.flow import FlowConfig, run_flow
from repro.obs import get_tracer


@pytest.fixture
def traced():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        yield tracer
    finally:
        if not was_enabled:
            tracer.disable()
        tracer.reset()


def test_run_flow_emits_one_span_per_rasterization(traced):
    config = FlowConfig(scale=0.2)
    run_flow("xgate", config)
    spans = [e for e in traced.events() if e["type"] == "span"]
    maps = [s for s in spans if s["name"] == "placement.layout_maps"]
    passes = [s for s in spans if s["name"] == "opt.pass"]
    full = [s for s in maps if s["attrs"]["rudy"]]
    gate = [s for s in maps if not s["attrs"]["rudy"]]
    # The place stage builds the input maps once; the optimizer refreshes
    # its gate on construction and after every pass, without RUDY.
    assert len(full) == 1
    assert len(gate) == 1 + len(passes) >= 2
    assert full[0]["attrs"]["m"] == full[0]["attrs"]["n"] == config.map_bins
    gate_bins = config.optimizer.gate_bins
    for s in gate:
        assert s["attrs"]["m"] == s["attrs"]["n"] == gate_bins
        # Gate spans count cells and macros; the full set adds the nets.
        assert 0 < s["attrs"]["objects"] < full[0]["attrs"]["objects"]
