"""The flow's inner loop reports itself to the tracer.

Besides the stage and STA spans, a traced ``run_flow`` records one
``timing.graph.build`` span per timing-graph construction (``n_nodes``,
``n_levels``) and one ``placement.legalize`` span per legalization
(``cells``), so a profile of the flow splits graph building, STA and
legalization without cProfile.
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


def test_run_flow_emits_graph_build_and_legalize_spans(traced):
    flow = run_flow("xgate", FlowConfig(scale=0.2))
    spans = [e for e in traced.events() if e["type"] == "span"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    legal = by_name["placement.legalize"]
    assert len(legal) == 1
    assert legal[0]["attrs"]["cells"] == len(flow.input_netlist.cells)

    builds = by_name["timing.graph.build"]
    # Constrain and sign-off build a graph each; the optimizer builds one
    # per pass plus two for recovery and its final timing.
    assert len(builds) >= len(by_name["opt.pass"]) + 4
    shapes = {(s["attrs"]["n_nodes"], s["attrs"]["n_levels"])
              for s in builds}
    for sta in (flow.pre_route_sta, flow.signoff_sta):
        assert (sta.graph.n_nodes, sta.graph.n_levels) in shapes
    # Every STA run times a graph some build span reported.
    assert ({s["attrs"]["n_nodes"] for s in by_name["sta.run"]}
            <= {n for n, _ in shapes})
    for s in builds:
        assert s["attrs"]["design"] == flow.name
        assert s["dur"] >= 0.0
