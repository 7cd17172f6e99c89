"""A boot builds each served design's timing graph once and walks its
endpoint critical paths once.

The pre-route STA builds the input netlist's graph; featurization, the
session's incremental featurizer and its incremental STA all reuse it,
and the session keeps the paths featurization walked.  Counted with the
tracer's ``timing.graph.build`` spans (one per graph built, tagged with
the design) and a spy on :func:`repro.core.masking.build_endpoint_paths`
wherever a module bound it, on every boot path a server takes:

* ``--workers 0``: ``boot_designs`` (in process, and pooled), then
  ``SessionFactory.open`` on the boot's pre-route design and inputs;
* a fleet worker: ``SessionFactory.open`` by design name;
* the same by-name open at three corners.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import masking
from repro.flow import FlowConfig
from repro.ml import boot_designs
from repro.obs import get_tracer
from repro.serve import SessionFactory

from .conftest import MAP_BINS

DESIGNS = ["xgate", "steelcore"]
CFG = FlowConfig(scale=0.2)
THREE_CORNERS = ("base", "slow", "fast")


@contextmanager
def counting(monkeypatch):
    """Yield ``(graph_builds, walks)`` counters keyed by design; filled
    in when the block exits."""
    walk = masking.build_endpoint_paths
    walks: Counter = Counter()

    def spy(name, graph, seed=0):
        walks[name] += 1
        return walk(name, graph, seed)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "build_endpoint_paths", None) is walk):
            monkeypatch.setattr(module, "build_endpoint_paths", spy)
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    builds: Counter = Counter()
    try:
        yield builds, walks
        builds.update(e["attrs"]["design"] for e in tracer.events()
                      if e.get("type") == "span"
                      and e["name"] == "timing.graph.build")
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()


def assert_one_graph(session) -> None:
    assert session.graph is session.featurizer.graph
    assert session.sta.graph is session.featurizer.graph
    assert session.graph.netlist is session.netlist


def test_in_process_boot_then_open(monkeypatch, served_predictor):
    factory = SessionFactory(lambda: served_predictor, flow_config=CFG)
    with counting(monkeypatch) as (builds, walks):
        built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                     jobs=1)
        assert report.ok
        sessions = [factory.open(pre, sample=inputs)
                    for pre, inputs, _ in built]
    assert builds == Counter({d: 1 for d in DESIGNS})
    assert walks == Counter({d: 1 for d in DESIGNS})
    for session, (_, inputs, _) in zip(sessions, built):
        assert_one_graph(session)
        assert session.graph is inputs.graph
        assert session.featurizer.paths is inputs.paths
        session.close()


def test_pooled_boot_ships_the_graph_and_paths(monkeypatch,
                                               served_predictor):
    """The parent unpickles the workers' graphs and paths: it builds and
    walks nothing itself (the workers' graph builds reach the parent
    trace as merged spans)."""
    factory = SessionFactory(lambda: served_predictor, flow_config=CFG)
    with counting(monkeypatch) as (builds, walks):
        built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                     jobs=2)
        assert report.ok and report.jobs == 2
        sessions = [factory.open(pre, sample=inputs)
                    for pre, inputs, _ in built]
    assert builds == Counter({d: 1 for d in DESIGNS})
    assert not walks, "the parent walked paths the workers shipped"
    for session in sessions:
        assert_one_graph(session)
        session.close()


@pytest.mark.parametrize("corners", [None, THREE_CORNERS],
                         ids=["one-corner", "three-corners"])
def test_open_by_name(monkeypatch, corners, served_predictor,
                      three_corner_predictor):
    """The fleet worker's path: pre-route stages, inputs and session in
    one ``SessionFactory.open``."""
    predictor = served_predictor if corners is None \
        else three_corner_predictor
    config = CFG if corners is None else FlowConfig(scale=0.2,
                                                    corners=corners)
    factory = SessionFactory(lambda: predictor, flow_config=config,
                             corners=corners)
    with counting(monkeypatch) as (builds, walks):
        session = factory.open("xgate")
    assert builds == Counter({"xgate": 1})
    assert walks == Counter({"xgate": 1})
    assert session.corners == (corners or ("base",))
    assert_one_graph(session)
    session.close()
