"""A boot builds each served design's timing graph once, walks its
endpoint critical paths once and sweeps its timing once.

The pre-route STA builds the input netlist's graph and propagates it;
featurization, the session's incremental featurizer and its incremental
STA all reuse the graph, the session keeps the paths featurization
walked, and its incremental STA starts from the pre-route STA's state
instead of sweeping again.  Counted with the tracer's
``timing.graph.build`` spans (tagged with the design), a spy on
:func:`repro.core.masking.build_endpoint_paths` and one on the STA's
propagation sweep (:func:`repro.timing.sta._sweep`, shared by full and
incremental STA) wherever a module bound them, on every boot path a
server takes:

* ``repro serve --model M --workers 0``: ``SessionFactory.open`` by
  design name in the serving process, with no boot pool and no fork;
* ``boot_designs`` (in process, and pooled), then ``SessionFactory.open``
  on the boot's pre-route design and inputs;
* a fleet worker: ``SessionFactory.open`` by design name;
* the same by-name open at three corners;
* a model-less bootstrap boot, whose training samples are a labeled
  copy of the serving inputs.

Every process characterizes the cell library once: the default library
pickles by reference, so a pooled boot's netlists arrive bound to the
parent's own.
"""

from __future__ import annotations

import copy
import os
import pickle
import signal
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import repro.liberty.library as library_module
import repro.ml.parallel
from repro.cli import main
from repro.core import masking
from repro.flow import FlowConfig, run_scenario_flow
from repro.liberty import CellLibrary
from repro.ml import boot_designs, build_corner_samples, dataset
from repro.obs import get_tracer
from repro.serve import (
    InProcessBackend,
    RequestDispatcher,
    SessionFactory,
    TimingGateway,
)
from repro.timing import sta as sta_module

from .conftest import MAP_BINS

DESIGNS = ["xgate", "steelcore"]
CFG = FlowConfig(scale=0.2)
THREE_CORNERS = ("base", "slow", "fast")
SWEEP_EVENT = "test.sta.sweep"


@contextmanager
def counting(monkeypatch):
    """Yield ``(graph_builds, walks, sweeps)`` counters keyed by design;
    filled in when the block exits.  *sweeps* counts calls of the one
    STA propagation sweep, :func:`repro.timing.sta._sweep`, which full
    STA runs and incremental refreshes share.  The spy records each as
    a tracer event, so a pooled worker's sweeps reach the parent with
    its merged trace."""
    walk = masking.build_endpoint_paths
    sweep = sta_module._sweep
    walks: Counter = Counter()

    def spy(name, graph, seed=0):
        walks[name] += 1
        return walk(name, graph, seed)

    def sweep_spy(res, nldm, start_level):
        get_tracer().event(SWEEP_EVENT, design=res.graph.netlist.name)
        return sweep(res, nldm, start_level)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, "build_endpoint_paths", None) is walk:
            monkeypatch.setattr(module, "build_endpoint_paths", spy)
        if getattr(module, "_sweep", None) is sweep:
            monkeypatch.setattr(module, "_sweep", sweep_spy)
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    builds: Counter = Counter()
    sweeps: Counter = Counter()
    try:
        yield builds, walks, sweeps
        events = tracer.events()
        builds.update(e["attrs"]["design"] for e in events
                      if e.get("type") == "span"
                      and e["name"] == "timing.graph.build")
        sweeps.update(e["attrs"]["design"] for e in events
                      if e.get("type") == "event"
                      and e["name"] == SWEEP_EVENT)
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()


def assert_one_graph(session) -> None:
    assert session.graph is session.featurizer.graph
    assert session.sta.graph is session.featurizer.graph
    assert session.graph.netlist is session.netlist


def test_model_boot_opens_by_name_in_process(monkeypatch, tmp_path,
                                             served_predictor):
    """``repro serve --model M --workers 0`` opens each design by name in
    its own process: one graph, walk and sweep per design, no
    ``run_design_tasks`` call and no fork; its sessions answer
    ``/predict`` as sessions on a pooled boot at the same seed do."""
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    calls = []

    def pool(*args, **kwargs):
        calls.append("run_design_tasks")
        raise AssertionError("a model boot ran the boot pool")

    def fork():
        calls.append("fork")
        raise OSError("a model boot forked")

    monkeypatch.setattr(repro.ml.parallel, "run_design_tasks", pool)
    monkeypatch.setattr(os, "fork", fork)
    served = {}
    backend_init = InProcessBackend.__init__

    def keep_sessions(self, sessions, *args, **kwargs):
        served.update(sessions)
        backend_init(self, sessions, *args, **kwargs)

    monkeypatch.setattr(InProcessBackend, "__init__", keep_sessions)
    serve_forever = TimingGateway.serve_forever

    def drain_at_once(self, *args, **kwargs):
        self.request_drain()
        return serve_forever(self, *args, **kwargs)

    monkeypatch.setattr(TimingGateway, "serve_forever", drain_at_once)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        with counting(monkeypatch) as (builds, walks, sweeps):
            assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                         "--seed", "1", "--model", str(model),
                         # Sessions that infer themselves still answer
                         # once the server (and a batcher) has stopped.
                         "--microbatch", "1",
                         "--port", "0", "--workers", "0"]) == 0
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert calls == []
    assert builds == Counter({d: 1 for d in DESIGNS})
    assert walks == Counter({d: 1 for d in DESIGNS})
    assert sweeps == Counter({d: 1 for d in DESIGNS})
    assert sorted(served) == sorted(DESIGNS)
    for session in served.values():
        assert_one_graph(session)
    monkeypatch.undo()
    config = FlowConfig(scale=0.2, base_seed=1)
    built, report = boot_designs(DESIGNS, config, map_bins=MAP_BINS,
                                 seed=1, jobs=2)
    assert report.ok
    factory = SessionFactory(lambda: served_predictor, flow_config=config,
                             default_seed=1)
    pooled = {d: factory.open(pre, sample=inputs)
              for d, (pre, inputs, _) in zip(DESIGNS, built)}
    for design in DESIGNS:
        body = {"design": design}
        assert RequestDispatcher(served).handle("POST", "/predict", body) \
            == RequestDispatcher(pooled).handle("POST", "/predict", body)
    for session in (*served.values(), *pooled.values()):
        session.close()


def test_in_process_boot_then_open(monkeypatch, served_predictor):
    factory = SessionFactory(lambda: served_predictor, flow_config=CFG)
    with counting(monkeypatch) as (builds, walks, sweeps):
        built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                     jobs=1)
        assert report.ok
        sessions = [factory.open(pre, sample=inputs)
                    for pre, inputs, _ in built]
    assert builds == Counter({d: 1 for d in DESIGNS})
    assert walks == Counter({d: 1 for d in DESIGNS})
    assert sweeps == Counter({d: 1 for d in DESIGNS})
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
    with counting(monkeypatch) as (builds, walks, sweeps):
        built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                     jobs=2)
        assert report.ok and report.jobs == 2
        sessions = [factory.open(pre, sample=inputs)
                    for pre, inputs, _ in built]
    assert builds == Counter({d: 1 for d in DESIGNS})
    assert not walks, "the parent walked paths the workers shipped"
    # The workers' sweeps, merged; the sessions sweep nothing.
    assert sweeps == Counter({d: 1 for d in DESIGNS})
    for session in sessions:
        assert_one_graph(session)
        session.close()


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pooled"])
def test_one_library_per_process(monkeypatch, served_predictor, jobs):
    """The boot's process characterizes the library once, and every
    netlist it serves (a pooled boot's unpickled ones included) is
    bound to that one library."""
    characterize = library_module.characterize_all
    calls = []

    def counted():
        calls.append(1)
        return characterize()

    # A process that has not characterized yet (forked workers inherit
    # this state and characterize once each, in their own process).
    monkeypatch.setattr(library_module, "_DEFAULT", None)
    monkeypatch.setattr(library_module, "characterize_all", counted)
    factory = SessionFactory(lambda: served_predictor, flow_config=CFG)
    built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                 jobs=jobs)
    assert report.ok and report.jobs == jobs
    sessions = [factory.open(pre, sample=inputs)
                for pre, inputs, _ in built]
    assert len(calls) == 1
    lib = CellLibrary.default()
    for session, (pre, inputs, _) in zip(sessions, built):
        assert pre.input_netlist.library is lib
        assert inputs.graph.netlist.library is lib
        assert session.sta.graph.netlist.library is lib
        session.close()


def _without_timings(sample):
    """The sample's pickle with its wall-clock fields zeroed."""
    sample = copy.copy(sample)
    sample.preprocess_time = 0.0
    sample.flow_times = {}
    return pickle.dumps(sample)


def test_bootstrap_boot_walks_once(monkeypatch):
    """A model-less bootstrap boot labels a copy of the serving inputs:
    one walk per design, and the same samples a fresh
    ``build_corner_samples`` builds."""
    with counting(monkeypatch) as (builds, walks, _):
        built, report = boot_designs(DESIGNS, CFG, map_bins=MAP_BINS,
                                     train_bins=MAP_BINS, jobs=1)
        assert report.ok
    assert walks == Counter({d: 1 for d in DESIGNS})
    for design, (_, inputs, train) in zip(DESIGNS, built):
        ref = build_corner_samples(run_scenario_flow(design, CFG),
                                   map_bins=MAP_BINS)
        assert [_without_timings(s) for s in train] == \
            [_without_timings(s) for s in ref]
        assert inputs.sample.y is None, "labeling reached the serving sample"
        # The training sample owns the arrays a session's edits write in
        # place, so those edits never reach it.
        for name in ("x_cell", "x_net", "masks", "layout_stack"):
            assert not np.shares_memory(getattr(train[0], name),
                                        getattr(inputs.sample, name)), name


def test_bootstrap_boot_needs_equal_bins():
    """Training samples are a labeled copy of the serving inputs, so a
    boot that asks for both at other bin counts fails the design."""
    _, report = boot_designs(["xgate"], CFG, map_bins=MAP_BINS,
                             train_bins=2 * MAP_BINS, jobs=1)
    assert not report.ok
    assert "train_bins" in report.failed[0].error


def test_corner_samples_build_through_build_sample(monkeypatch):
    """``build_corner_samples`` builds its first corner through the
    module's ``build_sample``, the function a layer profiler wraps to
    time featurization (the e2e benchmark's ``ml.featurize``)."""
    real = dataset.build_sample
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("corner"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset, "build_sample", spy)
    flow = run_scenario_flow("xgate", FlowConfig(scale=0.2,
                                                 corners=THREE_CORNERS))
    samples = build_corner_samples(flow, map_bins=MAP_BINS)
    assert calls == ["base"]
    assert [s.corner for s in samples] == list(THREE_CORNERS)


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
    with counting(monkeypatch) as (builds, walks, sweeps):
        session = factory.open("xgate")
    assert builds == Counter({"xgate": 1})
    assert walks == Counter({"xgate": 1})
    assert sweeps == Counter({"xgate": 1})
    assert session.corners == (corners or ("base",))
    assert_one_graph(session)
    session.close()
