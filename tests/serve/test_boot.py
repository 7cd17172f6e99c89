"""The ``repro serve`` boot paths.

A model-less bootstrap boots through
:func:`repro.ml.dataset.boot_designs`, which runs each design's flow
through the shared engine in :mod:`repro.ml.parallel` and keeps its
:class:`~repro.flow.PreRouteDesign` (and, for in-process serving, its
label-free inputs with the timing graph and critical paths they were
built from).  A server with a model opens every design by name where
its session lives: in the serving process with ``--workers 0``, in a
fleet worker otherwise; it starts no pool.  Under test:

* a pooled boot's pre-route designs and inputs equal the serial
  in-process boot's;
* the parent registry ends with the same flow counters either way, and
  worker spans reach the parent trace; a boot with a model runs only
  the pre-route stages (no optimizer counter, no route or sign-off
  span);
* ``repro serve`` reports a failed flow as one ``error:`` line, and no
  pool process is alive once the gateway binds or the fleet forks; a
  design that fails to build by name, in the serving process or inside
  a fleet worker, ends the boot the same way, with no process or thread
  of the boot left alive.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import signal
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.flow import FlowConfig, PreRouteDesign
from repro.ml import boot_designs
from repro.obs import get_metrics, get_tracer
from repro.serve import SessionFactory, TimingFleet, TimingGateway

CFG = FlowConfig(scale=0.2)
DESIGNS = ["xgate", "steelcore"]
BINS = 32
#: Wall-clock fields: everything else in a sample is deterministic.
TIMING_FIELDS = {"flow_times", "preprocess_time"}
COUNTER_PREFIXES = ("opt.", "flow.", "sta.")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="reads the process tree from /proc")


def _children() -> set:
    """PIDs of this process's live (or unreaped) children, except the
    interpreter-wide ``multiprocessing`` resource tracker: any test that
    starts a ``spawn`` process starts it once, and it lives until the
    interpreter exits by design."""
    out = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            out.update(int(pid) for pid in fh.read().split())
    return {pid for pid in out if not _is_resource_tracker(pid)}


def _is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:     # exited since the listing
        return False


def _assert_same(a, b, path: str) -> None:
    if isinstance(a, np.ndarray):
        # NaN marks optimizer-replaced elements in the auxiliary labels.
        assert a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f"), path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.name not in TIMING_FIELDS:
                _assert_same(getattr(a, f.name), getattr(b, f.name),
                             f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _counters(snapshot) -> dict:
    return {k: v for k, v in snapshot.items()
            if k.startswith(COUNTER_PREFIXES) and not isinstance(v, dict)}


def _boot(jobs: int):
    """One boot with the flow counters it added to the parent registry."""
    before = _counters(get_metrics().snapshot())
    results, report = boot_designs(DESIGNS, CFG, map_bins=BINS, jobs=jobs)
    after = _counters(get_metrics().snapshot())
    added = {k: v - before.get(k, 0) for k, v in after.items()
             if v != before.get(k, 0)}
    return results, report, added


@pytest.fixture(scope="module")
def serial_boot():
    return _boot(jobs=1)


def test_pooled_boot_equals_serial(serial_boot):
    serial, serial_report, _ = serial_boot
    before = _children()
    pooled, report, _ = _boot(jobs=2)
    assert serial_report.jobs == 1 and serial_report.ok
    assert report.jobs == 2 and report.ok
    assert os.getpid() not in {s.worker_pid for s in report.statuses}
    assert _children() <= before, "a pool process outlived the boot"
    for name, (pre_a, inputs_a, train_a), (pre_b, inputs_b, train_b) in zip(
            DESIGNS, serial, pooled):
        # Optimizer moves are pinned by the folded opt.* counters below;
        # the booted designs carry no sign-off data to compare.
        assert isinstance(pre_a, PreRouteDesign)
        assert pre_a.name == pre_b.name == name
        assert pre_a.clock_period == pre_b.clock_period
        assert pre_a.corner_names == pre_b.corner_names
        nl_a, nl_b = pre_a.input_netlist, pre_b.input_netlist
        assert nl_a.pins == nl_b.pins
        assert nl_a.cells == nl_b.cells
        assert (pre_a.input_placement.cell_xy
                == pre_b.input_placement.cell_xy)
        sample_a = inputs_a.sample
        assert sample_a.y is None and sample_a.pre_route_arrival is None
        _assert_same(sample_a, inputs_b.sample, name)
        assert inputs_a.paths == inputs_b.paths
        np.testing.assert_array_equal(inputs_a.graph.level,
                                      inputs_b.graph.level)
        # The pooled graph arrives on the netlist it was built from.
        assert inputs_b.graph.netlist is nl_b
        assert train_a is None and train_b is None


def test_pooled_boot_folds_the_serial_counters(serial_boot):
    _, _, serial_added = serial_boot
    _, _, pooled_added = _boot(jobs=2)
    assert any(k.startswith(("flow.", "sta.")) for k in serial_added)
    assert pooled_added == serial_added
    # A boot with a model runs no optimizer.
    assert not [k for k in serial_added if k.startswith("opt.")]


def test_fleet_boot_ships_flows_without_samples():
    results, report = boot_designs(DESIGNS, CFG, jobs=2)
    assert report.ok
    assert [pre.name for pre, _, _ in results] == DESIGNS
    assert all(isinstance(pre, PreRouteDesign) for pre, _, _ in results)
    assert all(inputs is None and train is None
               for _, inputs, train in results)


def test_bootstrap_boot_adds_labeled_corner_samples():
    """A model-less server trains on labeled samples built in the task."""
    results, report = boot_designs(DESIGNS, CFG, jobs=2, train_bins=BINS)
    assert report.ok
    for name, (pre, inputs, train) in zip(DESIGNS, results):
        assert inputs is None
        assert [s.name for s in train] == [name]
        assert train[0].y is not None
        assert train[0].layout_stack.shape[1] == BINS


def test_pool_worker_spans_reach_the_parent_trace():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        _, report = boot_designs(DESIGNS, CFG, map_bins=BINS, jobs=2)
        events = tracer.events()
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()
    assert report.merged_events > 0
    spans = [e for e in events if e.get("type") == "span"]
    assert any(e["name"] == "serve.boot" for e in spans)
    pids = {s.worker_pid for s in report.statuses}
    for design in DESIGNS:
        stages = {e["name"] for e in spans
                  if e["attrs"].get("design") == design}
        # A boot with a model runs only the pre-route stages.
        assert "flow.place" in stages, design
        assert not stages & {"flow.opt", "flow.route", "flow.sta"}, design
    assert pids.isdisjoint({os.getpid()})


def test_cli_serve_reports_a_failed_pool_flow(tmp_path, capsys,
                                              monkeypatch):
    import repro.flow

    real = repro.flow.run_scenario_flow

    def flaky(design, *args, **kwargs):
        if design == "steelcore":
            raise RuntimeError("placement diverged")
        return real(design, *args, **kwargs)

    monkeypatch.setattr(repro.flow, "run_scenario_flow", flaky)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = _children()
    assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                 "--model", str(tmp_path / "absent.pkl")]) == 1
    assert _children() <= before, "a pool process outlived the call"
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "steelcore" in errors[0] and "placement diverged" in errors[0]
    assert "xgate" not in errors[0]
    assert "Traceback" not in err


def test_cli_serve_reports_a_failed_by_name_build(tmp_path, capsys,
                                                  monkeypatch,
                                                  served_predictor):
    """A ``--workers 0`` model boot builds its designs by name in the
    serving process: a build that raises there ends the boot with the
    fleet's one ``error:`` line and exit 1, and leaves no child process
    and no thread (the micro-batcher's included) behind."""
    import repro.flow

    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    real = repro.flow.run_pre_route

    def flaky(design, *args, **kwargs):
        if design == "steelcore":
            raise RuntimeError("placement diverged")
        return real(design, *args, **kwargs)

    monkeypatch.setattr(repro.flow, "run_pre_route", flaky)
    before, threads = _children(), set(threading.enumerate())
    assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                 "--model", str(model), "--port", "0",
                 "--workers", "0"]) == 1
    assert _children() <= before, "a process outlived the call"
    assert set(threading.enumerate()) <= threads, "a thread outlived the call"
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: flow failed for steelcore: "
                      "RuntimeError: placement diverged"]
    assert "Traceback" not in err


def test_cli_serve_reports_a_failed_fleet_worker_build(tmp_path, capfd,
                                                      monkeypatch,
                                                      served_predictor):
    """A model fleet builds its designs in the workers: a build that
    raises there ends the boot with one ``error:`` line and exit 1."""
    import repro.flow

    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    real = repro.flow.run_pre_route

    def flaky(design, *args, **kwargs):
        if design == "steelcore":
            raise RuntimeError("placement diverged")
        return real(design, *args, **kwargs)

    # Forked workers inherit the patched module attribute.
    monkeypatch.setattr(repro.flow, "run_pre_route", flaky)
    before = _children()
    assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                 "--model", str(model), "--port", "0",
                 "--workers", "2"]) == 1
    assert _children() <= before, "a fleet worker outlived the call"
    err = capfd.readouterr().err   # fd-level: worker output included
    errors = [line for line in err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: flow failed for steelcore: "
                      "RuntimeError: placement diverged"]
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", [0, 1])
def test_cli_serve_pool_is_gone_before_serving(tmp_path, monkeypatch,
                                               served_predictor, workers):
    """No boot pool process is alive when the fleet is built (workers >
    0), or at any session open or when the gateway binds (workers 0,
    which opens its designs by name in this process)."""
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    before = _children()
    seen = {}

    def record(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            seen.setdefault(name, _children() - before)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    record(TimingFleet, "__init__")
    record(TimingGateway, "bind")
    opened = []
    open_session = SessionFactory.open

    def open_and_look(self, *args, **kwargs):
        session = open_session(self, *args, **kwargs)
        opened.append(_children() - before)
        return session

    monkeypatch.setattr(SessionFactory, "open", open_and_look)
    serve_forever = TimingGateway.serve_forever

    def drain_at_once(self, *args, **kwargs):
        self.request_drain()
        return serve_forever(self, *args, **kwargs)

    monkeypatch.setattr(TimingGateway, "serve_forever", drain_at_once)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                     "--model", str(model), "--port", "0",
                     "--workers", str(workers)]) == 0
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    first_hook = "__init__" if workers else "bind"
    assert seen[first_hook] == set(), seen
    if not workers:
        assert opened == [set()] * len(DESIGNS), opened
    assert _children() <= before
