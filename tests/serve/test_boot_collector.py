"""The garbage collector around a ``repro serve`` boot.

A boot runs with the cyclic collector off, imports included, and
freezes what it built once the server is ready (CPython's ``gc.freeze``
recipe); a fleet worker does the same around each design it opens.
Under test:

* an in-process ``--workers 0`` boot records no collection between the
  start of ``cmd_serve`` and ready;
* the collector is on again, with the boot frozen, in the gateway and
  in every fleet worker once ready;
* a model-less bootstrap trains with the collector on;
* ``cmd_serve`` leaves the collector and the freeze as it found them on
  every return path (tests call ``main(["serve", ...])`` in-process);
* a session evicted by ``DELETE`` or the idle TTL is freed even though
  the boot froze it.
"""

from __future__ import annotations

import gc
import os
import signal
import time
import weakref

import pytest

from repro import cli
from repro.cli import main
from repro.core import TimingPredictor
from repro.serve import TimingGateway

DESIGNS = ["xgate", "steelcore"]
BASE_ARGS = ["serve", "--designs", *DESIGNS, "--scale", "0.2",
             "--port", "0"]


@pytest.fixture
def model(tmp_path, served_predictor):
    path = tmp_path / "model.pkl"
    served_predictor.save(path)
    return path


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two designs on two CPUs: a ``--workers 0`` bootstrap pools."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sigterm = signal.getsignal(signal.SIGTERM)
    yield
    signal.signal(signal.SIGTERM, sigterm)


def at_ready(monkeypatch, check):
    """Run ``check(gateway)`` where the gateway would start serving,
    then drain at once."""
    serve_forever = TimingGateway.serve_forever

    def drain_at_once(self, *args, **kwargs):
        try:
            check(self)
        finally:    # drained even when the check fails: stops a fleet
            self.request_drain()
            serve_forever(self, *args, **kwargs)

    monkeypatch.setattr(TimingGateway, "serve_forever", drain_at_once)


def test_in_process_boot_collects_nothing_until_ready(monkeypatch, model):
    events = []

    def on_gc(phase, info):
        if phase == "start":
            events.append(info["generation"])

    seen = {}
    init, ready = cli._BootCollector.__init__, cli._BootCollector.ready

    def init_spy(self):     # the start of cmd_serve
        events.clear()
        init(self)

    def ready_spy(self):
        seen["collections"] = list(events)
        ready(self)

    def check(gateway):
        seen["enabled"] = gc.isenabled()
        seen["frozen"] = gc.get_freeze_count()

    monkeypatch.setattr(cli._BootCollector, "__init__", init_spy)
    monkeypatch.setattr(cli._BootCollector, "ready", ready_spy)
    at_ready(monkeypatch, check)
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        assert main([*BASE_ARGS, "--model", str(model),
                     "--workers", "0"]) == 0
    finally:
        gc.callbacks.remove(on_gc)
    assert seen["collections"] == []
    assert seen["enabled"] is True
    assert seen["frozen"] > 0


def test_fleet_gateway_and_workers_collect_once_ready(monkeypatch, model):
    seen = {}

    def check(gateway):
        fleet = gateway.fleet
        seen["gateway"] = gc.isenabled()
        replies = []
        fleet.fanout("describe", replies.extend)
        deadline = time.perf_counter() + 30.0
        while len(replies) < len(fleet.workers) and (
                time.perf_counter() < deadline):
            for worker in fleet.workers:
                fleet.pump(worker)
            time.sleep(0.01)
        seen["workers"] = replies

    at_ready(monkeypatch, check)
    assert main([*BASE_ARGS, "--model", str(model),
                 "--workers", "2"]) == 0
    assert seen["gateway"] is True
    assert len(seen["workers"]) == 2
    assert all(info["collector_enabled"] is True
               for info in seen["workers"])


def test_bootstrap_trains_with_the_collector_on(monkeypatch, tmp_path):
    fit = TimingPredictor.fit
    enabled = []

    def spy(self, *args, **kwargs):
        enabled.append(gc.isenabled())
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(TimingPredictor, "fit", spy)
    at_ready(monkeypatch, lambda gateway: None)
    assert main(["serve", "--designs", "xgate", "--scale", "0.2",
                 "--port", "0", "--model", str(tmp_path / "absent.pkl"),
                 "--bootstrap-epochs", "1"]) == 0
    assert enabled == [True]


def _bad_model(tmp_path, model):
    path = tmp_path / "corrupt.pkl"
    path.write_bytes(b"not a pickle")
    return ["--model", str(path)]


def _failed_flow(monkeypatch, model):
    import repro.flow

    def broken(*args, **kwargs):
        raise RuntimeError("placement diverged")

    monkeypatch.setattr(repro.flow, "run_pre_route", broken)
    return ["--model", str(model)]


def _boot_raises(monkeypatch, model):
    # A model boot reports a failed design build as an ``error:`` line;
    # what still raises out of it is the server failing to come up.
    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(TimingGateway, "bind", crash)
    return ["--model", str(model)]


@pytest.mark.parametrize("collector_on", [True, False],
                         ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("path", ["served", "bad-model", "failed-flow",
                                  "raises"])
def test_serve_leaves_the_collector_as_found(monkeypatch, tmp_path, model,
                                             path, collector_on):
    if path == "served":
        at_ready(monkeypatch, lambda gateway: None)
        extra, code = ["--model", str(model)], 0
    elif path == "bad-model":
        extra, code = _bad_model(tmp_path, model), 1
    elif path == "failed-flow":
        extra, code = _failed_flow(monkeypatch, model), 1
    else:
        extra, code = _boot_raises(monkeypatch, model), None
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        assert gc.get_freeze_count() == 0
        if code is None:
            with pytest.raises(OSError, match="disk full"):
                main([*BASE_ARGS, *extra])
        else:
            assert main([*BASE_ARGS, *extra]) == code
        assert gc.isenabled() is collector_on
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_serve_keeps_a_callers_freeze(monkeypatch, model):
    """A freeze can only be undone whole: a caller's own stays, and the
    boot adds nothing to it."""
    at_ready(monkeypatch, lambda gateway: None)
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert main([*BASE_ARGS, "--model", str(model),
                     "--workers", "0"]) == 0
        assert 0 < gc.get_freeze_count() <= before
        assert gc.isenabled()
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("evict", ["delete", "ttl"])
def test_evicted_session_is_freed_despite_the_freeze(monkeypatch, model,
                                                     evict):
    seen = {}

    def check(gateway):
        dispatcher = gateway.fleet.dispatcher
        assert gc.get_freeze_count() > 0
        seen["refs"] = {d: weakref.ref(s.netlist)
                        for d, s in dispatcher.sessions.items()}
        if evict == "delete":
            status, _ = dispatcher.handle_to_wire(
                "DELETE", "/designs/xgate", None)
            assert status == 200
        else:
            time.sleep(0.1)
            dispatcher.handle("GET", "/health", None)   # sweeps idle ones
        assert "xgate" not in dispatcher.sessions
        gc.collect()
        seen["alive"] = {d: ref() is not None
                         for d, ref in seen["refs"].items()}

    at_ready(monkeypatch, check)
    extra = ["--session-ttl", "0.05"] if evict == "ttl" else []
    assert main([*BASE_ARGS, "--model", str(model), "--workers", "0",
                 *extra]) == 0
    assert seen["alive"]["xgate"] is False
