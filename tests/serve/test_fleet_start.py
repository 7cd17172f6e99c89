"""``TimingFleet.start`` waits on every worker at once.

Start used to poll each worker's pipe in turn for 50 ms, so after the
last ``ready`` arrived it still blocked on an idle sibling before it
returned.  It now waits on every pipe and process sentinel together
(``multiprocessing.connection.wait``) and re-checks what is pending
before each wait.  The spies below see every blocking wait start: none
may be made once every design is ready, and none may block on a single
worker that has nothing pending.  Open failures, worker deaths and the
start timeout keep their errors.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import time

import pytest

import repro.flow
from repro.flow import FlowConfig
from repro.serve import FleetConfig, FleetOpenFailed, TimingFleet

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patched flow entry points reach the workers only by fork")

DESIGNS = ("xgate", "steelcore", "arm9", "chacha")
CFG = FlowConfig(scale=0.2)


def _config(**overrides) -> FleetConfig:
    return FleetConfig(workers=2, threads=1, flow_config=CFG, **overrides)


def _pending(worker) -> bool:
    return worker.ready.union(worker.failed) != worker.designs


class _SpyConn:
    """A worker pipe that logs each blocking ``poll`` with whether its
    worker still had a design to open."""

    def __init__(self, conn, worker_of, log) -> None:
        self._conn = conn
        self._worker_of = worker_of
        self._log = log

    def poll(self, timeout=0.0):
        if timeout:
            self._log.append(("poll", _pending(self._worker_of())))
        return self._conn.poll(timeout)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_start_never_blocks_once_nothing_is_pending(fleet_predictor,
                                                    monkeypatch):
    log = []
    fleet = TimingFleet(fleet_predictor, {d: d for d in DESIGNS},
                        _config())
    real_spawn, real_wait = TimingFleet._spawn, mp_connection.wait

    def spawn(self, worker_id):
        handle = real_spawn(self, worker_id)
        handle.conn = _SpyConn(handle.conn, lambda: handle, log)
        return handle

    started = []

    def wait(objects, timeout=None):
        # The module's own callers share the spy: a pipe's non-blocking
        # ``poll`` waits with no timeout, and ``stop`` joins after start.
        if timeout and not started:
            log.append(("wait", any(_pending(w) for w in fleet.workers)))
        return real_wait(objects, timeout)

    monkeypatch.setattr(TimingFleet, "_spawn", spawn)
    # ``start`` imports ``wait`` when it runs, so the spy replaces it
    # where it is defined.
    monkeypatch.setattr(mp_connection, "wait", wait)
    fleet.start()
    started.append(True)
    try:
        assert all(w.ready == w.designs for w in fleet.workers)
        assert len(fleet.workers) == 2
    finally:
        fleet.stop()
    assert log, "start made no blocking wait at all"
    assert all(pending for _, pending in log), log


def _patch_pre_route(monkeypatch, design, action):
    """Make the forked workers' pre-route build of *design* run
    *action* instead."""
    real = repro.flow.run_pre_route

    def run_pre_route(name, *args, **kwargs):
        if name == design:
            action()
        return real(name, *args, **kwargs)

    monkeypatch.setattr(repro.flow, "run_pre_route", run_pre_route)


def test_open_failure_raises_fleet_open_failed(fleet_predictor,
                                               monkeypatch):
    def fail():
        raise RuntimeError("no such netlist")

    _patch_pre_route(monkeypatch, "arm9", fail)
    fleet = TimingFleet(fleet_predictor, {d: d for d in DESIGNS},
                        _config())
    with pytest.raises(FleetOpenFailed) as err:
        fleet.start()
    assert set(err.value.failures) == {"arm9"}
    assert all(not w.alive for w in fleet.workers)


def test_worker_death_during_start_raises(fleet_predictor, monkeypatch):
    _patch_pre_route(monkeypatch, "chacha", lambda: os._exit(3))
    fleet = TimingFleet(fleet_predictor, {d: d for d in DESIGNS},
                        _config())
    with pytest.raises(RuntimeError, match="died during startup"):
        fleet.start()
    assert all(not w.alive for w in fleet.workers)


def test_start_timeout_raises(fleet_predictor, monkeypatch):
    _patch_pre_route(monkeypatch, "xgate", lambda: time.sleep(60))
    fleet = TimingFleet(fleet_predictor, {d: d for d in DESIGNS},
                        _config(start_timeout_s=1.0))
    with pytest.raises(TimeoutError, match="within 1s"):
        fleet.start()
    assert all(not w.alive for w in fleet.workers)
