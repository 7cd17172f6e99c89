"""Fleet workers leave with their gateway and share the CPUs' BLAS threads.

A forked worker used to keep the gateway's end of its own pipe (and of
every pipe forked before it), so a gateway killed without
``TimingFleet.stop()`` left its workers blocked in ``conn.recv()``
forever: they ignore SIGTERM and SIGINT by design.  Each worker now
closes those ends at entry, and also exits once its parent pid changes.

Each worker also runs numpy's bundled OpenBLAS at its share of the CPUs
(``cpus // workers``, at least one) and reports it in ``describe``.  The
gateway sets the cap before it forks, so a worker inherits it and never
starts a BLAS thread pool of its own.

A worker respawned after a crash is forked from the serving gateway, so
it also closes the gateway's sockets it inherited.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.flow import FlowConfig
from repro.serve import FleetConfig, TimingFleet
from repro.utils.blas import blas_threads, limit_blas_threads

from .conftest import http_call

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc/self"),
                       reason="reads process states from /proc"),
    pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                       reason="the inherited pipe ends exist only by fork"),
]

SRC = Path(__file__).resolve().parents[2] / "src"

#: Starts a 2-worker fleet, prints the worker pids, then SIGKILLs itself.
GATEWAY = textwrap.dedent("""
    import json, os, signal, sys
    from repro.flow import FlowConfig
    from repro.core import TimingPredictor
    from repro.serve import FleetConfig, TimingFleet

    fleet = TimingFleet(
        TimingPredictor.load(sys.argv[1]),
        {d: d for d in ("xgate", "steelcore")},
        FleetConfig(workers=2, threads=1, microbatch=1,
                    flow_config=FlowConfig(scale=0.2))).start()
    print(json.dumps([w.pid for w in fleet.workers]), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
""")


def _gone(pid: int) -> bool:
    """Exited: no such process, or a zombie waiting for its new parent."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


def test_workers_exit_when_the_gateway_is_killed(tmp_path, served_predictor):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-c", GATEWAY, str(model)],
                            stdout=subprocess.PIPE, env=env, text=True)
    pids = []
    try:
        # One line only: the workers hold the same stdout until they exit.
        pids = json.loads(proc.stdout.readline())
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [p for p in pids if not _gone(p)] == [], \
            "fleet workers outlived their gateway"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


def test_workers_report_their_blas_thread_budget(fleet_predictor):
    fleet = TimingFleet(fleet_predictor,
                        {"xgate": "xgate", "steelcore": "steelcore"},
                        FleetConfig(workers=2, threads=1, microbatch=1,
                                    flow_config=FlowConfig(scale=0.2)))
    fleet.start()
    try:
        replies = []
        fleet.fanout("describe", replies.extend)
        deadline = time.monotonic() + 30.0
        while len(replies) < 2 and time.monotonic() < deadline:
            for worker in fleet.workers:
                fleet.pump(worker)
            time.sleep(0.01)
    finally:
        fleet.stop()
    budget = max(1, len(os.sched_getaffinity(0)) // 2)
    want = budget if blas_threads() is not None else None
    assert fleet.blas_threads == want
    assert [info["blas_threads"] for info in replies] == [want, want]


@pytest.mark.skipif(blas_threads() is None,
                    reason="numpy bundles no OpenBLAS here")
def test_a_forked_worker_inherits_the_cap_without_a_thread_pool():
    """With one BLAS thread set before the fork, the child's products run
    on its one thread: it starts no BLAS thread pool (whose threads would
    spin while the workers build their designs).  Starting a fleet caps
    its own process the same way."""
    assert limit_blas_threads(1) == 1
    a = np.random.default_rng(0).random((2000, 64))
    b = np.random.default_rng(1).random((64, 64))
    pid = os.fork()
    if pid == 0:
        try:
            for _ in range(20):
                a @ b
            os._exit(len(os.listdir("/proc/self/task")))
        finally:
            os._exit(99)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


def _socket_links(pid) -> set:
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while listing
        if link.startswith("socket:"):
            links.add(link)
    return links


def _on_loop(gateway, fn):
    """Run ``fn()`` on the gateway's loop thread and return its value."""
    out, done = [], threading.Event()
    gateway.call_soon_threadsafe(lambda: (out.append(fn()), done.set()))
    assert done.wait(10.0)
    return out[0]


def test_a_respawned_worker_holds_none_of_the_gateways_sockets(
        fleet_gateway):
    """A worker respawned after a crash is forked from the serving
    gateway; it closes the listener, the wake pair and every client
    socket it inherited, so a connection the gateway closes reads EOF
    at the client instead of staying open in the worker."""
    gateway = fleet_gateway({"xgate": "xgate"}, workers=1, microbatch=1,
                            flow_config=FlowConfig(scale=0.2))
    host, port = gateway.address
    client = http.client.HTTPConnection(host, port, timeout=30)
    try:
        client.request("GET", "/health")
        resp = client.getresponse()
        assert resp.status == 200 and resp.read()
        held = {os.readlink(f"/proc/self/fd/{sock.fileno()}")
                for sock in _on_loop(gateway, gateway._sockets)}
        assert len(held) == 4  # wake pair, listener, the client

        dead = gateway.fleet.workers[0].pid
        os.kill(dead, signal.SIGKILL)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, _, body = http_call(gateway.address, "POST",
                                        "/predict", {"design": "xgate"},
                                        timeout=60.0)
            if (status == 200
                    and gateway.fleet.workers[0].pid not in (dead, None)):
                break
            time.sleep(0.05)
        replacement = gateway.fleet.workers[0].pid
        assert replacement != dead and status == 200
        assert not held & _socket_links(replacement)

        # The gateway closes the connection outright (no shutdown): the
        # client sees EOF only if no other process holds the socket.
        peer = client.sock.getsockname()
        _on_loop(gateway, lambda: [gateway._drop(c)
                                   for c in list(gateway._clients.values())
                                   if c.sock.getpeername() == peer])
        client.sock.settimeout(10.0)
        assert client.sock.recv(1) == b""
    finally:
        client.close()
