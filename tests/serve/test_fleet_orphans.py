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
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.flow import FlowConfig
from repro.serve import FleetConfig, TimingFleet
from repro.serve.worker import limit_blas_threads

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
    from repro.serve import FleetConfig, PredictorRegistry, TimingFleet

    registry = PredictorRegistry()
    registry.register("default", sys.argv[1])
    fleet = TimingFleet(
        registry.payload("default"), {d: d for d in ("xgate", "steelcore")},
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


def _bundled_openblas() -> bool:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    return bool(glob.glob(libs))


def test_workers_report_their_blas_thread_budget(artifact_payload):
    fleet = TimingFleet(artifact_payload,
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
    want = budget if _bundled_openblas() else None
    assert fleet.blas_threads == want
    assert [info["blas_threads"] for info in replies] == [want, want]


@pytest.mark.skipif(not _bundled_openblas(),
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
