"""Fault-injection battery for the serving fleet.

Proves the ISSUE's recovery contract:

* a worker killed with SIGKILL **mid-request** leaves every in-flight
  client with a definite answer — pure requests are transparently
  retried on the replacement worker, committed what-ifs get a clean,
  retryable 503 (never a hang, never a wrong answer);
* the dead worker's sessions re-materialize on the replacement with
  their committed revisions intact (journal replay), also when the
  fleet was given design names and the replacement rebuilds the design;
* a drain (SIGTERM path) finishes in-flight requests before shutdown
  and sheds new ones with a structured 503.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.flow import run_flow
from repro.serve import FleetConfig, TimingFleet

from .conftest import FLOW_CONFIG, http_call


@pytest.fixture(scope="module")
def xgate_flow():
    return run_flow("xgate", FLOW_CONFIG)


@pytest.fixture
def gateway(fleet_gateway, xgate_flow):
    return fleet_gateway({"xgate": xgate_flow}, workers=1,
                         fault_injection=True)


def _home_pid(gateway, design="xgate"):
    _, _, health = http_call(gateway.address, "GET", "/health")
    wid = health["fleet"]["designs"][design]
    return wid, gateway.fleet.workers[wid].pid


class TestKillNineMidRequest:
    def test_pure_request_is_retried_or_rejected_cleanly(self, gateway):
        """SIGKILL with a predict in flight: 200 (retried) — never a hang
        or a connection error."""
        _, pid = _home_pid(gateway)
        outcome = {}

        def fire():
            outcome["result"] = http_call(
                gateway.address, "POST", "/predict",
                {"design": "xgate", "_inject": {"sleep_s": 1.5}},
                timeout=60.0)

        t = threading.Thread(target=fire)
        t.start()
        time.sleep(0.4)  # request is now sleeping inside the worker
        os.kill(pid, signal.SIGKILL)
        t.join(timeout=60.0)
        assert not t.is_alive(), "in-flight request hung after SIGKILL"
        status, _, body = outcome["result"]
        # Pure request: the fleet retries it on the replacement worker.
        assert status == 200
        assert body["design"] == "xgate"
        assert body["n_endpoints"] == len(body["predictions"])

    def test_committed_whatif_gets_clean_503(self, gateway):
        """A commit in flight on a dying worker is ambiguous — it must
        fail with a retryable 503, not be silently replayed."""
        _, pid = _home_pid(gateway)
        outcome = {}

        def fire():
            outcome["result"] = http_call(
                gateway.address, "POST", "/whatif",
                {"design": "xgate", "commit": True,
                 "_inject": {"sleep_s": 1.5},
                 "edits": [{"op": "move", "cell": 1, "x": 3.0,
                            "y": 3.0}]},
                timeout=60.0)

        t = threading.Thread(target=fire)
        t.start()
        time.sleep(0.4)
        os.kill(pid, signal.SIGKILL)
        t.join(timeout=60.0)
        assert not t.is_alive()
        status, _, body = outcome["result"]
        assert status == 503
        assert body["error"]["code"] == "worker_lost"
        # The journal never saw the ack, so the replacement is at rev 0.
        _, _, designs = http_call(gateway.address, "GET", "/designs")
        assert designs["designs"]["xgate"]["revision"] == 0

    def test_fleet_keeps_serving_after_kill(self, gateway):
        _, pid = _home_pid(gateway)
        os.kill(pid, signal.SIGKILL)
        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {"design": "xgate"}, timeout=60.0)
        assert status == 200 and body["n_endpoints"] > 0
        _, _, health = http_call(gateway.address, "GET", "/health")
        worker = health["fleet"]["per_worker"][0]
        assert worker["restarts"] == 1 and worker["alive"]


    def test_request_sent_before_the_death_is_seen_is_rehomed(
            self, xgate_flow, fleet_predictor):
        """A worker that is dead but not yet reaped by the loop refuses
        the pipe write; the request is re-homed with the worker's other
        in-flight requests instead of failing the gateway (no 500)."""
        fleet = TimingFleet(fleet_predictor, {"xgate": xgate_flow},
                            FleetConfig(workers=1, threads=1,
                                        microbatch=1)).start()
        try:
            dead = fleet.workers[0]
            os.kill(dead.pid, signal.SIGKILL)
            dead.process.join(timeout=10.0)
            replies = []
            fleet.submit("xgate", "POST", "/predict", {"design": "xgate"},
                         lambda status, body: replies.append(status))
            replacement = fleet.handle_worker_death(dead)
            deadline = time.perf_counter() + 60.0
            while not replies and time.perf_counter() < deadline:
                if replacement.conn.poll(0.05):
                    fleet.pump(replacement)
            assert replies == [200]
        finally:
            fleet.stop()


class TestRematerialization:
    def test_committed_revisions_survive_worker_death(self, gateway):
        """Journal replay restores the shard's committed state."""
        for i in range(2):
            status, _, body = http_call(
                gateway.address, "POST", "/whatif",
                {"design": "xgate", "commit": True,
                 "edits": [{"op": "move", "cell": 1,
                            "x": 2.0 + i, "y": 2.0 + i}]})
            assert status == 200 and body["revision"] == i + 1
        _, _, after_commit = http_call(gateway.address, "POST",
                                       "/predict", {"design": "xgate"})
        assert after_commit["revision"] == 2

        _, pid = _home_pid(gateway)
        os.kill(pid, signal.SIGKILL)

        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {"design": "xgate"}, timeout=60.0)
        assert status == 200
        assert body["revision"] == 2, "journal replay lost a commit"
        # The replayed state predicts exactly what the dead worker did:
        # same committed placement, same shared weights.
        assert body["predictions"] == after_commit["predictions"]

    def test_repeated_kills(self, gateway):
        """Recovery is not a one-shot: survive several crashes."""
        for round_no in range(1, 3):
            _, pid = _home_pid(gateway)
            os.kill(pid, signal.SIGKILL)
            status, _, _ = http_call(gateway.address, "POST", "/predict",
                                     {"design": "xgate"}, timeout=60.0)
            assert status == 200
            _, _, health = http_call(gateway.address, "GET", "/health")
            assert (health["fleet"]["per_worker"][0]["restarts"]
                    == round_no)


class TestRebuildByName:
    def test_replacement_rebuilds_replays_and_answers_alike(
            self, fleet_gateway):
        """A name-built fleet's replacement worker runs the pre-route
        stages itself, replays the journal and answers as before."""
        gateway = fleet_gateway({"xgate": "xgate"}, workers=1,
                                flow_config=FLOW_CONFIG)
        status, _, committed = http_call(
            gateway.address, "POST", "/whatif",
            {"design": "xgate", "commit": True,
             "edits": [{"op": "move", "cell": 1, "x": 2.5, "y": 2.5}]})
        assert status == 200 and committed["revision"] == 1
        probe = {"design": "xgate",
                 "edits": [{"op": "move", "cell": 2, "x": 1.0, "y": 1.0}]}
        _, _, before = http_call(gateway.address, "POST", "/predict",
                                 {"design": "xgate"})
        _, _, whatif_before = http_call(gateway.address, "POST",
                                        "/whatif", probe)

        _, pid = _home_pid(gateway)
        os.kill(pid, signal.SIGKILL)

        status, _, after = http_call(gateway.address, "POST", "/predict",
                                     {"design": "xgate"}, timeout=60.0)
        assert status == 200
        assert after["revision"] == 1, "journal replay lost the commit"
        assert after["predictions"] == before["predictions"]
        _, _, whatif_after = http_call(gateway.address, "POST", "/whatif",
                                       probe)
        for reply in (whatif_before, whatif_after):
            reply.pop("latency_ms")   # wall clock, not an answer
        assert whatif_after == whatif_before
        _, _, health = http_call(gateway.address, "GET", "/health")
        worker = health["fleet"]["per_worker"][0]
        assert worker["restarts"] == 1 and worker["pid"] != pid


class TestDrain:
    def test_drain_finishes_inflight_and_sheds_new(self, fleet_gateway,
                                                   xgate_flow):
        gateway = fleet_gateway({"xgate": xgate_flow}, workers=1,
                                fault_injection=True)
        inflight = {}

        def slow():
            inflight["result"] = http_call(
                gateway.address, "POST", "/predict",
                {"design": "xgate", "_inject": {"sleep_s": 1.2}},
                timeout=60.0)

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.3)  # the slow request is inside the worker now
        gateway.request_drain()
        time.sleep(0.1)

        # New work is shed while the drain holds the loop open.
        status, _, body = http_call(gateway.address, "GET", "/health")
        assert status == 200 and body["status"] == "draining"
        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {"design": "xgate"}, timeout=30.0)
        assert status == 503
        assert body["error"]["code"] == "draining"

        # The in-flight request still completes successfully.
        t.join(timeout=60.0)
        assert not t.is_alive(), "drain dropped an in-flight request"
        status, _, body = inflight["result"]
        assert status == 200 and body["n_endpoints"] > 0

        # And the loop exits once everything is flushed.
        gateway.stop(drain_timeout_s=15.0)
        assert gateway.fleet.all_drained

    def test_kill_during_drain_still_drains(self, fleet_gateway,
                                            xgate_flow):
        """A worker dying mid-drain must not wedge the drain: the
        replacement re-runs the pure in-flight request, then drains."""
        gateway = fleet_gateway({"xgate": xgate_flow}, workers=1,
                                fault_injection=True)
        inflight = {}

        def slow():
            inflight["result"] = http_call(
                gateway.address, "POST", "/predict",
                {"design": "xgate", "_inject": {"sleep_s": 1.5}},
                timeout=60.0)

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.3)
        gateway.request_drain()
        time.sleep(0.1)
        _, pid = _home_pid(gateway)
        os.kill(pid, signal.SIGKILL)

        t.join(timeout=60.0)
        assert not t.is_alive(), "request hung after kill-during-drain"
        status, _, body = inflight["result"]
        assert status == 200 and body["n_endpoints"] > 0

        gateway.stop(drain_timeout_s=15.0)
        assert gateway.fleet.all_drained, "drain wedged after worker death"

    def test_workers_ignore_group_sigterm(self, fleet_gateway,
                                          xgate_flow):
        """SIGTERM aimed straight at a worker (as a process-group signal
        from systemd/timeout would be) is ignored; the parent alone
        coordinates shutdown over the pipe."""
        gateway = fleet_gateway({"xgate": xgate_flow}, workers=1)
        _, pid = _home_pid(gateway)
        os.kill(pid, signal.SIGTERM)
        time.sleep(0.5)
        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {"design": "xgate"}, timeout=30.0)
        assert status == 200
        _, _, health = http_call(gateway.address, "GET", "/health")
        worker = health["fleet"]["per_worker"][0]
        assert worker["restarts"] == 0 and worker["alive"]

    def test_worker_exits_after_drain_ack(self, fleet_gateway,
                                          xgate_flow):
        gateway = fleet_gateway({"xgate": xgate_flow}, workers=1)
        process = gateway.fleet.workers[0].process
        gateway.stop(drain_timeout_s=15.0)
        process.join(timeout=5.0)
        assert not process.is_alive()
        # Drained exit, not a crash.
        assert process.exitcode == 0
