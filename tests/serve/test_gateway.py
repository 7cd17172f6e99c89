"""Gateway concurrency/property tests: affinity, backpressure, isolation.

These pin the fleet's structural invariants:

* **Session affinity** — every request for a design is answered by the
  same worker process (the ``X-Repro-Worker`` header), matching the
  routing table the gateway reports in ``/health``.
* **Backpressure** — overflowing a shard's bounded queue sheds load
  with a structured 503 + ``Retry-After`` instead of deadlocking the
  event loop.
* **Worker isolation** — every worker proves (via its describe fan-out)
  that its model parameters are read-only views into the shared
  segment, so no worker can corrupt the fleet's weights.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.flow import run_flow
from repro.serve import FleetConfig, TimingFleet

from .conftest import FLOW_CONFIG, http_call


@pytest.fixture(scope="module")
def two_flows():
    return {"xgate": run_flow("xgate", FLOW_CONFIG),
            "chacha": run_flow("chacha", FLOW_CONFIG)}


@pytest.fixture
def gateway(fleet_gateway, two_flows):
    return fleet_gateway(two_flows, workers=2)


class TestAffinity:
    def test_same_design_same_worker(self, gateway):
        workers_seen = {"xgate": set(), "chacha": set()}
        for _ in range(3):
            for design in workers_seen:
                status, headers, _ = http_call(
                    gateway.address, "POST", "/predict",
                    {"design": design})
                assert status == 200
                workers_seen[design].add(headers["X-Repro-Worker"])
        # Affinity invariant: one home worker per design, ever.
        assert all(len(seen) == 1 for seen in workers_seen.values())
        # Two workers, two designs → disjoint shards.
        assert workers_seen["xgate"] != workers_seen["chacha"]

    def test_header_matches_health_routing(self, gateway):
        _, _, health = http_call(gateway.address, "GET", "/health")
        routing = health["fleet"]["designs"]
        for design, wid in routing.items():
            status, headers, _ = http_call(
                gateway.address, "POST", "/predict", {"design": design})
            assert status == 200
            assert headers["X-Repro-Worker"] == str(wid)

    def test_committed_state_stays_on_shard(self, gateway):
        """Commits land on the design's home worker and persist there."""
        _, _, designs = http_call(gateway.address, "GET", "/designs")
        assert designs["designs"]["xgate"]["revision"] == 0
        status, headers, body = http_call(
            gateway.address, "POST", "/whatif",
            {"design": "xgate", "commit": True,
             "edits": [{"op": "move", "cell": 1, "x": 2.0, "y": 2.0}]})
        assert status == 200 and body["revision"] == 1
        _, _, designs = http_call(gateway.address, "GET", "/designs")
        assert designs["designs"]["xgate"]["revision"] == 1
        assert designs["designs"]["chacha"]["revision"] == 0


class TestRouting:
    def test_unknown_design_404_lists_full_fleet(self, gateway):
        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {"design": "nope"})
        assert status == 404
        assert body["error"]["code"] == "unknown_design"
        # The gateway answers with the fleet-wide design list, exactly
        # like the in-process dispatcher with all sessions local.
        assert "['chacha', 'xgate']" in body["error"]["message"]

    def test_unknown_route_404(self, gateway):
        status, _, body = http_call(gateway.address, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "no_such_route"

    def test_ambiguous_design_omission_404s(self, gateway):
        # Two designs served: omitting "design" is ambiguous.
        status, _, body = http_call(gateway.address, "POST", "/predict",
                                    {})
        assert status == 404
        assert body["error"]["code"] == "unknown_design"

    def test_bad_json_400(self, gateway):
        import http.client

        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/predict", body=b"{not json",
                         headers={"Content-Type": "application/json",
                                  "Content-Length": "9"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_metrics_folds_worker_counters(self, gateway):
        for _ in range(2):
            http_call(gateway.address, "POST", "/predict",
                      {"design": "xgate"})
        status, _, body = http_call(gateway.address, "GET", "/metrics")
        assert status == 200
        metrics = body["metrics"]
        # Worker-side counters crossed the process boundary in-band.
        assert metrics.get("serve.worker.requests", 0) >= 2
        assert metrics.get("model.inferences", 0) >= 1
        # Gateway-side latency histogram reports exact percentiles.
        assert metrics["serve.latency_ms"]["count"] >= 2


class TestBackpressure:
    def test_overload_sheds_503_without_deadlock(self, fleet_gateway,
                                                 two_flows):
        gateway = fleet_gateway({"xgate": two_flows["xgate"]}, workers=1,
                                threads=1, queue_depth=1,
                                fault_injection=True)
        results = []
        lock = threading.Lock()

        def fire():
            status, headers, body = http_call(
                gateway.address, "POST", "/predict",
                {"design": "xgate", "_inject": {"sleep_s": 0.4}},
                timeout=30.0)
            with lock:
                results.append((status, headers, body))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        elapsed = time.perf_counter() - t0
        assert len(results) == 6, "a request deadlocked"
        statuses = sorted(s for s, _, _ in results)
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) >= 1
        assert statuses.count(503) >= 1, (
            "bounded queue of 1 never shed load under a 6-way burst")
        for status, headers, body in results:
            if status == 503:
                assert body["error"]["code"] == "overloaded"
                assert headers.get("Retry-After") == "1"
        # Shed immediately, not after queueing behind the sleeps.
        assert elapsed < 15.0

    def test_loop_keeps_serving_other_designs_during_burst(
            self, fleet_gateway, two_flows):
        """A saturated shard must not block the other shard's requests."""
        gateway = fleet_gateway(two_flows, workers=2, threads=1,
                                queue_depth=2, fault_injection=True)
        slow_done = threading.Event()

        def slow():
            http_call(gateway.address, "POST", "/predict",
                      {"design": "xgate", "_inject": {"sleep_s": 1.0}},
                      timeout=30.0)
            slow_done.set()

        threading.Thread(target=slow, daemon=True).start()
        time.sleep(0.15)  # the slow request is now holding its shard
        t0 = time.perf_counter()
        status, _, _ = http_call(gateway.address, "POST", "/predict",
                                 {"design": "chacha"})
        fast_elapsed = time.perf_counter() - t0
        assert status == 200
        assert fast_elapsed < 0.9, (
            "other shard's request waited behind the saturated one")
        assert slow_done.wait(10.0)


class TestWorkerIsolation:
    def test_every_worker_reports_read_only_shared_weights(
            self, fleet_predictor):
        flows = {"xgate": run_flow("xgate", FLOW_CONFIG)}
        fleet = TimingFleet(fleet_predictor, flows,
                            FleetConfig(workers=2, threads=1)).start()
        try:
            # workers > designs: the fleet spawns only as many workers
            # as there are shards to serve.
            assert len(fleet.workers) == 1
            replies = []
            fleet.fanout("describe", replies.extend)
            deadline = time.perf_counter() + 15.0
            while not replies and time.perf_counter() < deadline:
                for worker in fleet.workers:
                    fleet.pump(worker)
                time.sleep(0.01)
            assert replies, "describe fan-out never completed"
            for info in replies:
                assert info["weights_read_only"] is True
                assert info["designs"] == ["xgate"]
        finally:
            fleet.stop()
