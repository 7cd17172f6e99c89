"""One bad connection cannot stop the gateway.

An exception raised while the loop serves one connection (its parse,
its flush, its response) or runs a posted callback used to end
``serve_forever`` for every client.  The contract now: the offending
connection gets a canonical 500 ``internal`` body if no response to it
has started, then it is closed and ``gateway.faults`` counts it; every
other connection keeps being served.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.core import TimingPredictor
from repro.flow import run_flow
from repro.obs import get_metrics
from repro.serve import DesignSession

from .conftest import FLOW_CONFIG, http_call, start_inprocess
from .test_http_limits import raw_exchange


def _faults() -> float:
    return get_metrics().snapshot().get("gateway.faults", 0)


def test_a_parse_fault_fails_only_its_own_connection(artifact_payload):
    session = DesignSession(run_flow("xgate", FLOW_CONFIG),
                            TimingPredictor.from_artifact(artifact_payload),
                            seed=0)
    gateway = start_inprocess({"xgate": session})
    parse = gateway._try_parse

    def faulty_parse(client):
        if b"X-Inject-Fault" in client.rbuf:
            raise RuntimeError("injected parse fault")
        parse(client)

    gateway._try_parse = faulty_parse
    host, port = gateway.address
    other = http.client.HTTPConnection(host, port, timeout=30)
    try:
        # A second client, already connected (keep-alive) before the fault.
        other.request("GET", "/health")
        resp = other.getresponse()
        assert resp.status == 200 and resp.read()
        before = _faults()

        status, headers, body = raw_exchange(
            gateway.address,
            b"GET /health HTTP/1.1\r\nX-Inject-Fault: 1\r\n\r\n")
        assert status == 500
        assert headers["connection"] == "close"
        assert set(body) == {"error"}
        assert body["error"]["code"] == "internal"
        assert "injected parse fault" in body["error"]["message"]
        assert _faults() == before + 1

        other.request("POST", "/predict", json.dumps({"design": "xgate"}),
                      {"Content-Type": "application/json"})
        resp = other.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["n_endpoints"] > 0
        status, _, health = http_call(gateway.address, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
    finally:
        other.close()
        gateway.stop(drain_timeout_s=15.0)


def test_a_raising_posted_callback_is_counted_not_fatal(artifact_payload):
    session = DesignSession(run_flow("xgate", FLOW_CONFIG),
                            TimingPredictor.from_artifact(artifact_payload),
                            seed=0)
    gateway = start_inprocess({"xgate": session})
    try:
        before = _faults()
        gateway.call_soon_threadsafe(lambda: 1 / 0)
        deadline = time.monotonic() + 10.0
        while _faults() == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _faults() == before + 1
        status, _, health = http_call(gateway.address, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
        status, _, _ = http_call(gateway.address, "POST", "/predict",
                                 {"design": "xgate"})
        assert status == 200
    finally:
        gateway.stop(drain_timeout_s=15.0)
