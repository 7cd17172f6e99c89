"""HTTP input limits and ``/metrics`` exactness on the one transport.

Both backends sit behind the same gateway parser, so every limit is
checked on ``--workers 0`` and on a fleet.  The contract for a request
the parser refuses: a canonical ``{"error": {...}}`` body with a 4xx
status, ``Connection: close``, and a loop that keeps serving.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core import TimingPredictor
from repro.flow import run_flow
from repro.obs import get_metrics
from repro.serve import (
    DesignSession,
    FleetConfig,
    TimingFleet,
    TimingGateway,
)

from .conftest import FLOW_CONFIG, http_call, start_inprocess

MOVE = {"op": "move", "cell": 1, "x": 2.0, "y": 2.0}


def _session(artifact_payload):
    return DesignSession(run_flow("xgate", FLOW_CONFIG),
                         TimingPredictor.from_artifact(artifact_payload),
                         seed=0)


@pytest.fixture(scope="module", params=["workers0", "fleet"])
def gateway(request, artifact_payload):
    if request.param == "workers0":
        gw = start_inprocess({"xgate": _session(artifact_payload)})
    else:
        fleet = TimingFleet(artifact_payload,
                            {"xgate": run_flow("xgate", FLOW_CONFIG)},
                            FleetConfig(workers=1, threads=2,
                                        deadline_s=20.0)).start()
        gw = TimingGateway(fleet, port=0).start()
    yield gw
    gw.stop(drain_timeout_s=15.0)


def raw_exchange(address, data: bytes, timeout: float = 30.0):
    """Send *data* on a fresh socket and read until the server closes;
    returns ``(status, headers, parsed_body)`` of the one response."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    return int(lines[0].split(" ", 2)[1]), headers, json.loads(body)


def assert_refused(gateway, data: bytes, status: int, code: str) -> None:
    got, headers, body = raw_exchange(gateway.address, data)
    assert got == status, body
    assert headers["connection"] == "close"
    assert set(body) == {"error"}
    assert body["error"]["code"] == code
    # The loop survived and still serves.
    health_status, _, health = http_call(gateway.address, "GET", "/health")
    assert health_status == 200 and health["status"] == "ok"


@pytest.mark.parametrize("length", ["abc", "-3"])
def test_bad_content_length_is_a_400(gateway, length):
    assert_refused(
        gateway,
        (f"POST /predict HTTP/1.1\r\nHost: test\r\n"
         f"Content-Length: {length}\r\n\r\n{{}}").encode(),
        400, "bad_request")


def test_oversized_header_block_is_a_431(gateway):
    pad = "a" * (70 * 1024)
    assert_refused(
        gateway,
        f"GET /health HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n".encode(),
        431, "headers_too_large")


def test_oversized_body_is_a_413(gateway):
    assert_refused(
        gateway,
        (f"POST /predict HTTP/1.1\r\n"
         f"Content-Length: {16 * 1024 * 1024 + 1}\r\n\r\n").encode(),
        413, "payload_too_large")


def test_malformed_request_line_is_a_400(gateway):
    assert_refused(gateway, b"NONSENSE\r\n\r\n", 400, "bad_request")


def test_workers0_metrics_are_the_registry_exactly(artifact_payload):
    """The in-process backend shares the gateway's registry: ``/metrics``
    must return it unfolded (exact percentiles) and count each request
    once."""
    gateway = start_inprocess({"xgate": _session(artifact_payload)})
    try:
        get_metrics().reset()
        sent = 0
        for i in range(3):
            edit = dict(MOVE, x=2.0 + i, y=3.0 - i)
            status, _, _ = http_call(gateway.address, "POST", "/whatif",
                                     {"design": "xgate", "edits": [edit]})
            assert status == 200
            sent += 1
        for _ in range(2):
            status, _, _ = http_call(gateway.address, "POST", "/predict",
                                     {"design": "xgate"})
            assert status == 200
            sent += 1
        status, _, body = http_call(gateway.address, "GET", "/metrics")
        assert status == 200
        served = body["metrics"]
        local = get_metrics().snapshot()
        assert served["serve.latency_ms"]["count"] == sent
        assert served["serve.whatif_ms"]["count"] == 3
        for q in ("p50", "p95"):
            assert served["serve.whatif_ms"][q] == local["serve.whatif_ms"][q]
    finally:
        gateway.stop(drain_timeout_s=15.0)
