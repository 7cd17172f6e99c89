"""Partial reads and pipelining on the one HTTP transport.

A seeded stdlib fuzzer, run against ``--workers 0`` and a 1-worker
fleet.  Each trial opens one connection and writes one to three
requests on it:

* every request's bytes are split at random offsets across sends, with
  a pause between sends so the gateway reads each piece on its own;
* pieces of consecutive requests share sends (pipelining), so one read
  may end one request and start the next;
* some trials end with a malformed request (a bad ``Content-Length`` or
  request line).

The contract: the responses arrive in order and each equals what the
same request gets when sent whole on its own connection; a malformed
request gets its canonical 4xx body and the connection closes after it.
Either way ``/health`` answers 200 afterwards.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core import TimingPredictor
from repro.flow import run_flow
from repro.serve import DesignSession, FleetConfig, TimingFleet, TimingGateway

from .conftest import FLOW_CONFIG, http_call, start_inprocess

DESIGNS = ("xgate", "steelcore")
TRIALS = 40
#: Wall-clock fields; everything else must match exactly.
VOLATILE = ("latency_ms", "whatifs_served")
Response = Tuple[int, Dict[str, str], Any]


@pytest.fixture(scope="module", params=["workers0", "fleet"])
def gateway(request, artifact_payload, fleet_predictor):
    flows = {d: run_flow(d, FLOW_CONFIG) for d in DESIGNS}
    if request.param == "workers0":
        predictor = TimingPredictor.from_artifact(artifact_payload)
        gw = start_inprocess({d: DesignSession(f, predictor, seed=0)
                              for d, f in flows.items()})
    else:
        fleet = TimingFleet(fleet_predictor, flows,
                            FleetConfig(workers=1, threads=2,
                                        deadline_s=20.0)).start()
        gw = TimingGateway(fleet, port=0).start()
    yield gw
    gw.stop(drain_timeout_s=15.0)


def _raw(method: str, path: str, body: Optional[Dict] = None) -> bytes:
    data = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: fuzz\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode("latin-1") + data


#: Requests whose answers do not depend on what ran before them.
VALID = [
    _raw("POST", "/predict", {"design": "xgate"}),
    _raw("POST", "/predict", {"design": "steelcore", "endpoints": [8, 12]}),
    _raw("POST", "/whatif", {"design": "xgate", "edits": [
        {"op": "move", "cell": 1, "x": 3.0, "y": 4.0}]}),
    _raw("POST", "/whatif", {"design": "steelcore", "edits": [
        {"op": "move", "cell": 2, "x": 1.5, "y": 2.5},
        {"op": "move", "cell": 5, "x": 6.0, "y": 1.0}]}),
    _raw("GET", "/designs"),
    # Refused by the dispatcher: a 4xx that keeps the connection open.
    _raw("POST", "/predict", {"design": "nope"}),
    _raw("POST", "/predict", {"design": "xgate", "endpoints": [0, 1]}),
]
MALFORMED = [
    (b"POST /predict HTTP/1.1\r\nContent-Length: 1x\r\n\r\n{}",
     400, "bad_request"),
    (b"NONSENSE\r\n\r\n", 400, "bad_request"),
]


class _Reader:
    """Parses the HTTP responses of one connection, in order."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buf += chunk
        return bool(chunk)

    def response(self) -> Optional[Response]:
        """The next response, or ``None`` at end of stream."""
        while b"\r\n\r\n" not in self.buf:
            if not self._fill():
                assert not self.buf, f"torn response head {self.buf!r}"
                return None
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self.buf) < length:
            assert self._fill(), "connection closed mid-body"
        body, self.buf = self.buf[:length], self.buf[length:]
        return (int(lines[0].split(" ", 2)[1]), headers,
                _stable(json.loads(body)))

    def closed(self) -> bool:
        return not self.buf and not self._fill()


def _stable(payload):
    if isinstance(payload, dict):
        return {k: _stable(v) for k, v in payload.items()
                if k not in VOLATILE}
    if isinstance(payload, list):
        return [_stable(v) for v in payload]
    return payload


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _whole(address, data: bytes) -> Response:
    with _connect(address) as sock:
        sock.sendall(data)
        return _Reader(sock).response()


def _sends(rng: random.Random, requests: List[bytes]) -> List[bytes]:
    """Cut each request at random offsets, then join a random number of
    neighbouring pieces into one send, across request boundaries."""
    pieces = []
    for data in requests:
        cuts = sorted(rng.sample(range(1, len(data)),
                                 k=min(len(data) - 1, rng.randint(0, 4))))
        pieces += [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]
    sends = []
    while pieces:
        k = rng.randint(1, 3)
        sends.append(b"".join(pieces[:k]))
        del pieces[:k]
    return sends


def test_split_and_pipelined_requests_match_whole_ones(gateway):
    want = {data: _whole(gateway.address, data) for data in VALID}
    assert [want[data][0] for data in VALID] == [200] * 5 + [404, 400]
    rng = random.Random(1234)
    for trial in range(TRIALS):
        batch = rng.choices(VALID, k=rng.randint(1, 3))
        refused = rng.choice(MALFORMED) if rng.random() < 0.25 else None
        sends = _sends(rng, batch + ([refused[0]] if refused else []))
        with _connect(gateway.address) as sock:
            for data in sends:
                sock.sendall(data)
                time.sleep(rng.uniform(0.0, 0.004))
            reader = _Reader(sock)
            for i, data in enumerate(batch):
                got = reader.response()
                assert got is not None, f"trial {trial}: response {i} lost"
                assert got[0] == want[data][0], f"trial {trial}, {i}"
                assert got[2] == want[data][2], f"trial {trial}, {i}"
            if refused is not None:
                status, headers, body = reader.response()
                assert (status, body["error"]["code"]) == refused[1:]
                assert headers["connection"] == "close"
                assert reader.closed(), f"trial {trial}: left open"
        status, _, health = http_call(gateway.address, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
