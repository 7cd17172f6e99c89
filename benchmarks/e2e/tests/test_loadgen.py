"""Load generator accounting against a stub server that can stall."""

import itertools
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import closed_loop, open_loop, over_http
from percentiles import tail
from streams import read

RESPONSE = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n{}")


class StubServer:
    """Answers every request with ``{}`` in one write; request number
    ``stall_at`` first sleeps ``stall_s``.  Records client ports."""

    def __init__(self, stall_at=None, stall_s=0.0):
        stub = self
        self.count = itertools.count()
        self.ports = set()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                stub.ports.add(self.client_address[1])
                if next(stub.count) == stall_at:
                    time.sleep(stall_s)
                self.wfile.write(RESPONSE)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.httpd.server_address[:2]

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


SCHEDULE = [(k * 0.01, read("d")) for k in range(100)]     # 100 req/s, 1 s


def _open(stall_at=None):
    stub = StubServer(stall_at=stall_at, stall_s=0.3)
    with stub as address:
        samples = open_loop(over_http(address), SCHEDULE, connections=1,
                            warmup_s=0.0)
    return samples, stub


def test_open_loop_charges_a_stall_to_every_request_behind_it():
    calm, _ = _open()
    stalled, _ = _open(stall_at=20)
    assert all(s.ok for s in calm + stalled)
    assert len(calm) == len(stalled) == 100

    calm_latency = tail([s.latency_ms for s in calm])
    stalled_latency = tail([s.latency_ms for s in stalled])
    calm_lag = tail([s.lag_ms for s in calm])
    stalled_lag = tail([s.lag_ms for s in stalled])
    assert calm_latency[0] == stalled_latency[0] == "p90"
    assert calm_latency[1] < 50.0
    assert stalled_latency[1] > 100.0
    assert calm_lag[1] < 50.0
    assert stalled_lag[1] > 100.0
    # The requests due during the stall were sent late, not skipped.
    late = [s for s in stalled if s.lag_ms > 100.0]
    assert len(late) >= 10


def test_each_client_keeps_one_connection():
    stub = StubServer()
    with stub as address:
        streams = [iter(lambda: read("d"), None) for _ in range(2)]
        samples = closed_loop(over_http(address), streams, warmup_s=0.05,
                              measure_s=0.2)
    assert samples and all(s.ok for s in samples)
    assert len(stub.ports) == 2
    phases = {s.phase for s in samples}
    assert phases == {"warmup", "measure"}


@pytest.mark.parametrize("connections", [1, 2])
def test_open_loop_uses_at_most_the_given_connections(connections):
    stub = StubServer()
    with stub as address:
        open_loop(over_http(address), SCHEDULE[:30], connections=connections,
                  warmup_s=0.0)
    assert len(stub.ports) <= connections
