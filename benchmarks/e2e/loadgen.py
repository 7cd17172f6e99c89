"""Load generation from one process, over HTTP or in-process.

The loops send through *clients*: objects with ``send(request) ->
(status, body)`` and ``close()``, made by a ``connect()`` factory, one
per load-generating thread.  Over HTTP a client is a
:class:`Connection` — one persistent HTTP/1.1 connection, as a real
caller would hold; a fresh connection per request would hide transport
stalls that only keep-alive connections see.  The traced run passes
its in-process replay instead, so both see the same traffic shaping.
Client 0 runs on the calling thread, so ``n`` clients use ``n`` threads
and ``n`` connections in total.

Closed loop: a client sends its next request when the previous reply
arrives.  Open loop: requests are due on a fixed schedule whether or
not earlier ones finished; latency is timed from the due time, so a
stall also charges the requests queued behind it, and ``lag`` records
how late the generator actually sent each one.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import (Callable, Iterator, List, Optional, Protocol, Sequence,
                    Tuple)

from streams import Request


class Client(Protocol):
    def send(self, req: Request) -> Tuple[int, bytes]: ...

    def close(self) -> None: ...


@dataclass
class Sample:
    request: Request
    phase: str               # "warmup" | "measure" | "check"
    due: float               # perf_counter() when the request was due
    sent: float
    done: float
    status: int              # 0 = transport failure
    body: Optional[bytes]    # response body (None for reads when not kept)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class Connection:
    """One keep-alive connection; reconnects after a transport failure."""

    def __init__(self, address: Tuple[str, int], timeout_s: float = 60.0):
        self.address = address
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, req: Request) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self.address, timeout=self.timeout_s)
        try:
            self._conn.request(req.method, req.path, body=req.payload(),
                               headers={"Content-Type": "application/json"})
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_clients(n: int, target: Callable[[int], None]) -> None:
    """Run ``target(i)`` for ``i < n``: 0 on the calling thread, the rest
    on their own threads; returns when all have finished."""
    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(1, n)]
    for t in threads:
        t.start()
    target(0)
    for t in threads:
        t.join()


def closed_loop(connect: Callable[[], Client],
                streams: Sequence[Iterator[Request]], warmup_s: float,
                measure_s: float) -> List[Sample]:
    """Each stream is one closed-loop client; returns every sample sent.

    A client stops when the run length is up or its stream ends.  A
    request's due time is the arrival of its client's previous reply,
    so ``lag`` is the generator's own think time between the two.
    """
    start = time.perf_counter()
    t_measure = start + warmup_s
    t_end = t_measure + measure_s
    results: List[List[Sample]] = [[] for _ in streams]

    def client(i: int) -> None:
        conn = connect()
        out = results[i]
        due = time.perf_counter()
        try:
            while due < t_end:
                req = next(streams[i], None)
                if req is None:
                    return
                sent = time.perf_counter()
                status, body = conn.send(req)
                done = time.perf_counter()
                out.append(Sample(req, "warmup" if sent < t_measure
                                  else "measure", due, sent, done, status,
                                  body))
                due = done
        finally:
            conn.close()

    run_clients(len(streams), client)
    return [s for r in results for s in r]


def open_loop(connect: Callable[[], Client],
              schedule: Sequence[Tuple[float, Request]], connections: int,
              warmup_s: float) -> List[Sample]:
    """Send ``(offset_s, request)`` pairs at their due times.

    The next due request goes to whichever client is free first; if
    none is free when it falls due, it waits, and the wait counts in its
    latency.  Read bodies are dropped; only their status is checked.
    """
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.01
    results: List[List[Sample]] = [[] for _ in range(connections)]

    def client(i: int) -> None:
        conn = connect()
        out = results[i]
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= len(schedule):
                    return
                offset, req = schedule[k]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = conn.send(req)
                done = time.perf_counter()
                out.append(Sample(req, "warmup" if offset < warmup_s
                                  else "measure", due, sent, done, status,
                                  None if req.kind == "read" else body))
        finally:
            conn.close()

    run_clients(connections, client)
    return sorted((s for r in results for s in r), key=lambda s: s.due)


def sequential(connect: Callable[[], Client], requests: Sequence[Request],
               phase: str) -> List[Sample]:
    """One client, one request at a time (the output-check phase)."""
    conn = connect()
    out: List[Sample] = []
    try:
        due = time.perf_counter()
        for req in requests:
            sent = time.perf_counter()
            status, body = conn.send(req)
            done = time.perf_counter()
            out.append(Sample(req, phase, due, sent, done, status, body))
            due = done
    finally:
        conn.close()
    return out


def over_http(address: Tuple[str, int]) -> Callable[[], Connection]:
    """Client factory: a keep-alive :class:`Connection` to *address*."""
    return lambda: Connection(address)
