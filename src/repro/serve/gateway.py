"""Async HTTP gateway: the one serving transport (stdlib ``selectors``).

The gateway is the **transport** layer of ``repro serve``: one thread,
one ``selectors`` event loop multiplexing

* the listening socket (accept),
* every client connection (HTTP/1.1 with keep-alive, parsed
  incrementally),
* every worker pipe (responses, fan-out replies, drain acks),
* every worker's process **sentinel** (crash detection — a kill -9
  wakes the loop immediately, no polling), and
* a self-pipe that wakes the loop for :meth:`TimingGateway.request_drain`
  and for callbacks posted from other threads
  (:meth:`TimingGateway.call_soon_threadsafe`).

Behind it sits a backend: the worker fleet
(:class:`~repro.serve.fleet.TimingFleet`, ``--workers N``) or the
in-process :class:`~repro.serve.fleet.InProcessBackend` (``--workers
0``), whose thread pool hands results back through the self-pipe.
Requests never block the loop: a ``/predict`` is forwarded to its
design's shard (``submit``) and the client socket simply stays quiet
until the response comes back.  The loop therefore keeps accepting and
serving other clients while any number of requests are in flight —
concurrency is bounded by the backend's queues, not by gateway threads.

Input limits: a header block over 64 KiB gets a 431, a
``Content-Length`` over 16 MiB a 413, and a malformed request line or
``Content-Length`` a 400.  Each is a canonical error body followed by a
close; the loop keeps serving.

Responses carry an ``X-Repro-Worker`` header naming the worker id that
served them (``-`` for gateway-answered routes), which the affinity
tests key on.

Shutdown: SIGTERM (or :meth:`stop`) begins a **graceful drain** — new
requests get a 503 (``code: draining``), every worker finishes its
in-flight requests and acks, worker traces are merged into the parent
tracer, then everything is torn down.
"""

from __future__ import annotations

import collections
import json
import selectors
import socket
import threading
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.obs import get_metrics, get_tracer
from repro.obs.merge import fold_metrics_snapshot, merge_worker_traces
from repro.obs.metrics import MetricsRegistry
from repro.serve import api
from repro.serve.api import ApiError
from repro.serve.fleet import (
    FleetOverloaded,
    InProcessBackend,
    TimingFleet,
    WorkerHandle,
)
from repro.utils import get_logger

logger = get_logger("serve.gateway")

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024
#: Slack added to the gateway-side deadline backstop so the worker's own
#: (better-worded, dispatcher-identical) 504 normally wins the race.
_DEADLINE_GRACE_S = 0.5
#: How long a connection closed after its response keeps being read (and
#: discarded) while the client has not closed its end.
_LINGER_S = 2.0


class _Client:
    """One HTTP connection: incremental parser + write buffer."""

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.rbuf = b""
        self.wbuf = b""
        self.close_after_write = False
        #: Parsing is paused while a request is in flight (no pipelining:
        #: the next request is read only after this response is written).
        self.busy = False
        #: Set once the closing response is written: the write side is
        #: shut and input is discarded until the client closes or this
        #: ``perf_counter`` time passes.  Closing with unread input would
        #: reset the connection, which can destroy the response before
        #: the client reads it.
        self.linger_until: Optional[float] = None

    def fileno(self) -> int:
        return self.sock.fileno()


class _Exchange:
    """One in-flight request: ties a client to its eventual response."""

    def __init__(self, gateway: "TimingGateway", client: _Client,
                 keep_alive: bool, t_end: Optional[float],
                 route_label: str, worker_label: str) -> None:
        self.gateway = gateway
        self.client = client
        self.keep_alive = keep_alive
        self.t_end = t_end
        self.route_label = route_label
        self.worker_label = worker_label
        self.started = time.perf_counter()
        self.done = False

    def respond(self, status: int, payload: Dict[str, Any],
                extra_headers: Optional[Dict[str, str]] = None) -> None:
        """Send exactly one response; later calls are ignored."""
        if self.done:
            return
        self.done = True
        self.gateway._finish_exchange(self, status, payload, extra_headers)


class TimingGateway:
    """Single-threaded async front end over a fleet or in-process backend."""

    def __init__(self, fleet: Union[TimingFleet, InProcessBackend],
                 host: str = "127.0.0.1", port: int = 8787,
                 model_info: Optional[Dict[str, Any]] = None) -> None:
        self.fleet = fleet
        self.host = host
        self.port = port
        self.model_info = model_info or {}
        self.started_at = time.time()
        self.draining = False
        self._sel = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._clients: Dict[int, _Client] = {}
        self._exchanges: List[_Exchange] = []
        self._thread: Optional[threading.Thread] = None
        self._running = False
        # Self-pipe: lets stop()/signal handlers and backend threads wake
        # the selector loop from another thread or from inside a signal
        # frame.  Non-blocking on both ends: a full pipe already holds a
        # pending wake-up, so a failed send loses nothing.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._posted: Deque[Callable[[], None]] = collections.deque()
        fleet.attach(self.call_soon_threadsafe)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        """Bind the listening socket (idempotent); returns (host, port)."""
        if self._listener is None:
            lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lst.bind((self.host, self.port))
            lst.listen(128)
            lst.setblocking(False)
            self._listener = lst
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is not None:
            return self._listener.getsockname()[:2]
        return (self.host, self.port)

    def start(self) -> "TimingGateway":
        """Serve on a background thread (tests, embedding)."""
        self.bind()
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-gateway", daemon=True)
        self._thread.start()
        return self

    def request_drain(self) -> None:
        """Begin a graceful drain without waiting (signal-handler safe)."""
        self.draining = True
        self._wake()

    def call_soon_threadsafe(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` on the loop thread; callable from any thread."""
        self._posted.append(fn)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass

    def stop(self, drain_timeout_s: float = 30.0) -> None:
        """Begin a graceful drain and wait for the loop to finish."""
        self.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout_s + 5.0)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def serve_forever(self, drain_timeout_s: float = 30.0) -> None:
        self.bind()
        self._running = True
        sel = self._sel
        sel.register(self._listener, selectors.EVENT_READ, ("accept",))
        sel.register(self._wake_r, selectors.EVENT_READ, ("wake",))
        for worker in self.fleet.workers:
            self._register_worker(worker)
        logger.info("gateway serving %d design(s) on http://%s:%d via "
                    "%d worker(s)", len(self.fleet.flows), *self.address,
                    len(self.fleet.workers))
        drain_started: Optional[float] = None
        try:
            while True:
                if self.draining and drain_started is None:
                    drain_started = time.perf_counter()
                    self.fleet.drain_begin()
                if drain_started is not None and self._drained(
                        drain_started, drain_timeout_s):
                    break
                timeout = self._poll_timeout()
                for key, _mask in sel.select(timeout):
                    self._on_event(key)
                self._sweep_deadlines()
        except KeyboardInterrupt:
            if not self.draining:  # first ^C drains; loop once more
                self.draining = True
                self.fleet.drain_begin()
                drain_started = time.perf_counter()
                try:
                    while not self._drained(drain_started,
                                            drain_timeout_s):
                        for key, _mask in sel.select(
                                self._poll_timeout()):
                            self._on_event(key)
                        self._sweep_deadlines()
                except KeyboardInterrupt:
                    pass  # second ^C: hard stop
        finally:
            self._running = False
            self._teardown()

    def _drained(self, drain_started: float, timeout_s: float) -> bool:
        if time.perf_counter() - drain_started > timeout_s:
            logger.warning("drain timed out after %.0fs; forcing "
                           "shutdown", timeout_s)
            return True
        flushed = all(not c.wbuf for c in self._clients.values())
        return (self.fleet.all_drained
                and not [e for e in self._exchanges if not e.done]
                and flushed)

    def _poll_timeout(self) -> float:
        timeout = 0.25 if (self.draining or self._exchanges) else 1.0
        nxt = self.fleet.next_deadline()
        nxt_ex = [e.t_end for e in self._exchanges
                  if not e.done and e.t_end is not None]
        for t_end in ([nxt] if nxt is not None else []) + nxt_ex:
            timeout = min(timeout,
                          max(t_end - time.perf_counter(), 0.0) + 0.005)
        return timeout

    def _sweep_deadlines(self) -> None:
        now = time.perf_counter()
        self.fleet.expire(now)
        for exchange in self._exchanges:
            if not exchange.done and exchange.t_end is not None \
                    and exchange.t_end < now:
                exchange.respond(504, _error(
                    "deadline_exceeded",
                    "request exceeded its deadline waiting on the fleet"))
        self._exchanges = [e for e in self._exchanges if not e.done]
        for client in list(self._clients.values()):
            if client.linger_until is not None and client.linger_until < now:
                self._drop(client)

    def _on_event(self, key: selectors.SelectorKey) -> None:
        kind = key.data[0]
        if kind == "accept":
            self._accept()
        elif kind == "wake":
            try:
                self._wake_r.recv(4096)
            except OSError:
                pass
            while self._posted:
                self._posted.popleft()()
        elif kind == "client":
            self._client_io(key.data[1], key.events)
        elif kind == "worker":
            self.fleet.pump(key.data[1])
        elif kind == "sentinel":
            self._worker_died(key.data[1])

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _register_worker(self, worker: WorkerHandle) -> None:
        self._sel.register(worker.conn, selectors.EVENT_READ,
                           ("worker", worker))
        self._sel.register(worker.process.sentinel, selectors.EVENT_READ,
                           ("sentinel", worker))

    def _unregister_worker(self, worker: WorkerHandle) -> None:
        for fileobj in (worker.conn, worker.process.sentinel):
            try:
                self._sel.unregister(fileobj)
            except (KeyError, ValueError):
                pass

    def _worker_died(self, worker: WorkerHandle) -> None:
        self._unregister_worker(worker)
        if worker.drained:
            return  # expected exit during drain
        get_metrics().counter("gateway.worker_deaths").inc()
        replacement = self.fleet.handle_worker_death(worker)
        if replacement is not None:
            self._register_worker(replacement)

    # ------------------------------------------------------------------
    # Client plumbing
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock, addr)
        self._clients[sock.fileno()] = client
        self._sel.register(sock, selectors.EVENT_READ, ("client", client))

    def _client_io(self, client: _Client, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            self._flush(client)
        if events & selectors.EVENT_READ:
            try:
                chunk = client.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._drop(client)
                return
            if not chunk:
                self._drop(client)
                return
            if client.linger_until is not None:
                return  # input after the closing response is discarded
            client.rbuf += chunk
            if len(client.rbuf) > _MAX_HEADER_BYTES + _MAX_BODY_BYTES:
                self._drop(client)
                return
            if not client.busy:
                self._try_parse(client)

    def _drop(self, client: _Client) -> None:
        self._clients.pop(client.fileno(), None)
        try:
            self._sel.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        try:
            client.sock.close()
        except OSError:
            pass

    def _interest(self, client: _Client) -> None:
        """Recompute the selector mask from the client's state."""
        mask = selectors.EVENT_WRITE if client.wbuf else 0
        if not client.busy:
            mask |= selectors.EVENT_READ
        if client.fileno() not in self._clients:
            return
        if mask == 0:
            mask = selectors.EVENT_READ
        try:
            self._sel.modify(client.sock, mask, ("client", client))
        except (KeyError, ValueError):
            pass

    def _flush(self, client: _Client) -> None:
        try:
            sent = client.sock.send(client.wbuf)
            client.wbuf = client.wbuf[sent:]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(client)
            return
        if not client.wbuf:
            if client.close_after_write:
                try:
                    client.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    self._drop(client)
                    return
                client.linger_until = time.perf_counter() + _LINGER_S
                client.rbuf = b""
                self._interest(client)  # read-only from now on
                return
            client.busy = False
            self._interest(client)
            # A pipelined/buffered next request may already be waiting.
            self._try_parse(client)

    # ------------------------------------------------------------------
    # HTTP parsing + routing
    # ------------------------------------------------------------------
    def _try_parse(self, client: _Client) -> None:
        head_end = client.rbuf.find(b"\r\n\r\n")
        if head_end < 0 and len(client.rbuf) <= _MAX_HEADER_BYTES:
            return  # header block still in flight
        if head_end < 0 or head_end > _MAX_HEADER_BYTES:
            self._reject(client, 431, "headers_too_large",
                         f"header block exceeds {_MAX_HEADER_BYTES} bytes")
            return
        head = client.rbuf[:head_end].decode("latin-1")
        lines = head.split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            self._reject(client, 400, "bad_request",
                         f"malformed request line {lines[0][:80]!r}")
            return
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                k, v = line.split(":", 1)
                headers[k.strip().lower()] = v.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._reject(client, 400, "bad_request",
                         f"invalid Content-Length {raw_length[:80]!r}")
            return
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            self._reject(client, 413, "payload_too_large",
                         f"body of {length} bytes exceeds "
                         f"{_MAX_BODY_BYTES} bytes")
            return
        total = head_end + 4 + length
        if len(client.rbuf) < total:
            return  # body still in flight
        raw_body = client.rbuf[head_end + 4:total]
        client.rbuf = client.rbuf[total:]
        client.busy = True
        self._interest(client)
        keep_alive = headers.get("connection", "").lower() != "close"
        self._route(client, method, target, raw_body, keep_alive)

    def _reject(self, client: _Client, status: int, code: str,
                message: str) -> None:
        """Answer a request the parser refused, then close the connection."""
        client.busy = True
        self._open_exchange(client, False, None, "-", "-").respond(
            status, _error(code, message))

    def _route(self, client: _Client, method: str, target: str,
               raw_body: bytes, keep_alive: bool) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        body: Optional[Dict[str, Any]] = None
        if method == "POST":
            try:
                body = (json.loads(raw_body.decode("utf-8"))
                        if raw_body.strip() else {})
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                exchange = self._open_exchange(client, keep_alive, None,
                                               f"{method} {path}", "-")
                exchange.respond(400, _error("bad_json", str(exc)))
                return

        design = (body or {}).get("design")
        worker_label = "-"
        t_end: Optional[float] = None
        if method == "POST" and path in ("/predict", "/whatif"):
            budget = self.fleet.config.deadline_s
            if isinstance(body, dict) and "deadline_s" in body:
                try:
                    budget = min(budget, float(body["deadline_s"]))
                except (TypeError, ValueError):
                    pass
            t_end = time.perf_counter() + budget + _DEADLINE_GRACE_S
        exchange = self._open_exchange(client, keep_alive, t_end,
                                       f"{method} {path}", worker_label)
        try:
            if (method, path) == ("GET", "/health"):
                # Health stays observable during a drain (it reports
                # "draining"); everything else is shed below.
                exchange.respond(200, self._health())
                return
            if self.draining:
                raise ApiError(503, "draining",
                               "gateway is draining; retry against a "
                               "fresh instance")
            if (method, path) == ("GET", "/metrics"):
                self.fleet.fanout(
                    "metrics",
                    lambda snaps: exchange.respond(
                        200, {"metrics": self._fold_metrics(snaps)}))
            elif (method, path) == ("GET", "/designs"):
                self.fleet.fanout(
                    "designs",
                    lambda replies: exchange.respond(
                        200, _merge_designs(replies)))
            elif method == "POST" and path in ("/predict", "/whatif"):
                worker = self.fleet.worker_for(design)
                exchange.worker_label = str(worker.id)
                self.fleet.submit(design, method, path, body,
                                  exchange.respond, t_end=t_end)
            elif method == "DELETE" and path.startswith("/designs/"):
                design = path[len("/designs/"):]
                exchange.t_end = (time.perf_counter()
                                  + self.fleet.config.deadline_s
                                  + _DEADLINE_GRACE_S)
                worker = self.fleet.worker_for(design)
                exchange.worker_label = str(worker.id)
                self.fleet.submit(design, method, path, None,
                                  exchange.respond, t_end=exchange.t_end)
            else:
                raise ApiError(404, "no_such_route",
                               f"no route {method} {path}")
        except FleetOverloaded as exc:
            get_metrics().counter("serve.rejected.overload").inc()
            exchange.respond(
                exc.status, _error(exc.code, exc.message),
                extra_headers={"Retry-After": str(exc.retry_after_s)})
        except ApiError as exc:
            exchange.respond(exc.status, _error(exc.code, exc.message))
        except Exception as exc:  # noqa: BLE001 — wire boundary
            logger.exception("gateway error on %s %s", method, path)
            exchange.respond(500, _error(
                "internal", f"{type(exc).__name__}: {exc}"))

    def _open_exchange(self, client: _Client, keep_alive: bool,
                       t_end: Optional[float], route_label: str,
                       worker_label: str) -> _Exchange:
        exchange = _Exchange(self, client, keep_alive, t_end, route_label,
                             worker_label)
        self._exchanges.append(exchange)
        return exchange

    def _finish_exchange(self, exchange: _Exchange, status: int,
                         payload: Dict[str, Any],
                         extra_headers: Optional[Dict[str, str]]) -> None:
        ms = (time.perf_counter() - exchange.started) * 1e3
        metrics = get_metrics()
        metrics.counter("serve.requests").inc()
        metrics.histogram("serve.latency_ms").observe(ms)
        metrics.histogram(
            f"serve.latency_ms.{exchange.route_label}").observe(ms)
        if status >= 400:
            metrics.counter("serve.errors").inc()
            metrics.counter(f"serve.errors.{status}").inc()
        get_tracer().event("serve.gateway.request",
                           route=exchange.route_label, status=status,
                           worker=exchange.worker_label, dur_ms=ms)
        client = exchange.client
        if client.fileno() not in self._clients:
            return  # client went away while we worked
        headers = {"X-Repro-Worker": exchange.worker_label}
        if extra_headers:
            headers.update(extra_headers)
        if not exchange.keep_alive:
            headers["Connection"] = "close"
            client.close_after_write = True
        client.wbuf += _render(status, payload, headers)
        self._interest(client)
        self._flush(client)

    # ------------------------------------------------------------------
    # Gateway-answered routes
    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        microbatch = None
        if self.fleet.config.microbatch > 1:
            microbatch = {
                "max_batch": self.fleet.config.microbatch,
                "max_wait_ms": self.fleet.config.microbatch_wait_ms,
            }
        return api.HealthResponse(
            status="draining" if self.draining else "ok",
            designs=sorted(self.fleet.flows),
            model=self.model_info,
            uptime_s=time.time() - self.started_at,
            corners=self.fleet.config.corners,
            fleet=self.fleet.describe(),
            microbatch=microbatch).to_wire()

    def _fold_metrics(self, snapshots: List[Any]) -> Dict[str, Any]:
        """One registry view over the gateway and every worker."""
        own = get_metrics().snapshot()
        snapshots = [snap for snap in snapshots if isinstance(snap, dict)]
        if not snapshots:
            # No worker registry to merge (the in-process backend records
            # into this one): folding would flatten every histogram to
            # its mean, so the snapshot is exact as it is.
            return own
        merged = MetricsRegistry()
        fold_metrics_snapshot(merged, own)
        for snap in snapshots:
            fold_metrics_snapshot(merged, snap)
        out = merged.snapshot()
        # The gateway's own latency histogram spans every request
        # end-to-end (client-observed); surface it unfolded so its
        # percentiles stay exact rather than approximate.
        for name, value in own.items():
            if name.startswith("serve.latency_ms"):
                out[name] = value
        return out

    # ------------------------------------------------------------------
    def _teardown(self) -> None:
        if self.fleet.config.tracing and self.fleet.config.trace_dir:
            try:
                merged = merge_worker_traces(self.fleet.config.trace_dir)
                logger.info("merged %d worker trace events", merged)
            except OSError:
                pass
        self.fleet.stop()
        for client in list(self._clients.values()):
            self._drop(client)
        for fileobj in (self._listener, self._wake_r, self._wake_w):
            try:
                if fileobj is not None:
                    self._sel.unregister(fileobj)
            except (KeyError, ValueError):
                pass
            try:
                if fileobj is not None:
                    fileobj.close()
            except OSError:
                pass
        self._sel.close()


# ----------------------------------------------------------------------
def _error(code: str, message: str) -> Dict[str, Any]:
    return api.error_wire(code, message)


def _merge_designs(replies: List[Any]) -> Dict[str, Any]:
    designs: Dict[str, Any] = {}
    for reply in replies:
        if isinstance(reply, dict):
            designs.update(reply.get("designs", {}))
    return {"designs": dict(sorted(designs.items()))}


def _render(status: int, payload: Dict[str, Any],
            headers: Dict[str, str]) -> bytes:
    data = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              413: "Payload Too Large",
              431: "Request Header Fields Too Large",
              500: "Internal Server Error", 503: "Service Unavailable",
              504: "Gateway Timeout"}.get(status, "Status")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(data)}"]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data
