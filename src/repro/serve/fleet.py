"""Gateway backends: the sharded worker fleet and the in-process backend.

:class:`InProcessBackend` (``repro serve --workers 0``) keeps the
sessions in the gateway process and runs the dispatcher on a thread
pool.  :class:`TimingFleet` (``--workers N``) is the dispatch fabric
between the async HTTP gateway (:mod:`repro.serve.gateway`) and N
worker processes (:mod:`repro.serve.worker`):

* **Sharding / affinity.**  Each design's session lives in exactly one
  worker (round-robin assignment at startup, sticky thereafter), so a
  design's committed state has a single home and no cross-process
  session coherence is needed.
* **Workers build their own shard.**  The fleet sends each worker what
  it was given per design: a design *name*, which the worker builds
  itself (pre-route stages, from :attr:`FleetConfig.flow_config` and
  :attr:`FleetConfig.scenario`), or a
  :class:`~repro.flow.PreRouteDesign` the gateway already holds (the
  model-less bootstrap).  A design that cannot be built ends
  :meth:`TimingFleet.start` with :class:`FleetOpenFailed`.
* **One model by fork.**  The gateway marks its predictor's weights
  read-only and forks the workers; each worker serves the predictor it
  inherits, so the fleet holds one copy of the weights in copy-on-write
  pages that are never written.
* **Backpressure.**  Per-worker in-flight queues are bounded
  (``queue_depth``); :meth:`TimingFleet.submit` raises
  :class:`FleetOverloaded` when a shard is full and the gateway turns
  that into a 503 with ``Retry-After``.
* **Crash recovery.**  Every worker's process sentinel is watched by the
  gateway's selector loop; on death the fleet spawns a replacement,
  re-opens the dead worker's sessions from the same open message (a
  name is rebuilt), replays the committed-edit journal so revisions are
  restored, transparently resubmits *pure* in-flight requests (reads,
  predictions, uncommitted what-ifs) and fails committed what-ifs with
  a retryable 503 — a commit that was
  in-flight on a dying worker may or may not have been applied there,
  but the journal only ever contains acknowledged commits, so the
  replacement's state is unambiguous.
* **Drain.**  :meth:`TimingFleet.drain_begin` sends each worker a drain
  marker; pipe ordering guarantees all previously submitted requests
  are answered before the worker's ``("drained",)`` acknowledgement.

The fleet is single-threaded by design: every method is called from the
gateway's selector loop (or from a test driving :meth:`pump` directly);
there is no internal locking to reason about.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.predictor import TimingPredictor
from repro.flow import FlowConfig, FlowResult, PreRouteDesign
from repro.serve.dispatch import (
    ApiError,
    RequestDispatcher,
    unknown_design_error,
)
from repro.serve.session import DesignSession
from repro.serve.worker import worker_main
from repro.utils import get_logger, require
from repro.utils.blas import cpu_share, limit_blas_threads

logger = get_logger("serve.fleet")

#: Routes whose retry is always safe: they do not mutate session state.
#: ``POST /whatif`` is pure too *unless* the body asks to commit.
_PURE_POSTS = ("/predict", "/whatif")


class FleetOverloaded(ApiError):
    """A shard's bounded queue is full; the client should retry."""

    def __init__(self, design: str, depth: int) -> None:
        super().__init__(503, "overloaded",
                         f"shard serving {design!r} has {depth} requests "
                         "in flight; retry later")
        self.retry_after_s = 1


class FleetOpenFailed(RuntimeError):
    """Workers could not build or open some designs at start.

    ``failures`` maps each such design to its ``"<Type>: <message>"``
    reason; the message joins them as ``"<design>: <reason>; ..."``.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(sorted(failures.items()))
        super().__init__("; ".join(f"{d}: {r}"
                                   for d, r in self.failures.items()))


@dataclass(frozen=True)
class FleetConfig:
    """Fleet sizing and per-worker serving knobs.

    ``workers=0`` configures the :class:`InProcessBackend`, which uses
    the dispatch knobs (threads, deadline, queue depth, TTL) and leaves
    session construction to its caller.
    """

    workers: int = 2
    threads: int = 4                 # request threads per worker
    microbatch: int = 8
    microbatch_wait_ms: float = 2.0
    deadline_s: float = 30.0
    queue_depth: int = 32            # max in-flight per worker (bounded)
    fault_injection: bool = False
    trace_dir: Optional[str] = None  # per-worker span files land here
    tracing: bool = False
    start_timeout_s: float = 120.0   # worker boot + session open budget
    session_ttl_s: Optional[float] = None  # idle-session eviction TTL
    corners: Tuple[str, ...] = ("base",)  # sign-off corners every worker serves
    partition_pins: Optional[int] = None  # streaming chunk-size hint
    #: Flow config and scenario a worker builds a design *name* with;
    #: ``None`` is ``FlowConfig(base_seed=seed)`` and the plain flow.
    flow_config: Optional[FlowConfig] = None
    scenario: Optional[str] = None


@dataclass
class _Proxied:
    """One client request forwarded to a worker."""

    rid: int
    design: Optional[str]
    method: str
    path: str
    body: Optional[Dict[str, Any]]
    on_done: Callable[[int, Dict[str, Any]], None]
    t_end: Optional[float] = None    # absolute perf_counter deadline
    committed: bool = False          # POST /whatif with commit=True
    retried: bool = False


@dataclass
class _Fanout:
    """One logical request fanned out to every live worker."""

    remaining: int
    replies: List[Any] = field(default_factory=list)
    on_done: Callable[[List[Any]], None] = lambda replies: None

    def absorb(self, reply: Any) -> None:
        self.replies.append(reply)
        self.remaining -= 1

    @property
    def complete(self) -> bool:
        return self.remaining <= 0


class WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.designs: Set[str] = set()
        self.inflight: Set[int] = set()  # rids awaiting a reply
        self.ready: Set[str] = set()     # designs acked via ("ready", ...)
        self.failed: Dict[str, str] = {}  # design → open_failed reason
        self.drained = False
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "pid": self.pid,
            "alive": self.alive,
            "designs": sorted(self.designs),
            "inflight": len(self.inflight),
            "restarts": self.restarts,
            "drained": self.drained,
        }


class TimingFleet:
    """Owns the worker processes and routes requests to design shards.

    It takes ownership of *predictor* and marks its weights read-only,
    so a later ``fit`` or weight write on it raises ``ValueError``.
    """

    def __init__(self, predictor: TimingPredictor,
                 flows: Dict[str, Union[str, PreRouteDesign, FlowResult]],
                 config: Optional[FleetConfig] = None,
                 seeds: Optional[Dict[str, int]] = None) -> None:
        self.config = config or FleetConfig()
        require(self.config.workers >= 1,
                "a fleet needs at least one worker (use InProcessBackend "
                "for --workers 0)")
        require(len(flows) >= 1, "a fleet needs at least one design")
        #: design → what its worker opens a session on: the design name
        #: (the worker builds it) or a PreRouteDesign.  Only these cross
        #: the pipe, so no worker (nor a respawn) ever unpickles sign-off
        #: data; adopted FlowResults are cut down here.
        self.flows: Dict[str, Union[str, PreRouteDesign]] = {
            d: f.pre_route() if isinstance(f, FlowResult) else f
            for d, f in flows.items()}
        self.seeds = dict(seeds or {})
        #: Forked workers serve this object; read-only before any fork.
        self.predictor = predictor.mark_read_only()
        self.workers: List[WorkerHandle] = []
        #: design → worker id (sticky shard assignment).
        self.routing: Dict[str, int] = {}
        #: design → list of committed edit batches (wire dicts), replayed
        #: on a replacement worker to restore the session's revision.
        self.journal: Dict[str, List[List[Dict[str, Any]]]] = {
            d: [] for d in self.flows}
        self.pending: Dict[int, Any] = {}   # rid → _Proxied | (_Fanout, kind)
        self._rid = 0
        #: Each worker's share of the CPUs for its BLAS calls, set by
        #: :meth:`start` (``None``: BLAS left as it is).
        self.blas_threads: Optional[int] = None
        # Imported here: a ``--workers 0`` server never builds a fleet.
        import multiprocessing

        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._held: Callable[[], List[Any]] = list
        self._started = False
        self._up = False     # start() returned: open failures are respawns
        self._stopped = False
        self.draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TimingFleet":
        """Spawn workers, shard the designs, block until sessions open.

        Caps this process's BLAS threads at one worker's share of the
        CPUs first, so the forked workers inherit it (a gateway runs no
        BLAS of its own).
        """
        from multiprocessing.connection import wait

        require(not self._started, "fleet already started")
        self._started = True
        n = min(self.config.workers, len(self.flows))
        self.blas_threads = limit_blas_threads(cpu_share(n))
        for wid in range(n):
            self.workers.append(self._spawn(wid))
        for i, design in enumerate(sorted(self.flows)):
            worker = self.workers[i % n]
            worker.designs.add(design)
            self.routing[design] = worker.id
            self._send_open(worker, design)
        deadline = time.perf_counter() + self.config.start_timeout_s
        handles = ([w.conn for w in self.workers]
                   + [w.process.sentinel for w in self.workers])
        while any(w.ready.union(w.failed) != w.designs
                  for w in self.workers):
            if time.perf_counter() > deadline:
                self.stop()
                raise TimeoutError(
                    "fleet workers did not open their sessions within "
                    f"{self.config.start_timeout_s:.0f}s")
            # One wait on every pipe and process sentinel: the first
            # message or death from any worker ends it.
            readable = set(wait(handles, timeout=0.05))
            for worker in self.workers:
                if worker.conn in readable:
                    self.pump(worker)
                if not worker.alive:
                    self.stop()
                    raise RuntimeError(
                        f"fleet worker {worker.id} (pid {worker.pid}) "
                        "died during startup")
        failures = {d: r for w in self.workers for d, r in w.failed.items()}
        if failures:
            self.stop()
            raise FleetOpenFailed(failures)
        self._up = True
        logger.info("fleet up: %d workers, %d designs (%s)", n,
                    len(self.flows),
                    ", ".join(f"w{w.id}:{sorted(w.designs)}"
                              for w in self.workers))
        return self

    def _spawn(self, worker_id: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Under fork the arguments are inherited, not pickled: the
        # worker's model is this process's predictor, and it
        # closes the copies of this process's pipe ends and of the
        # gateway's sockets (listener, wake pair, clients) that it gets.
        inherited = ([parent_conn] + [w.conn for w in self.workers]
                     + self._held()
                     if self._ctx.get_start_method() == "fork" else [])
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.config, self.predictor,
                  os.getpid(), inherited, self.blas_threads),
            name=f"repro-fleet-w{worker_id}",
            daemon=True)
        process.start()
        child_conn.close()  # parent keeps only its end
        return WorkerHandle(worker_id, process, parent_conn)

    def _send_open(self, worker: WorkerHandle, design: str) -> None:
        self._send(worker, ("open", design, self.flows[design],
                            self.seeds.get(design, 0),
                            [list(b) for b in self.journal[design]]))

    def stop(self) -> None:
        """Stop every worker, killing any that lingers (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.alive:
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def drain_begin(self) -> None:
        """Send every live worker its drain marker (non-blocking).

        All requests submitted before this point will still be answered
        (pipe ordering); the gateway keeps pumping until
        :attr:`all_drained`, then calls :meth:`stop`.
        """
        self.draining = True
        for worker in self.workers:
            if worker.alive and not worker.drained:
                try:
                    worker.conn.send(("drain",))
                except (OSError, BrokenPipeError):
                    worker.drained = True

    @property
    def all_drained(self) -> bool:
        return all(w.drained or not w.alive for w in self.workers)

    def attach(self, post: Callable[[Callable[[], None]], None],
               held: Callable[[], List[Any]] = list) -> None:
        """Take the gateway's ``held()``: the sockets it holds right now.

        Replies reach the loop through :meth:`pump`, so *post* is not
        needed.  A worker respawned while the gateway serves is forked
        from it and closes those sockets first (see :meth:`_spawn`).
        """
        self._held = held

    # ------------------------------------------------------------------
    # Routing + submission (called from the gateway loop)
    # ------------------------------------------------------------------
    def worker_for(self, design: Optional[str]) -> WorkerHandle:
        """The shard serving *design*; canonical 404 when unknown.

        Mirrors the in-process dispatcher's convenience: with exactly one
        design served fleet-wide, a request may omit ``design``.
        """
        if design is None and len(self.flows) == 1:
            design = next(iter(self.flows))
        if design not in self.routing:
            raise unknown_design_error(design, self.flows)
        return self.workers[self.routing[design]]

    def submit(self, design: Optional[str], method: str, path: str,
               body: Optional[Dict[str, Any]],
               on_done: Callable[[int, Dict[str, Any]], None],
               t_end: Optional[float] = None) -> int:
        """Forward one request to its shard; ``on_done(status, payload)``.

        Raises :class:`ApiError` (404 unknown design, 503 full shard)
        for failures the gateway should answer immediately.
        """
        worker = self.worker_for(design)
        if len(worker.inflight) >= self.config.queue_depth:
            raise FleetOverloaded(design or next(iter(self.flows)),
                                  len(worker.inflight))
        rid = self._next_rid()
        committed = (method == "POST" and path == "/whatif"
                     and bool((body or {}).get("commit", False)))
        self.pending[rid] = _Proxied(rid=rid, design=design, method=method,
                                     path=path, body=body, on_done=on_done,
                                     t_end=t_end, committed=committed)
        worker.inflight.add(rid)
        self._send(worker, ("request", rid, method, path, body))
        return rid

    def fanout(self, kind: str,
               on_done: Callable[[List[Any]], None]) -> None:
        """Broadcast a control query (``metrics`` | ``describe`` |
        ``designs``) to every live worker; *on_done* gets the replies.

        A worker that dies mid-fanout is simply absent from the replies.
        Completes immediately (empty list) when no worker is alive.
        """
        live = [w for w in self.workers if w.alive and not w.drained]
        op = _Fanout(remaining=len(live), on_done=on_done)
        for worker in live:
            rid = self._next_rid()
            self.pending[rid] = (op, kind)
            worker.inflight.add(rid)
            if kind == "designs":
                self._send(worker, ("request", rid, "GET", "/designs", None))
            else:
                self._send(worker, (kind, rid))
        if op.complete:
            op.on_done(op.replies)

    @staticmethod
    def _send(worker: WorkerHandle, msg) -> None:
        """Write *msg* to *worker*'s pipe.

        A worker that died before the loop handled its sentinel refuses
        the write.  Whatever was being sent is already in its in-flight
        set, so :meth:`handle_worker_death` re-homes it like any other
        request the worker took down with it.
        """
        try:
            worker.conn.send(msg)
        except OSError:
            pass

    def _next_rid(self) -> int:
        self._rid += 1
        return self._rid

    # ------------------------------------------------------------------
    # Event pump (gateway selector callbacks)
    # ------------------------------------------------------------------
    def pump(self, worker: WorkerHandle) -> None:
        """Drain every message currently readable on *worker*'s pipe."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                # Pipe collapsed — the sentinel event handles recovery.
                return
            self._dispatch(worker, msg)

    def _dispatch(self, worker: WorkerHandle, msg) -> None:
        kind = msg[0]
        if kind == "response":
            _, rid, status, payload = msg
            worker.inflight.discard(rid)
            entry = self.pending.pop(rid, None)
            if entry is None:
                return  # late reply for an already-expired request
            if isinstance(entry, _Proxied):
                if entry.committed and status == 200:
                    self._journal_commit(entry)
                entry.on_done(status, payload)
            else:  # fanout over GET /designs
                op, _ = entry
                op.absorb(payload if status == 200 else None)
                if op.complete:
                    op.on_done(op.replies)
        elif kind in ("metrics_reply", "describe_reply"):
            _, rid, payload = msg
            worker.inflight.discard(rid)
            entry = self.pending.pop(rid, None)
            if entry is not None:
                op, _ = entry
                op.absorb(payload)
                if op.complete:
                    op.on_done(op.replies)
        elif kind == "ready":
            _, design, _info = msg
            worker.ready.add(design)
        elif kind == "open_failed":
            _, design, reason = msg
            worker.failed[design] = reason
            if self._up:
                # A replacement could not rebuild the design: stop
                # routing to it rather than answer from nowhere.
                logger.error("fleet worker %d could not reopen %s (%s); "
                             "no longer serving it", worker.id, design,
                             reason)
                self._forget_design(design)
        elif kind == "evicted":
            # Pipe ordering guarantees this lands before the DELETE's own
            # ("response", ...), so routing is updated by the time the
            # gateway answers — a follow-up request for the design gets
            # the same 404 the in-process dispatcher would produce.
            self._forget_design(msg[1])
        elif kind == "drained":
            worker.drained = True

    def _forget_design(self, design: str) -> None:
        """Drop all routing state for an evicted design (idempotent)."""
        self.routing.pop(design, None)
        self.flows.pop(design, None)
        self.journal.pop(design, None)
        self.seeds.pop(design, None)
        for worker in self.workers:
            worker.designs.discard(design)
            worker.ready.discard(design)

    def _journal_commit(self, entry: _Proxied) -> None:
        design = entry.design
        if design is None and len(self.flows) == 1:
            design = next(iter(self.flows))
        edits = list((entry.body or {}).get("edits", []))
        if design in self.journal and edits:
            self.journal[design].append(edits)

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def expire(self, now: Optional[float] = None) -> None:
        """Fail every proxied request whose absolute deadline passed."""
        now = time.perf_counter() if now is None else now
        expired = [e for e in self.pending.values()
                   if isinstance(e, _Proxied)
                   and e.t_end is not None and e.t_end < now]
        for entry in expired:
            self.pending.pop(entry.rid, None)
            for worker in self.workers:
                worker.inflight.discard(entry.rid)
            entry.on_done(504, _error_payload(
                "deadline_exceeded",
                "request exceeded its deadline waiting on the fleet"))

    def next_deadline(self) -> Optional[float]:
        """Earliest pending absolute deadline (gateway poll timeout)."""
        deadlines = [e.t_end for e in self.pending.values()
                     if isinstance(e, _Proxied) and e.t_end is not None]
        return min(deadlines) if deadlines else None

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def handle_worker_death(self, worker: WorkerHandle
                            ) -> Optional[WorkerHandle]:
        """Replace a dead worker; re-home its designs and requests.

        Returns the replacement handle (the gateway must swap its
        selector registrations), or ``None`` during shutdown/drain when
        no replacement is spawned.
        """
        self.pump_remains(worker)
        orphans = [self.pending.pop(rid)
                   for rid in sorted(worker.inflight)
                   if rid in self.pending]
        worker.inflight.clear()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if self._stopped or worker.drained:
            return None
        logger.warning(
            "fleet worker %d (pid %s) died with %d request(s) in flight; "
            "respawning", worker.id, worker.pid, len(orphans))
        replacement = self._spawn(worker.id)
        replacement.designs = set(worker.designs)
        replacement.restarts = worker.restarts + 1
        self.workers[worker.id] = replacement
        for design in sorted(replacement.designs):
            self._send_open(replacement, design)
        for entry in orphans:
            self._rehome(replacement, entry)
        if self.draining:
            # The fleet-wide drain already passed this worker by; the
            # replacement must drain too (after the re-homed requests,
            # which are ahead of it in the pipe) or the drain never ends.
            self._send(replacement, ("drain",))
        return replacement

    def pump_remains(self, worker: WorkerHandle) -> None:
        """Deliver whatever the dead worker managed to write before dying."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                return
            self._dispatch(worker, msg)

    def _rehome(self, replacement: WorkerHandle, entry) -> None:
        if not isinstance(entry, _Proxied):
            op, _ = entry          # fanout: dead worker is just absent
            op.remaining -= 1
            if op.complete:
                op.on_done(op.replies)
            return
        if self._is_pure(entry) and not entry.retried:
            # Safe to replay: the request cannot have mutated state.
            # Requests queue behind the ("open", ...) replays already in
            # the pipe, so the session is rebuilt before they run.
            entry.retried = True
            self.pending[entry.rid] = entry
            replacement.inflight.add(entry.rid)
            self._send(replacement, ("request", entry.rid, entry.method,
                                     entry.path, entry.body))
            return
        entry.on_done(503, _error_payload(
            "worker_lost",
            "the worker serving this request died before answering; "
            "the session has been restored — retry the request"))

    @staticmethod
    def _is_pure(entry: _Proxied) -> bool:
        if entry.method == "GET":
            return True
        return (entry.method == "POST" and entry.path in _PURE_POSTS
                and not entry.committed)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Fleet-level bookkeeping for ``/health``."""
        return {
            "workers": len(self.workers),
            "designs": {d: self.routing[d] for d in sorted(self.routing)},
            "journal_revisions": {d: len(b)
                                  for d, b in sorted(self.journal.items())},
            "pending": len(self.pending),
            "per_worker": [w.describe() for w in self.workers],
        }


class InProcessBackend:
    """The gateway's backend for ``--workers 0``: no worker processes.

    Presents the surface :class:`~repro.serve.gateway.TimingGateway`
    calls on :class:`TimingFleet`, over sessions that stay in the gateway
    process.  Like a fleet worker, it runs
    :meth:`RequestDispatcher.handle_to_wire` on a pool of
    ``config.threads`` threads; each result is handed back to the loop
    thread through the gateway's self-pipe (see :meth:`attach`), so the
    in-flight count is only ever touched on the loop thread.
    """

    #: The one shard every design lives on (the ``X-Repro-Worker`` label).
    id = 0
    #: No worker pipes or process sentinels for the gateway to watch.
    workers: Tuple[WorkerHandle, ...] = ()

    def __init__(self, sessions: Dict[str, DesignSession],
                 config: Optional[FleetConfig] = None,
                 batcher=None, blas_threads: Optional[int] = None) -> None:
        self.config = config or FleetConfig(workers=0)
        #: This process's BLAS thread cap (``None``: left as it is).
        self.blas_threads = blas_threads
        self.dispatcher = RequestDispatcher(
            sessions,
            max_concurrent=self.config.threads,
            deadline_s=self.config.deadline_s,
            batcher=batcher,
            fault_injection=self.config.fault_injection,
            session_ttl_s=self.config.session_ttl_s)
        self.inflight = 0
        self._pool = ThreadPoolExecutor(max_workers=self.config.threads,
                                        thread_name_prefix="repro-serve")
        self._post: Optional[Callable[[Callable[[], None]], None]] = None

    @property
    def flows(self) -> Dict[str, DesignSession]:
        """The served designs (keys); DELETE and idle eviction drop them."""
        return self.dispatcher.sessions

    def attach(self, post: Callable[[Callable[[], None]], None],
               held: Callable[[], List[Any]] = list) -> None:
        """Take the gateway's thread-safe ``post(fn)``: runs ``fn`` on the
        loop thread.  Nothing is forked, so *held* is not needed."""
        self._post = post

    def worker_for(self, design: Optional[str]) -> "InProcessBackend":
        """Every design is local; the dispatcher answers unknown designs
        with the same canonical 404 the fleet's routing table gives."""
        return self

    def submit(self, design: Optional[str], method: str, path: str,
               body: Optional[Dict[str, Any]],
               on_done: Callable[[int, Dict[str, Any]], None],
               t_end: Optional[float] = None) -> None:
        """Run one request on the pool; ``on_done(status, payload)`` is
        called on the loop thread.  The gateway's own deadline backstop
        covers *t_end*."""
        if self.inflight >= self.config.queue_depth:
            raise FleetOverloaded(design, self.inflight)
        self._run(lambda: self.dispatcher.handle_to_wire(method, path, body),
                  lambda reply: on_done(*reply))

    def fanout(self, kind: str,
               on_done: Callable[[List[Any]], None]) -> None:
        """``designs`` is answered by the dispatcher; ``metrics`` and
        ``describe`` have no worker to ask (the gateway's registry is
        this process's registry), so they complete with no replies."""
        if kind != "designs":
            on_done([])
            return
        self._run(lambda: self.dispatcher.handle_to_wire(
                      "GET", "/designs", None),
                  lambda reply: on_done(
                      [reply[1] if reply[0] == 200 else None]))

    def _run(self, call: Callable[[], Tuple[int, Dict[str, Any]]],
             deliver: Callable[[Tuple[int, Dict[str, Any]]], None]) -> None:
        def job() -> None:
            reply = call()
            self._post(lambda: self._deliver(deliver, reply))

        self.inflight += 1
        self._pool.submit(job)

    def _deliver(self, deliver, reply) -> None:
        self.inflight -= 1
        deliver(reply)

    # Drain: requests already on the pool finish there; the gateway
    # waits for ``all_drained`` and stops taking new ones itself.
    def drain_begin(self) -> None:
        pass

    @property
    def all_drained(self) -> bool:
        return self.inflight == 0

    def next_deadline(self) -> Optional[float]:
        return None

    def expire(self, now: Optional[float] = None) -> None:
        pass

    def describe(self) -> Dict[str, Any]:
        """Backend bookkeeping for ``/health``."""
        return {"workers": 0, "threads": self.config.threads,
                "inflight": self.inflight, "blas_threads": self.blas_threads}

    def stop(self) -> None:
        """Release the pool threads and the micro-batcher (idempotent)."""
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.dispatcher.batcher is not None:
            self.dispatcher.batcher.stop()


def _error_payload(code: str, message: str) -> Dict[str, Any]:
    """The same wire shape :meth:`RequestDispatcher.handle_to_wire` uses."""
    from repro.serve.api import error_wire
    return error_wire(code, message)
