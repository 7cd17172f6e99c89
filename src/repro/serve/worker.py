"""Fleet worker process: sessions + micro-batching behind a pipe.

One worker owns a disjoint subset of the fleet's designs (the gateway
routes by design-session affinity, so a design's session lives in
exactly one process at a time).  The process layout mirrors the
in-process backend so the two paths stay bit-identical:

* the model is rebuilt from the **shared-memory artifact** with
  ``share_state=True`` — parameters are read-only views into the one
  fleet-wide segment (see :mod:`repro.serve.shm`);
* per-design :class:`~repro.serve.session.DesignSession` objects are
  materialized from pickled :class:`~repro.flow.PreRouteDesign` objects
  sent over the pipe — never a whole flow with its sign-off data (and
  *re*-materialized the same way on a replacement worker after a crash,
  with the committed-edit journal replayed to restore revisions);
* concurrent requests run on a small thread pool and funnel their
  inferences through one :class:`~repro.serve.MicroBatcher`, so a burst
  within a worker coalesces into a single packed forward;
* request handling is the same
  :class:`~repro.serve.dispatch.RequestDispatcher` the in-process
  backend uses.

Wire protocol (tuples over a ``multiprocessing`` duplex pipe; the
gateway end lives in :mod:`repro.serve.fleet`):

====================================  =================================
parent → worker                       worker → parent
====================================  =================================
``("open", design, pre_route, seed,   ``("ready", design, info)``
``  replay_edits)``
``("request", rid, method, path,      ``("response", rid, status,
``  body)``                           ``  payload)``
``("metrics", rid)``                  ``("metrics_reply", rid, snap)``
``("describe", rid)``                 ``("describe_reply", rid, info)``
``("drain",)``                        ``("drained",)`` after in-flight
                                      requests finish; then exit
``("stop",)``                         (exit immediately)
(unsolicited)                         ``("evicted", design)`` after a
                                      DELETE or idle-TTL eviction — the
                                      fleet drops its routing entry
====================================  =================================
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.obs import get_metrics, get_tracer
from repro.obs.merge import worker_trace_path
from repro.obs.trace import configure_tracing


def worker_main(conn, worker_id: int, config: Dict[str, Any],
                shm_meta, trace_dir: Optional[str],
                tracing: bool) -> None:
    """Process entry point (importable top-level for any start method)."""
    # Local imports keep module import light for the parent process.
    from repro.core.predictor import TimingPredictor
    from repro.ml.plancache import configure_plan_cache
    from repro.serve.batcher import MicroBatcher
    from repro.serve.dispatch import RequestDispatcher
    from repro.serve.factory import SessionFactory
    from repro.serve.session import DesignSession
    from repro.serve.shm import attach_artifact

    # The parent coordinates shutdown over the pipe (drain → stop).
    # SIGTERM/SIGINT aimed at the process *group* (systemd, ``timeout``,
    # a terminal ^C) must not kill workers out from under an in-flight
    # drain — that would read as a crash and trigger a pointless respawn.
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Fresh observability state: with fork the child inherits the parent
    # registry/tracer including open sinks — reset, then open a private
    # per-worker trace sink so the parent can merge spans back later.
    tracer = get_tracer()
    tracer.reset()
    if tracing and trace_dir:
        configure_tracing(enabled=True,
                          jsonl_path=worker_trace_path(trace_dir))
    else:
        tracer.disable()
    get_metrics().reset()
    get_metrics().gauge("serve.worker.id").set(worker_id)

    shm, payload = attach_artifact(shm_meta)
    predictor = TimingPredictor.from_artifact(payload, source="<shm>",
                                              share_state=True)
    precision = str(config.get("precision") or "fp64")
    if precision != predictor.precision:
        predictor.set_precision(precision)
    if config.get("plan_cache_dir"):
        configure_plan_cache(config["plan_cache_dir"])
    microbatch = int(config.get("microbatch", 8))
    threads = int(config.get("threads", 4))
    batcher = None
    if microbatch > 1:
        batcher = MicroBatcher(
            predictor, max_batch=microbatch,
            max_wait_s=float(config.get("microbatch_wait_ms", 2.0)) * 1e-3)

    sessions: Dict[str, DesignSession] = {}
    dispatcher = RequestDispatcher(
        sessions,
        max_concurrent=threads,
        deadline_s=float(config.get("deadline_s", 30.0)),
        batcher=batcher,
        fault_injection=bool(config.get("fault_injection", False)),
        session_ttl_s=config.get("session_ttl_s"),
        # ``send`` is defined below; the closure resolves it at call time
        # (evictions only happen while requests are being served).
        on_evict=lambda design: send(("evicted", design)))

    pool = ThreadPoolExecutor(max_workers=threads,
                              thread_name_prefix=f"repro-w{worker_id}")
    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def run_request(rid: int, method: str, path: str,
                    body: Optional[Dict[str, Any]]) -> None:
        sp = tracer.span("serve.worker.request", worker=worker_id,
                         route=f"{method} {path}",
                         design=(body or {}).get("design"))
        with sp:
            status, payload = dispatcher.handle_to_wire(method, path, body)
            sp.set(status=status)
        metrics = get_metrics()
        metrics.counter("serve.worker.requests").inc()
        metrics.histogram("serve.worker.latency_ms").observe(
            sp.duration * 1e3)
        if status >= 400:
            metrics.counter("serve.worker.errors").inc()
        send(("response", rid, status, payload))

    # Shared read-only weights need no per-session model copies: the
    # batcher serializes access when batching is on; otherwise each
    # session gets its own module instances (caches are per-module,
    # weights still alias the shared segment).
    def acquire_predictor() -> TimingPredictor:
        own = TimingPredictor.from_artifact(payload, source="<shm>",
                                            share_state=True)
        if precision != own.precision:
            own.set_precision(precision)
        return own

    # The gateway ships corner *specs* (names or ``name:V:T`` triples);
    # parsing them here re-registers any custom corners in this process,
    # and the factory then only needs the resolved names.
    corner_specs = config.get("corners")
    corner_names = None
    if corner_specs:
        from repro.timing import CornerSet

        corner_names = CornerSet.parse(corner_specs).names
    factory = SessionFactory(acquire_predictor, batcher=batcher,
                             corners=corner_names,
                             partition_pins=config.get("partition_pins"))

    def open_design(design: str, pre_route, seed: int, replay) -> None:
        session = factory.open(pre_route, seed=seed, replay=replay)
        # Publish only once fully materialized (journal replayed).
        dispatcher.sessions[design] = session
        sessions[design] = session
        send(("ready", design, session.describe()))

    def describe() -> Dict[str, Any]:
        params = predictor.model.parameters()
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "designs": sorted(sessions),
            "shm_read_only": bool(params) and all(
                not p.data.flags.writeable for p in params),
            "microbatch": batcher.describe() if batcher else None,
        }

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # gateway went away; nothing left to serve
            kind = msg[0]
            if kind == "open":
                _, design, pre_route, seed, replay = msg
                open_design(design, pre_route, seed, replay)
            elif kind == "request":
                _, rid, method, path, body = msg
                pool.submit(run_request, rid, method, path, body)
            elif kind == "metrics":
                send(("metrics_reply", msg[1], get_metrics().snapshot()))
            elif kind == "describe":
                send(("describe_reply", msg[1], describe()))
            elif kind == "drain":
                # Everything sent before the drain marker has already
                # been read (pipe ordering) and queued on the pool;
                # shutdown(wait=True) finishes it all.
                pool.shutdown(wait=True)
                _flush_final_metrics(tracer)
                send(("drained",))
                break
            elif kind == "stop":
                pool.shutdown(wait=False, cancel_futures=True)
                break
    finally:
        if batcher is not None:
            batcher.stop()
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _flush_final_metrics(tracer) -> None:
    """Append a cumulative metrics snapshot to the worker trace file.

    The parent folds the last snapshot per worker into its registry via
    :func:`repro.obs.merge.merge_worker_traces` — same contract as the
    parallel dataset build workers.
    """
    if tracer.enabled:
        tracer.ingest({"type": "metrics", "pid": os.getpid(),
                       "ts": time.time(),
                       "snapshot": get_metrics().snapshot()})
