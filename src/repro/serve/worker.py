"""Fleet worker process: sessions + micro-batching behind a pipe.

One worker owns a disjoint subset of the fleet's designs (the gateway
routes by design-session affinity, so a design's session lives in
exactly one process at a time).  The process layout mirrors the
in-process backend so the two paths stay bit-identical:

* the model's parameters **are** the artifact payload's weight arrays
  (``share_state=True``), inherited from the gateway by ``fork`` and
  marked read-only (:func:`shared_predictor`): no copy, no shared
  segment, and a write raises instead of corrupting a sibling;
* per-design :class:`~repro.serve.session.DesignSession` objects are
  built through :class:`~repro.serve.SessionFactory` from whatever the
  ``open`` message carries: a design *name* (the worker runs the
  pre-route stages itself, from the fleet's ``FlowConfig`` and
  scenario), or a pickled :class:`~repro.flow.PreRouteDesign` (the
  model-less bootstrap, whose gateway already built one).  A
  replacement worker after a crash opens the same way and replays the
  committed-edit journal to restore revisions;
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
``("open", design, spec, seed,        ``("ready", design, info)``, or
``  replay_edits)``; *spec* is the    ``("open_failed", design, reason)``
name or a ``PreRouteDesign``          when the build or replay raises
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

import gc
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Sequence

from repro.obs import get_metrics, get_tracer
from repro.obs.merge import worker_trace_path
from repro.obs.trace import configure_tracing

#: Seconds an idle worker waits on its pipe before it checks that the
#: gateway that forked it is still its parent.
PARENT_CHECK_S = 1.0


def freeze_weights(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Mark *payload*'s weight arrays read-only in place; returns it.

    The gateway calls this before it forks the workers and every worker
    calls it again at entry: under ``fork`` the arrays are the gateway's
    own (already read-only) pages, under the ``spawn`` fallback they
    arrive as writable unpickled copies.
    """
    for arr in payload["state"]:
        arr.flags.writeable = False
    return payload


def shared_predictor(payload: Dict[str, Any], precision: str):
    """A predictor whose parameters are *payload*'s read-only arrays."""
    from repro.core.predictor import TimingPredictor

    predictor = TimingPredictor.from_artifact(
        freeze_weights(payload), source="<fleet>", share_state=True)
    if precision != predictor.precision:
        predictor.set_precision(precision)
    return predictor


def limit_blas_threads(threads: int) -> Optional[int]:
    """Cap numpy's bundled OpenBLAS at *threads* threads in this process.

    The library reads no environment variable after it loads.  The
    fleet calls this before it forks, so the workers inherit the cap: a
    forked child has no BLAS thread pool, and setting the count there
    starts one whose threads spin for about 0.1 s of CPU, so an equal
    count is left alone.  Returns *threads*, or ``None`` (and changes
    nothing) where numpy ships no ``scipy_openblas`` library.
    """
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        if get() != threads:
            put(threads)
        return threads
    return None


def worker_main(conn, worker_id: int, config,
                payload: Dict[str, Any], parent_pid: Optional[int] = None,
                inherited: Sequence[Any] = (),
                blas_threads: Optional[int] = None) -> None:
    """Process entry point (importable top-level for any start method).

    *config* is the fleet's :class:`~repro.serve.FleetConfig`; *payload*
    is the artifact payload the weights are read from.  *parent_pid* is
    the gateway's pid: the worker exits once its parent is another
    process.  *inherited* are the gateway's ends of every fleet pipe
    that a fork copied into this process (this worker's own included);
    they are closed first, so a gateway that dies unstopped leaves this
    worker at the end of its pipe (EOF) instead of waiting forever.
    *blas_threads* is this worker's share of the CPUs for BLAS calls,
    already set by a forking gateway (see :func:`limit_blas_threads`);
    ``None`` leaves BLAS as it is.
    """
    for end in inherited:
        end.close()
    # Local imports keep module import light for the parent process.
    from repro.ml.plancache import configure_plan_cache
    from repro.serve.batcher import MicroBatcher
    from repro.serve.dispatch import RequestDispatcher
    from repro.serve.factory import SessionFactory
    from repro.serve.session import DesignSession

    # The parent coordinates shutdown over the pipe (drain → stop).
    # SIGTERM/SIGINT aimed at the process *group* (systemd, ``timeout``,
    # a terminal ^C) must not kill workers out from under an in-flight
    # drain — that would read as a crash and trigger a pointless respawn.
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    if blas_threads is not None:
        blas_threads = limit_blas_threads(blas_threads)

    # Fresh observability state: with fork the child inherits the parent
    # registry/tracer including open sinks — reset, then open a private
    # per-worker trace sink so the parent can merge spans back later.
    tracer = get_tracer()
    tracer.reset()
    if config.tracing and config.trace_dir:
        configure_tracing(enabled=True,
                          jsonl_path=worker_trace_path(config.trace_dir))
    else:
        tracer.disable()
    get_metrics().reset()
    get_metrics().gauge("serve.worker.id").set(worker_id)

    predictor = shared_predictor(payload, config.precision)
    if config.plan_cache_dir:
        configure_plan_cache(config.plan_cache_dir)
    batcher = None
    if config.microbatch > 1:
        batcher = MicroBatcher(
            predictor, max_batch=config.microbatch,
            max_wait_s=config.microbatch_wait_ms * 1e-3)

    sessions: Dict[str, DesignSession] = {}
    dispatcher = RequestDispatcher(
        sessions,
        max_concurrent=config.threads,
        deadline_s=config.deadline_s,
        batcher=batcher,
        fault_injection=config.fault_injection,
        session_ttl_s=config.session_ttl_s,
        # ``send`` is defined below; the closure resolves it at call time
        # (evictions only happen while requests are being served).
        on_evict=lambda design: send(("evicted", design)))

    pool = ThreadPoolExecutor(max_workers=config.threads,
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

    # The gateway ships corner *specs* (names or ``name:V:T`` triples);
    # parsing them here re-registers any custom corners in this process,
    # and the factory then only needs the resolved names.
    corner_names = None
    if config.corners:
        from repro.timing import CornerSet

        corner_names = CornerSet.parse(list(config.corners)).names
    # Read-only weights need no per-session model copies: the batcher
    # serializes access when batching is on; otherwise each session gets
    # its own module instances (caches are per-module, weights still
    # alias the payload's arrays).
    factory = SessionFactory(
        lambda: shared_predictor(payload, config.precision),
        batcher=batcher, flow_config=config.flow_config,
        corners=corner_names, partition_pins=config.partition_pins,
        scenario=config.scenario)

    def open_design(design: str, spec, seed: int, replay) -> None:
        # The build runs with the collector off, as a ``--workers 0``
        # boot does (see ``repro.cli``): it makes long-lived objects,
        # not garbage.  A built session is frozen out of later passes
        # (with whatever the fork inherited), and the collector is on
        # again before the design is reported ready.
        gc.disable()
        try:
            session = factory.open(spec, seed=seed, replay=replay)
        except Exception as exc:
            gc.enable()
            # Reported, not raised: the gateway decides whether a
            # design that cannot be built ends the boot.
            send(("open_failed", design, f"{type(exc).__name__}: {exc}"))
            return
        gc.freeze()
        gc.enable()
        # Publish only once fully materialized (journal replayed).
        sessions[design] = session
        send(("ready", design, session.describe()))

    def describe() -> Dict[str, Any]:
        params = predictor.model.parameters()
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "designs": sorted(sessions),
            "weights_read_only": bool(params) and all(
                not p.data.flags.writeable for p in params),
            "collector_enabled": gc.isenabled(),
            "blas_threads": blas_threads,
            "microbatch": batcher.describe() if batcher else None,
        }

    try:
        while True:
            try:
                if conn.poll(PARENT_CHECK_S):
                    msg = conn.recv()
                elif parent_pid in (None, os.getppid()):
                    continue
                else:
                    msg = ("stop",)  # the gateway died without stopping us
            except (EOFError, OSError):
                msg = ("stop",)  # the gateway's end is closed
            kind = msg[0]
            if kind == "open":
                _, design, spec, seed, replay = msg
                open_design(design, spec, seed, replay)
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
