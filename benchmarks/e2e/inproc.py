"""The serving stack assembled in-process from the public API.

The same assembly is the output checks' reference and the traced run's
replay target: sessions from ``SessionFactory`` behind one
``MicroBatcher`` and a ``RequestDispatcher`` — the wiring
``repro serve --workers 0`` and every fleet worker use, minus the
transport.  A request's answer is ``handle_to_wire``'s payload, which
is what either transport serializes.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from layers import Recorder
from streams import Request


def serialize(payload: Dict) -> bytes:
    """The response body a transport sends for *payload*."""
    return json.dumps(payload).encode("utf-8")


class InProcessSystem:
    """Sessions for *flows*, served by the predictor artifact at *model*."""

    def __init__(self, flows: Dict, model, corners: Sequence[str],
                 seed: int) -> None:
        from repro.core import TimingPredictor
        from repro.serve import MicroBatcher, RequestDispatcher, SessionFactory

        predictor = TimingPredictor.load(model)
        # ``repro serve`` defaults: micro-batches of up to 8 designs
        # formed within 2 ms.
        self.batcher = MicroBatcher(predictor, max_batch=8,
                                    max_wait_s=0.002)
        factory = SessionFactory(lambda: predictor, batcher=self.batcher,
                                 corners=tuple(corners), default_seed=seed)
        self.sessions = {d: factory.open(f) for d, f in flows.items()}
        self.dispatcher = RequestDispatcher(self.sessions,
                                            batcher=self.batcher)

    def handle(self, req: Request) -> Tuple[int, Dict]:
        return self.dispatcher.handle_to_wire(req.method, req.path,
                                              dict(req.body))

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.batcher.stop()


class Replay:
    """An :class:`InProcessSystem` as a load-generator client: every
    ``loadgen`` loop drives it through ``connect=lambda: replay``.

    Service time per request is ``handle_to_wire`` plus serialization —
    the server-side work of a request without its transport.
    """

    def __init__(self, system: InProcessSystem,
                 recorder: Optional[Recorder] = None) -> None:
        self.system = system
        self.recorder = recorder
        self.service_s: List[float] = []
        self.read_dispatch_s: List[float] = []
        self.read_serialize_s: List[float] = []
        self.failed = 0
        self._lock = threading.Lock()

    def send(self, req: Request) -> Tuple[int, bytes]:
        t0 = time.perf_counter()
        if req.kind == "read" and self.recorder is not None:
            with self.recorder.read_request():
                status, payload = self.system.handle(req)
        else:
            status, payload = self.system.handle(req)
        t1 = time.perf_counter()
        body = serialize(payload)
        t2 = time.perf_counter()
        with self._lock:
            self.service_s.append(t2 - t0)
            if req.kind == "read":
                self.read_dispatch_s.append(t1 - t0)
                self.read_serialize_s.append(t2 - t1)
            if status != 200:
                self.failed += 1
        return status, body

    def close(self) -> None:
        pass    # the system outlives its clients
