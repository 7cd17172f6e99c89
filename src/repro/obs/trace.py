"""Span-based tracer emitting JSON-lines events.

Design constraints (see DESIGN.md "Observability"):

* **Cheap when disabled.**  ``Tracer.span`` always returns a real
  :class:`Span` that measures its own wall-clock duration — callers such
  as :class:`repro.utils.timer.StageTimer` rely on ``span.duration`` —
  but when the tracer is disabled the span skips id allocation, the
  thread-local parent stack, event construction and sink fan-out.  The
  residual cost is two ``time.perf_counter`` calls per span.

* **Thread-safe.**  Event emission is serialized by a lock; span nesting
  uses a thread-local stack so concurrent threads build independent
  parent chains.

* **Pluggable sinks, bounded memory.**  Every event goes to each
  registered sink callable, e.g. :class:`JsonlSink` for on-disk
  JSON-lines traces.  The in-memory buffer (read it back with
  :meth:`Tracer.events`) is a ring of the last :data:`EVENT_BUFFER_SIZE`
  events, so a long-lived traced process — a fleet worker, or
  ``REPRO_TRACE=1 repro serve`` — holds O(1) events however long it
  runs.  Consumers that need every event read a sink.

Event schema (one JSON object per line)::

    {"type": "span", "name": "flow.sta", "span_id": 7, "parent_id": 3,
     "thread": 140213, "ts": 1722950000.123, "dur": 0.0421,
     "attrs": {"stage": "sta", "design": "xgate"}}
    {"type": "event", "name": "log", "span_id": 8, "parent_id": 7,
     "ts": ..., "attrs": {"level": "WARNING", "logger": "repro.flow",
                          "message": "..."}}
"""

from __future__ import annotations

import collections
import itertools
import json
import logging
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Capacity of a tracer's in-memory event ring; older events fall off
#: the front (sinks still receive every event).
EVENT_BUFFER_SIZE = 1 << 14


class Span:
    """One timed region.  Use through ``tracer.span(...)`` / ``with``."""

    __slots__ = ("_tracer", "name", "attrs", "start", "duration",
                 "span_id", "parent_id", "_recording")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._recording = False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes from inside the ``with`` block."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer._enabled:
            self._recording = True
            stack = tracer._stack()
            self.parent_id = stack[-1] if stack else None
            self.span_id = next(tracer._ids)
            stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.start
        if self._recording:
            stack = self._tracer._stack()
            if stack and stack[-1] == self.span_id:
                stack.pop()
            attrs = self.attrs
            if exc_type is not None:
                attrs = dict(attrs)
                attrs["error"] = exc_type.__name__
            self._tracer._emit({
                "type": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "thread": threading.get_ident(),
                "ts": time.time() - self.duration,
                "dur": self.duration,
                "attrs": attrs,
            })


class JsonlSink:
    """Appends each event as one JSON line to *path*."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def __call__(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class Tracer:
    """Collects span/instant events; disabled (and free) by default."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._events: "collections.deque[Dict[str, Any]]" = (
            collections.deque(maxlen=EVENT_BUFFER_SIZE))
        self._emitted = 0
        self._sinks: List[Callable[[Dict[str, Any]], None]] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def add_sink(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def reset(self) -> None:
        """Drop buffered events and detach all sinks (tests, reruns)."""
        with self._lock:
            self._events.clear()
            self._emitted = 0
            for sink in self._sinks:
                close = getattr(sink, "close", None)
                if callable(close):
                    close()
            self._sinks.clear()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A context-manager span; times itself even when disabled."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant (zero-duration) event."""
        if not self._enabled:
            return
        stack = self._stack()
        self._emit({
            "type": "event",
            "name": name,
            "span_id": next(self._ids),
            "parent_id": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "ts": time.time(),
            "attrs": attrs,
        })

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of the in-memory event ring (completion order): the
        last :data:`EVENT_BUFFER_SIZE` events since :meth:`reset`."""
        with self._lock:
            return list(self._events)

    @property
    def emitted(self) -> int:
        """Events emitted since :meth:`reset`, including those the ring
        has dropped."""
        return self._emitted

    def ingest(self, event: Dict[str, Any]) -> None:
        """Replay an externally recorded event into this tracer.

        Used to merge per-worker trace files back into the parent
        process's tracer (buffer *and* sinks), so aggregation such as
        :func:`repro.obs.profile.aggregate_trace` sees one unified
        stream.  The event keeps its original ids; consumers must not
        assume ingested span ids are unique across processes.  No-op
        when the tracer is disabled.
        """
        if not self._enabled:
            return
        self._emit(dict(event))

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)
            self._emitted += 1
            sinks = list(self._sinks)
        for sink in sinks:
            sink(event)


class TraceLogHandler(logging.Handler):
    """Routes log records into the tracer's event stream.

    Installed by :func:`repro.utils.log.configure_logging`; when tracing
    is enabled every log line becomes a ``log`` event nested under the
    currently open span, so a trace tells you *where in the flow* a
    warning fired.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        super().__init__()
        self._tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        tracer = self._tracer or get_tracer()
        if not tracer.enabled:
            return
        try:
            tracer.event("log", level=record.levelname, logger=record.name,
                         message=record.getMessage())
        except Exception:  # never let tracing break logging
            self.handleError(record)


# ----------------------------------------------------------------------
# Process-global tracer
# ----------------------------------------------------------------------
_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))


def get_tracer() -> Tracer:
    """The process-global tracer (enable with ``REPRO_TRACE=1``)."""
    return _TRACER


def span(name: str, **attrs: Any) -> Span:
    """Shorthand for ``get_tracer().span(...)``."""
    return _TRACER.span(name, **attrs)


def configure_tracing(enabled: bool = True,
                      jsonl_path: Optional[str] = None) -> Tracer:
    """Enable/disable the global tracer, optionally adding a JSONL sink."""
    if enabled:
        _TRACER.enable()
    else:
        _TRACER.disable()
    if jsonl_path is not None:
        _TRACER.add_sink(JsonlSink(jsonl_path))
    return _TRACER
