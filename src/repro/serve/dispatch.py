"""Transport-agnostic request dispatch (the serving "dispatch" layer).

The serving stack is split into three layers (see DESIGN.md):

* **transport** — how bytes arrive: the async HTTP gateway
  (:mod:`repro.serve.gateway`), which hands requests to a thread pool in
  its own process (:class:`~repro.serve.fleet.InProcessBackend`) or over
  a worker process's pipe (:mod:`repro.serve.worker`);
* **dispatch** — this module: route → session, slot accounting,
  per-request deadlines, structured errors;
* **compute** — the sessions, the micro-batcher and the packed model
  forward underneath them.

A :class:`RequestDispatcher` owns a set of
:class:`~repro.serve.session.DesignSession` objects and answers
``(method, path, body)`` triples with JSON-serializable dicts, raising
:class:`ApiError` for anything that maps to a non-200 status.  Both the
in-process backend (``--workers 0``) and every fleet worker run requests
through this same class, which is what keeps the two paths bit-identical.

Deadline accounting: the dispatcher opens a :class:`Deadline` per
request and threads the *remaining* budget into the session layer, so
time spent queueing for a slot, waiting on the session lock, **and
waiting inside the micro-batcher** all count against the request's
budget (a request used to be able to exceed its deadline inside the
batcher's batch-formation window).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import get_metrics
from repro.serve import api
from repro.serve.api import ApiError
from repro.serve.session import DesignSession
from repro.utils import get_logger

logger = get_logger("serve.dispatch")


class Deadline:
    """Tracks one request's time budget."""

    def __init__(self, budget_s: float) -> None:
        self.start = time.perf_counter()
        self.budget_s = budget_s

    @property
    def remaining(self) -> float:
        return self.budget_s - (time.perf_counter() - self.start)

    def check(self, where: str) -> None:
        if self.remaining <= 0.0:
            raise ApiError(504, "deadline_exceeded",
                           f"request exceeded its {self.budget_s:.3g}s "
                           f"deadline ({where})")


def unknown_design_error(design: Any, served) -> ApiError:
    """The canonical 404 for a design that is not being served.

    Shared by the dispatcher and the fleet gateway so the two paths
    return byte-identical error bodies.
    """
    return ApiError(404, "unknown_design",
                    f"design {design!r} is not served "
                    f"(have: {sorted(served)})")


class RequestDispatcher:
    """Routes parsed requests to sessions; transport-independent."""

    def __init__(self, sessions: Dict[str, DesignSession],
                 max_concurrent: int = 4,
                 deadline_s: float = 30.0,
                 model_info: Optional[Dict[str, Any]] = None,
                 batcher=None,
                 fault_injection: bool = False,
                 session_ttl_s: Optional[float] = None,
                 on_evict: Optional[Callable[[str], None]] = None) -> None:
        import threading

        # The dict is *aliased*, not copied: DELETE /designs/<id> and the
        # idle-TTL sweep must be visible to the owner's view of the
        # sessions (the fleet worker reads the same dict for describe()).
        self.sessions = sessions
        self.deadline_s = deadline_s
        self.model_info = model_info or {}
        self.batcher = batcher
        self.fault_injection = fault_injection
        #: Evict sessions idle longer than this many seconds (None = off).
        self.session_ttl_s = session_ttl_s
        #: Called with the design name after any eviction (DELETE or TTL).
        self.on_evict = on_evict
        self.started_at = time.time()
        self._slots = threading.Semaphore(max_concurrent)
        self._evict_lock = threading.Lock()

    # ------------------------------------------------------------------
    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Answer one request; raises :class:`ApiError` on failure."""
        route = (method, path)
        budget = self.deadline_s
        if isinstance(body, dict) and "deadline_s" in body:
            budget = min(budget, float(body["deadline_s"]))
        deadline = Deadline(budget)
        self._sweep_idle()
        if not self._slots.acquire(timeout=max(deadline.remaining, 0.0)):
            get_metrics().counter("serve.rejected.overload").inc()
            raise ApiError(503, "overloaded",
                           f"no worker slot within the {budget:.3g}s "
                           "deadline; retry later")
        try:
            deadline.check("after queueing")
            self._maybe_inject(body)
            if route == ("GET", "/health"):
                return self.health()
            if route == ("GET", "/designs"):
                return {"designs": {name: s.describe()
                                    for name, s in self.sessions.items()}}
            if route == ("GET", "/metrics"):
                return {"metrics": get_metrics().snapshot()}
            if route == ("POST", "/predict"):
                return self._predict(body or {}, deadline)
            if route == ("POST", "/whatif"):
                return self._whatif(body or {}, deadline)
            if method == "DELETE" and path.startswith("/designs/"):
                return self._delete(path[len("/designs/"):], deadline)
            raise ApiError(404, "no_such_route",
                           f"no route {method} {path}")
        finally:
            self._slots.release()

    def handle_to_wire(self, method: str, path: str,
                       body: Optional[Dict[str, Any]]
                       ) -> Tuple[int, Dict[str, Any]]:
        """:meth:`handle` with errors rendered to ``(status, payload)``.

        The single place where exceptions become wire payloads — shared
        by the in-process backend and the fleet workers so a given
        failure produces the same body on either backend.
        """
        try:
            return 200, self.handle(method, path, body)
        except ApiError as exc:
            return exc.status, exc.to_wire()
        except Exception as exc:  # noqa: BLE001 — wire boundary
            logger.exception("unhandled error on %s %s", method, path)
            return 500, api.error_wire("internal",
                                       f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def _maybe_inject(self, body: Optional[Dict[str, Any]]) -> None:
        """Test-only fault hooks (off unless explicitly enabled)."""
        if not self.fault_injection or not isinstance(body, dict):
            return
        inject = body.get("_inject")
        if not isinstance(inject, dict):
            return
        sleep_s = float(inject.get("sleep_s", 0.0))
        if sleep_s > 0.0:
            time.sleep(sleep_s)

    def _session(self, design: Optional[str]) -> DesignSession:
        if design is None and len(self.sessions) == 1:
            design = next(iter(self.sessions))
        if design not in self.sessions:
            raise unknown_design_error(design, self.sessions)
        return self.sessions[design]

    def _served_corners(self) -> Tuple[str, ...]:
        """Union of every session's served corners, first-seen order."""
        corners: Dict[str, None] = {}
        for session in self.sessions.values():
            for name in session.corners:
                corners[name] = None
        return tuple(corners) or ("base",)

    def health(self) -> Dict[str, Any]:
        return api.HealthResponse(
            status="ok",
            designs=sorted(self.sessions),
            model=self.model_info,
            uptime_s=time.time() - self.started_at,
            corners=self._served_corners(),
            microbatch=(self.batcher.describe()
                        if self.batcher is not None else None)).to_wire()

    @staticmethod
    def _check_corner(req, session: DesignSession) -> None:
        if req.corner is not None and req.corner not in session.corners:
            raise ApiError(400, "unknown_corner",
                           f"corner {req.corner!r} is not served "
                           f"(have: {list(session.corners)})")

    def _predict(self, body: Dict[str, Any],
                 deadline: Deadline) -> Dict[str, Any]:
        req = api.PredictRequest.parse(body)
        session = self._session(req.design)
        self._check_corner(req, session)
        try:
            if len(session.corners) > 1:
                report = session.predict_report(
                    req.endpoints, deadline_s=deadline.remaining,
                    corner=req.corner)
            else:
                report = {"predictions": session.predict(
                    req.endpoints, deadline_s=deadline.remaining,
                    corner=req.corner)}
        except ValueError as exc:
            raise ApiError(400, "bad_request", str(exc)) from exc
        except TimeoutError as exc:
            raise ApiError(504, "deadline_exceeded", str(exc)) from exc
        deadline.check("after predict")
        reports = report.get("corners")
        return api.PredictResponse(
            design=session.name,
            revision=session.revision,
            predictions=report["predictions"],
            corners=([api.CornerReport.from_dict(d)
                      for d in reports.values()]
                     if reports is not None else None),
            worst=report.get("worst")).to_wire()

    def _delete(self, design: str, deadline: Deadline) -> Dict[str, Any]:
        """Evict one design: release its session's caches.

        The close happens *before* the pop so a concurrent request that
        already holds the session object either finishes first (close
        waits on the session lock) or sees the 404 on its next lookup.
        """
        with self._evict_lock:
            session = self.sessions.get(design)
            if session is None:
                raise unknown_design_error(design, self.sessions)
            try:
                session.close(deadline_s=deadline.remaining)
            except TimeoutError as exc:
                # Session still busy: leave it served, let the client retry.
                raise ApiError(504, "deadline_exceeded", str(exc)) from exc
            self.sessions.pop(design, None)
        get_metrics().counter("serve.sessions_deleted").inc()
        if self.on_evict is not None:
            self.on_evict(design)
        return {
            "design": design,
            "deleted": True,
            "revision": session.revision,
            "whatifs_served": session.whatifs_served,
        }

    def _sweep_idle(self) -> None:
        """Evict sessions idle past ``session_ttl_s`` (cheap, non-blocking)."""
        ttl = self.session_ttl_s
        if ttl is None:
            return
        now = time.monotonic()
        with self._evict_lock:
            evicted = []
            for design in list(self.sessions):
                session = self.sessions[design]
                if now - session.last_used <= ttl:
                    continue
                try:
                    session.close(deadline_s=0.0)
                except TimeoutError:
                    continue  # busy right now — not idle after all
                self.sessions.pop(design, None)
                evicted.append(design)
        for design in evicted:
            get_metrics().counter("serve.sessions_evicted_idle").inc()
            logger.info("evicted idle design %r (ttl %.3gs)", design, ttl)
            if self.on_evict is not None:
                self.on_evict(design)

    def _whatif(self, body: Dict[str, Any],
                deadline: Deadline) -> Dict[str, Any]:
        req = api.WhatifRequest.parse(body)
        session = self._session(req.design)
        self._check_corner(req, session)
        try:
            result = session.whatif(req.edits,
                                    commit=req.commit,
                                    deadline_s=deadline.remaining,
                                    corner=req.corner)
        except ValueError as exc:
            raise ApiError(400, "bad_request", str(exc)) from exc
        except TimeoutError as exc:
            raise ApiError(504, "deadline_exceeded", str(exc)) from exc
        deadline.check("after whatif")
        return api.WhatifResponse.from_session(result).to_wire()
