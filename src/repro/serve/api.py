"""Canonical typed serving API: request/response schemas + versioning.

This module is the single source of truth for the serving wire format.
Every payload that crosses the HTTP boundary — answered by the
dispatcher (in-process or in a fleet worker) or by the gateway itself —
is built from (or parsed into) the dataclasses here, so the two
backends and the gateway cannot drift apart shape-wise.

API version (documented here and only here)
-------------------------------------------

There is one wire version, ``v2`` (:data:`CURRENT_API_VERSION`), and
every server advertises it as ``"api_version": "v2"`` on ``/health``.

* ``/predict`` and ``/whatif`` take ``{design, endpoints?/edits,
  commit?, corner?, deadline_s?}``.  The optional ``corner`` field
  selects which sign-off corner fills the ``predictions`` block
  (default: the primary corner).
* A **multi-corner** server adds ``corners`` (per-corner arrival/slack
  reports) and ``worst`` (the worst-corner summary) to every
  ``/predict`` and ``/whatif`` response.  A single-corner server never
  does, so its bodies carry only the flat ``predictions`` shape.

A request body may carry ``"api_version"``: absent or ``"v2"`` is
served; any other value is answered with a 400
``unsupported_api_version`` error.  That includes ``"v1"``, the
retired corner-unaware protocol — a client that still pins it gets
the 400 and must drop the pin (a single-corner server answers the
unpinned request with the same body v1 did).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The one protocol version this build speaks.
CURRENT_API_VERSION = "v2"
#: Every version this build can answer.
SUPPORTED_API_VERSIONS = (CURRENT_API_VERSION,)


class ApiError(Exception):
    """An error with a wire representation (status + structured body)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_wire(self) -> Dict[str, Any]:
        return error_wire(self.code, self.message)


def error_wire(code: str, message: str) -> Dict[str, Any]:
    """The one canonical error body: ``{"error": {"code", "message"}}``."""
    return {"error": {"code": code, "message": message}}


def negotiate_version(body: Optional[Dict[str, Any]]) -> str:
    """Resolve a request body's ``api_version`` (see module docstring)."""
    raw = body.get("api_version") if isinstance(body, dict) else None
    if raw is None:
        return CURRENT_API_VERSION
    if raw not in SUPPORTED_API_VERSIONS:
        raise ApiError(400, "unsupported_api_version",
                       f"api_version {raw!r} is not supported "
                       f"(supported: {list(SUPPORTED_API_VERSIONS)})")
    return raw


def _parse_corner(body: Dict[str, Any]) -> Optional[str]:
    corner = body.get("corner")
    if corner is None:
        return None
    if not isinstance(corner, str):
        raise ApiError(400, "bad_request",
                       "'corner' must be a corner name string")
    return corner


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictRequest:
    """``POST /predict`` — batched predictions at the committed state."""

    design: Optional[str] = None
    endpoints: Optional[List[int]] = None
    corner: Optional[str] = None          # None = primary corner
    deadline_s: Optional[float] = None

    @classmethod
    def parse(cls, body: Dict[str, Any]) -> "PredictRequest":
        negotiate_version(body)
        endpoints = body.get("endpoints")
        if endpoints is not None and not isinstance(endpoints, list):
            raise ApiError(400, "bad_request",
                           "'endpoints' must be a list of pin ids")
        return cls(design=body.get("design"),
                   endpoints=endpoints,
                   corner=_parse_corner(body),
                   deadline_s=body.get("deadline_s"))


@dataclass(frozen=True)
class WhatifRequest:
    """``POST /whatif`` — edit, re-featurize, re-predict."""

    design: Optional[str] = None
    edits: List[Dict[str, Any]] = field(default_factory=list)
    commit: bool = False
    corner: Optional[str] = None          # None = primary corner
    deadline_s: Optional[float] = None

    @classmethod
    def parse(cls, body: Dict[str, Any]) -> "WhatifRequest":
        negotiate_version(body)
        edits = body.get("edits")
        if not isinstance(edits, list) or not edits:
            raise ApiError(400, "bad_request",
                           "'edits' must be a non-empty list")
        return cls(design=body.get("design"),
                   edits=edits,
                   commit=bool(body.get("commit", False)),
                   corner=_parse_corner(body),
                   deadline_s=body.get("deadline_s"))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def _predictions_wire(predictions: Dict[int, float]) -> Dict[str, float]:
    return {str(p): float(v) for p, v in predictions.items()}


@dataclass(frozen=True)
class CornerReport:
    """One corner's arrival/slack summary (v2 ``corners`` block entry)."""

    corner: str
    predictions: Dict[int, float]         # endpoint pin → arrival (ps)
    wns: float                            # worst slack at this corner (ps)
    tns: float                            # total negative slack (ps, ≤ 0)

    def to_wire(self) -> Dict[str, Any]:
        return {"predictions": _predictions_wire(self.predictions),
                "wns": float(self.wns), "tns": float(self.tns)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CornerReport":
        return cls(corner=d["corner"], predictions=d["predictions"],
                   wns=d["wns"], tns=d["tns"])


def worst_corner_wire(reports: Sequence[CornerReport]) -> Dict[str, Any]:
    """The ``worst`` summary block: the corner with the smallest WNS."""
    worst = min(reports, key=lambda r: r.wns)
    return {"corner": worst.corner, "wns": float(worst.wns),
            "tns": float(worst.tns)}


@dataclass(frozen=True)
class PredictResponse:
    """``POST /predict`` response (flat keys first, corner blocks last)."""

    design: str
    revision: int
    predictions: Dict[int, float]
    corners: Optional[List[CornerReport]] = None
    worst: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "design": self.design,
            "revision": self.revision,
            "n_endpoints": len(self.predictions),
            "predictions": _predictions_wire(self.predictions),
        }
        if self.corners is not None:
            out["corners"] = {r.corner: r.to_wire() for r in self.corners}
            out["worst"] = (dict(self.worst) if self.worst is not None
                            else worst_corner_wire(self.corners))
        return out


@dataclass(frozen=True)
class WhatifResponse:
    """``POST /whatif`` response (flat keys first, corner blocks last)."""

    design: str
    revision: int
    committed: bool
    predictions: Dict[int, float]
    pre_route: Dict[str, float]
    shift: Dict[str, float]
    latency_ms: float
    corners: Optional[List[CornerReport]] = None
    worst: Optional[Dict[str, Any]] = None

    @classmethod
    def from_session(cls, result: Dict[str, Any]) -> "WhatifResponse":
        """Wrap :meth:`DesignSession.whatif`'s dict (corner blocks are
        present exactly when the session serves several corners)."""
        reports = None
        if "corners" in result:
            reports = [CornerReport.from_dict(dict(d, corner=name))
                       for name, d in result["corners"].items()]
        return cls(design=result["design"], revision=result["revision"],
                   committed=result["committed"],
                   predictions=result["predictions"],
                   pre_route=result["pre_route"], shift=result["shift"],
                   latency_ms=result["latency_ms"], corners=reports,
                   worst=result.get("worst"))

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "design": self.design,
            "revision": self.revision,
            "committed": self.committed,
            "predictions": _predictions_wire(self.predictions),
            "pre_route": self.pre_route,
            "shift": self.shift,
            "latency_ms": self.latency_ms,
        }
        if self.corners is not None:
            out["corners"] = {r.corner: r.to_wire() for r in self.corners}
            out["worst"] = (dict(self.worst) if self.worst is not None
                            else worst_corner_wire(self.corners))
        return out


@dataclass(frozen=True)
class DesignInfo:
    """One entry of the ``/designs`` map (``DesignSession.describe``)."""

    design: str
    cells: int
    endpoints: int
    clock_period_ps: float
    revision: int
    whatifs_served: int
    corners: Tuple[str, ...] = ("base",)
    #: Flow scenario the session serves (``""`` = the default flow; see
    #: :mod:`repro.flow.scenario`).
    scenario: str = ""

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "design": self.design,
            "cells": self.cells,
            "endpoints": self.endpoints,
            "clock_period_ps": self.clock_period_ps,
            "revision": self.revision,
            "whatifs_served": self.whatifs_served,
        }
        if len(self.corners) > 1:   # single-corner shape stays byte-stable
            out["corners"] = list(self.corners)
        if self.scenario:           # default-scenario shape stays byte-stable
            out["scenario"] = self.scenario
        return out


@dataclass(frozen=True)
class HealthResponse:
    """``GET /health`` — liveness + model/designs/corners summary."""

    status: str
    designs: List[str]
    model: Dict[str, Any]
    uptime_s: float
    corners: Optional[Tuple[str, ...]] = None   # served corners (if > 1)
    fleet: Optional[Dict[str, Any]] = None      # gateway only
    microbatch: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": self.status,
            "api_version": CURRENT_API_VERSION,
            "designs": self.designs,
        }
        if self.corners is not None and len(self.corners) > 1:
            out["corners"] = list(self.corners)
        out["model"] = self.model
        out["uptime_s"] = self.uptime_s
        if self.fleet is not None:
            out["fleet"] = self.fleet
        if self.microbatch is not None:
            out["microbatch"] = self.microbatch
        return out


__all__ = [
    "ApiError",
    "CURRENT_API_VERSION",
    "CornerReport",
    "DesignInfo",
    "HealthResponse",
    "PredictRequest",
    "PredictResponse",
    "SUPPORTED_API_VERSIONS",
    "WhatifRequest",
    "WhatifResponse",
    "error_wire",
    "negotiate_version",
    "worst_corner_wire",
]
