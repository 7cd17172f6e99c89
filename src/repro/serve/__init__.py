"""Persistent what-if timing serving.

Layering (see DESIGN.md):

* :mod:`repro.serve.api` — the canonical typed request/response
  schemas and the one wire version (v2, corner-aware).
* :class:`DesignSession` — one design's resident flow artifacts +
  prepared sample + incremental featurizer/STA; answers predictions and
  what-if edits (across every served sign-off corner) without
  re-running the flow.
* :class:`SessionFactory` — the single session-construction path shared
  by embedders, the fleet workers and the CLI bootstrap.
* :class:`RequestDispatcher` — transport-agnostic routing, slot
  accounting, per-request deadlines and structured errors; shared by the
  in-process backend and every fleet worker (bit-identical paths).
* :class:`MicroBatcher` — coalesces concurrent per-design inferences
  into one packed forward pass over the batch execution engine.
* :class:`TimingGateway` — the one HTTP transport: a ``selectors``-based
  async JSON-over-HTTP front end over one of two backends:
  :class:`InProcessBackend` (``repro serve --workers 0``: sessions in
  the gateway process, dispatched on a thread pool) or
  :class:`TimingFleet` (``--workers N``: requests sharded by design to
  worker processes that build their own designs and inherit the
  process's one read-only predictor by fork).
"""

from repro.serve.api import (
    CURRENT_API_VERSION,
    SUPPORTED_API_VERSIONS,
    ApiError,
    CornerReport,
    DesignInfo,
    HealthResponse,
    PredictRequest,
    PredictResponse,
    WhatifRequest,
    WhatifResponse,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.dispatch import Deadline, RequestDispatcher
from repro.serve.factory import SessionFactory
from repro.serve.featurize import IncrementalFeaturizer
from repro.serve.fleet import (
    FleetConfig,
    FleetOpenFailed,
    FleetOverloaded,
    InProcessBackend,
    TimingFleet,
)
from repro.serve.gateway import TimingGateway
from repro.serve.session import EDIT_OPS, DesignSession, Edit

__all__ = [
    "ApiError",
    "CURRENT_API_VERSION",
    "CornerReport",
    "Deadline",
    "DesignInfo",
    "DesignSession",
    "EDIT_OPS",
    "Edit",
    "FleetConfig",
    "FleetOpenFailed",
    "FleetOverloaded",
    "HealthResponse",
    "InProcessBackend",
    "IncrementalFeaturizer",
    "MicroBatcher",
    "PredictRequest",
    "PredictResponse",
    "RequestDispatcher",
    "SessionFactory",
    "SUPPORTED_API_VERSIONS",
    "TimingFleet",
    "TimingGateway",
    "WhatifRequest",
    "WhatifResponse",
]
