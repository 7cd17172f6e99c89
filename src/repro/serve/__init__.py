"""Persistent what-if timing serving.

Layering (see DESIGN.md):

* :mod:`repro.serve.api` — the canonical typed request/response
  schemas and the API versioning rules (v1 legacy / v2 corner-aware).
* :class:`DesignSession` — one design's resident flow artifacts +
  prepared sample + incremental featurizer/STA; answers predictions and
  what-if edits (across every served sign-off corner) without
  re-running the flow.
* :class:`SessionFactory` — the single session-construction path shared
  by embedders, the fleet workers and the CLI bootstrap.
* :class:`PredictorRegistry` — validated, versioned model artifacts,
  served read-only; hands a fresh predictor instance to each session.
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
  worker processes that map one shared-memory model artifact).
"""

from repro.serve.api import (
    CURRENT_API_VERSION,
    LEGACY_API_VERSION,
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
from repro.serve.dispatch import API_VERSION, Deadline, RequestDispatcher
from repro.serve.factory import SessionFactory
from repro.serve.featurize import IncrementalFeaturizer
from repro.serve.fleet import (
    FleetConfig,
    FleetOverloaded,
    InProcessBackend,
    TimingFleet,
)
from repro.serve.gateway import TimingGateway
from repro.serve.registry import PredictorRegistry
from repro.serve.session import EDIT_OPS, DesignSession, Edit
from repro.serve.shm import SharedArtifact, ShmArtifactMeta, attach_artifact

__all__ = [
    "API_VERSION",
    "ApiError",
    "CURRENT_API_VERSION",
    "CornerReport",
    "Deadline",
    "DesignInfo",
    "DesignSession",
    "EDIT_OPS",
    "Edit",
    "FleetConfig",
    "FleetOverloaded",
    "HealthResponse",
    "InProcessBackend",
    "IncrementalFeaturizer",
    "LEGACY_API_VERSION",
    "MicroBatcher",
    "PredictRequest",
    "PredictResponse",
    "PredictorRegistry",
    "RequestDispatcher",
    "SessionFactory",
    "SharedArtifact",
    "ShmArtifactMeta",
    "SUPPORTED_API_VERSIONS",
    "TimingFleet",
    "TimingGateway",
    "WhatifRequest",
    "WhatifResponse",
    "attach_artifact",
]
