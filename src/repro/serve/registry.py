"""Versioned model-artifact registry for serving.

The registry sits between the artifact files on disk and the sessions
that serve them:

* ``register(name, path)`` validates an artifact eagerly — schema
  version, payload shape, instantiability — so a bad file fails at
  startup with a ``ValueError`` naming it, not on the first request;
* ``acquire(name)`` hands out a **fresh** :class:`TimingPredictor` built
  from the cached payload.  The payload is read and validated once and
  then served read-only; each session gets its own instance because the
  model's forward pass keeps per-layer caches and is therefore not
  shareable across concurrently running sessions.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.predictor import (
    ARTIFACT_SCHEMA_VERSION,
    TimingPredictor,
    read_artifact,
)
from repro.obs import get_metrics
from repro.utils import get_logger, require

logger = get_logger("serve.registry")


class PredictorRegistry:
    """Thread-safe name → validated artifact payload map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._payloads: Dict[str, Any] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, path: Path) -> Dict[str, Any]:
        """Load, validate and cache an artifact under *name*.

        Raises ``ValueError`` on a missing, unreadable or invalid
        artifact (anything but a dense schema-v4 payload; the message
        names the file).  Returns the artifact's metadata.
        """
        path = Path(path)
        require(path.exists(), f"predictor artifact not found: {path}")
        payload = read_artifact(path)
        # Instantiate once to validate schema + weights end to end.
        probe = TimingPredictor.from_artifact(payload, source=str(path))
        meta = self._store(name, str(path), payload, probe)
        get_metrics().counter("serve.registry.registered").inc()
        logger.info("registered predictor %r from %s (schema %s)", name,
                    path, meta["schema_version"])
        return meta

    def register_predictor(self, name: str,
                           predictor: TimingPredictor) -> Dict[str, Any]:
        """Register an in-memory fitted predictor (bootstrap mode)."""
        return self._store(name, "<memory>", predictor.to_artifact(),
                           predictor)

    def _store(self, name: str, path: str, payload: Any,
               predictor: TimingPredictor) -> Dict[str, Any]:
        """Cache *payload* under *name* with metadata read off
        *predictor* (the one metadata builder for both entry points)."""
        config = predictor.model_config
        meta = {
            "name": name,
            "path": path,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "variant": config.variant,
            "map_bins": config.map_bins,
            "precision": predictor.precision,
            "n_parameters": sum(p.data.size
                                for p in predictor.model.parameters()),
        }
        if config.n_corners > 1:
            meta["corners"] = list(config.corner_names)
        with self._lock:
            self._payloads[name] = payload
            self._meta[name] = meta
        return dict(meta)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._payloads)

    def describe(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Metadata for one artifact, or for all when *name* is None."""
        with self._lock:
            if name is not None:
                require(name in self._meta,
                        f"no registered predictor {name!r}")
                return dict(self._meta[name])
            return {n: dict(m) for n, m in self._meta.items()}

    def payload(self, name: str) -> Any:
        """The validated raw artifact payload (read-only by convention).

        The fleet's forked workers adopt its weight arrays by reference
        instead of acquiring a predictor each.
        """
        with self._lock:
            require(name in self._payloads,
                    f"no registered predictor {name!r} "
                    f"(have: {sorted(self._payloads) or 'none'})")
            return self._payloads[name]

    def acquire(self, name: str) -> TimingPredictor:
        """A fresh predictor instance backed by the cached payload."""
        with self._lock:
            require(name in self._payloads,
                    f"no registered predictor {name!r} "
                    f"(have: {sorted(self._payloads) or 'none'})")
            payload = self._payloads[name]
            source = self._meta[name]["path"]
        get_metrics().counter("serve.registry.acquired").inc()
        return TimingPredictor.from_artifact(payload, source=source)
