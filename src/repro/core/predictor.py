"""High-level predictor API: fit / predict / save / load.

This is the library's front door for the paper's use case: train once on a
set of completed flows, then evaluate fresh placements in milliseconds
instead of running optimization + routing + sign-off STA (Table III).
"""

from __future__ import annotations

import pickle
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.fusion import ModelConfig, RestructureTolerantModel
from repro.core.trainer import LabelNorm, Trainer, TrainerConfig
from repro.flow import FlowResult
from repro.ml.batch import PackedBatch
from repro.ml.sample import DesignSample
from repro.nn import PRECISIONS, load_state_dict, state_dict
from repro.obs import get_metrics, get_tracer
from repro.utils import require

#: Version of the on-disk predictor artifact, the only one this build
#: reads or writes.  A v4 payload is plain data: the ``ModelConfig``
#: fields as a dict (including the MMMC ``corner_names`` /
#: ``corner_embed``), the dense fp64 ``state`` arrays, the label ``norm``
#: and the serving ``precision``.  Bump on any payload layout change;
#: older artifacts are rejected and must be re-trained or re-saved.
ARTIFACT_SCHEMA_VERSION = 4
ARTIFACT_FORMAT = "repro.timing-predictor"

#: Declared differential-tolerance budget of the fp32 inference tier
#: against the bit-exact fp64 default, on denormalized arrival times
#: (ps).  Measured headroom on the golden flows is ~10× tighter; the
#: budget is enforced in ``tests/nn/test_precision.py`` and the
#: ``precision-smoke`` CI job (see DESIGN.md "Precision & plan-cache tiers").
FP32_TOLERANCE = {"rtol": 1e-4, "atol": 5e-2}


class TimingPredictor:
    """Restructure-tolerant pre-routing timing predictor."""

    def __init__(self, model_config: Optional[ModelConfig] = None,
                 trainer_config: Optional[TrainerConfig] = None) -> None:
        # Defaults are constructed per instance (a `= ModelConfig()`
        # default would be evaluated once at definition time and shared
        # by every default-constructed predictor).
        self.model_config = model_config or ModelConfig()
        self.model = RestructureTolerantModel(self.model_config)
        self.trainer = Trainer(self.model, trainer_config or TrainerConfig())
        self.infer_times: Dict[str, float] = {}
        self.precision = "fp64"
        # Streaming chunk-size hint: when set, inference over samples that
        # carry no hint of their own streams chunk-by-chunk (see
        # repro.timing.partition).  Bit-identical outputs either way.
        self.partition_pins: Optional[int] = None

    def set_partition(self, partition_pins: Optional[int]) -> None:
        """Set (or clear) the streaming chunk-size hint for inference."""
        if partition_pins is not None:
            require(partition_pins > 0, "partition_pins must be positive")
        self.partition_pins = partition_pins

    def _stamp_partition(self, sample_or_batch) -> None:
        """Propagate the predictor-level hint unless the object has one."""
        if (self.partition_pins is not None
                and getattr(sample_or_batch, "partition_pins", None) is None):
            sample_or_batch.partition_pins = self.partition_pins

    def set_precision(self, mode: str) -> None:
        """Switch the inference tier: ``fp64`` (bit-exact default) or
        ``fp32`` (single-precision end to end, tolerance-budgeted)."""
        require(mode in PRECISIONS,
                f"unknown precision {mode!r} (expected one of {PRECISIONS})")
        self.model.set_inference_precision(mode)
        self.precision = mode
        get_metrics().gauge("model.precision_bits").set(
            {"fp64": 64, "fp32": 32}[mode])

    def mark_read_only(self) -> "TimingPredictor":
        """Make every parameter array read-only; returns the predictor.

        A served predictor is shared by every session of its process
        (and inherited by fork by every fleet worker): inference only
        reads the weights, so a write is a bug and raises instead.
        """
        for p in self.model.parameters():
            p.data.flags.writeable = False
        return self

    def describe(self, path: str = "<memory>") -> Dict[str, Any]:
        """The served model's metadata; *path* is the artifact it came
        from (``<memory>`` for a bootstrapped predictor)."""
        config = self.model_config
        meta = {
            "path": path,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "variant": config.variant,
            "map_bins": config.map_bins,
            "precision": self.precision,
            "n_parameters": sum(p.data.size
                                for p in self.model.parameters()),
        }
        if config.n_corners > 1:
            meta["corners"] = list(config.corner_names)
        return meta

    # ------------------------------------------------------------------
    def fit(self, train_samples: List[DesignSample]) -> None:
        """Train on prepared samples (see :func:`repro.ml.build_dataset`)."""
        self.trainer.fit(train_samples)

    def preprocess(self, flow: FlowResult, seed: int = 0) -> DesignSample:
        """Flow result → sample (timed into ``sample.preprocess_time``)."""
        # Local import: repro.ml.dataset itself imports repro.core.masking.
        from repro.ml.dataset import build_sample

        return build_sample(flow, map_bins=self.model_config.map_bins,
                            seed=seed, partition_pins=self.partition_pins)

    def predict(self, sample: DesignSample) -> Dict[int, float]:
        """Sign-off endpoint arrival prediction, keyed by endpoint pin id.

        Inference wall-clock is recorded in ``infer_times[sample.name]``
        (the "infer" column of Table III) via a ``model.infer`` span.
        """
        pred = self._timed_infer(sample)
        return {int(p): float(v)
                for p, v in zip(sample.endpoint_pins, pred)}

    def predict_array(self, sample: DesignSample) -> np.ndarray:
        """Prediction aligned with ``sample.y`` (evaluation convenience)."""
        return self._timed_infer(sample)

    def predict_batch(self, samples: Sequence[DesignSample]
                      ) -> List[Dict[int, float]]:
        """Batched inference: N designs through ONE packed forward pass.

        Returns one ``{endpoint pin id: predicted arrival (ps)}`` dict per
        input sample, in order.  Equivalent to calling :meth:`predict`
        per design (to fp round-off — see ``tests/ml/test_batch.py``) but
        substantially faster: the designs are disjoint-unioned into a
        :class:`~repro.ml.batch.PackedBatch`, so the per-level GNN sweep,
        the CNN convolutions and the regressor all run once on wide
        tensors instead of once per design.
        """
        arrays = self.predict_batch_arrays(samples)
        return [{int(p): float(v)
                 for p, v in zip(s.endpoint_pins, a)}
                for s, a in zip(samples, arrays)]

    def predict_batch_arrays(self, samples: Sequence[DesignSample]
                             ) -> List[np.ndarray]:
        """Like :meth:`predict_batch`, returning ``sample.y``-aligned arrays."""
        samples = list(samples)
        batch = PackedBatch.pack(samples)
        self._stamp_partition(batch)
        sp = get_tracer().span("model.infer_batch", stage="infer",
                               designs=batch.n_samples,
                               endpoints=batch.n_endpoints)
        with sp:
            preds = self.trainer.predict_packed(batch)
        # Amortized per-design wall clock (the "infer" column of Table
        # III still gets one number per design).
        share = sp.duration / max(batch.n_samples, 1)
        for s in samples:
            self.infer_times[s.name] = share
        metrics = get_metrics()
        metrics.counter("model.inferences").inc(batch.n_samples)
        metrics.counter("model.batch_inferences").inc()
        metrics.histogram("model.batch.designs").observe(batch.n_samples)
        metrics.histogram("model.batch.endpoints").observe(
            batch.n_endpoints)
        if sp.duration > 0:
            metrics.gauge("model.batch.endpoints_per_s").set(
                batch.n_endpoints / sp.duration)
        return preds

    def _timed_infer(self, sample: DesignSample) -> np.ndarray:
        sp = get_tracer().span("model.infer", stage="infer",
                               design=sample.name)
        self._stamp_partition(sample)
        with sp:
            pred = self.trainer.predict(sample)
        self.infer_times[sample.name] = sp.duration
        get_metrics().counter("model.inferences").inc()
        return pred

    # ------------------------------------------------------------------
    def to_artifact(self, precision: Optional[str] = None) -> Dict[str, Any]:
        """The versioned, plain-data artifact payload (schema v4).

        Everything is stdlib/numpy data — no repro classes are pickled,
        so saved artifacts keep loading across dataclass refactors.

        *precision* defaults to the predictor's active tier.  The state
        always holds the fp64 master weights — fp32 is a serving tier,
        not a storage format, so switching back stays lossless.
        """
        require(self.trainer.norm is not None, "fit() before save()")
        precision = precision or self.precision
        require(precision in PRECISIONS,
                f"unknown precision {precision!r} "
                f"(expected one of {PRECISIONS})")
        return {
            "format": ARTIFACT_FORMAT,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "model_config": asdict(self.model_config),
            "state": state_dict(self.model),
            "norm": {"mean": self.trainer.norm.mean,
                     "std": self.trainer.norm.std},
            "precision": precision,
        }

    def save(self, path: Path, precision: Optional[str] = None) -> None:
        """Persist config, weights and label normalization (schema v4)."""
        with open(path, "wb") as fh:
            pickle.dump(self.to_artifact(precision=precision), fh)

    @classmethod
    def from_artifact(cls, payload: Any,
                      source: str = "<memory>") -> "TimingPredictor":
        """Reconstruct a predictor from a schema-v4 artifact payload.

        Anything else — the legacy unversioned pickle, a v2/v3 payload,
        a v4 payload carrying the removed int8 ``{"quant", "q",
        "scale"}`` weight entries, or a v4 payload with missing or
        mistyped fields — raises one :class:`ValueError` that names
        *source* and says to re-train or re-save the predictor.
        """
        if not isinstance(payload, dict) or "model_config" not in payload:
            raise _invalid_artifact(
                source, "not a repro predictor artifact (expected a dict "
                "payload with a 'model_config' entry)")
        version = payload.get("schema_version")
        if version != ARTIFACT_SCHEMA_VERSION:
            found = ("the legacy unversioned format" if version is None
                     else f"schema_version {version!r}")
            raise _invalid_artifact(
                source, f"predictor artifact uses {found}, but this build "
                f"reads only schema_version {ARTIFACT_SCHEMA_VERSION}")
        state = payload.get("state")
        if isinstance(state, list) and any(isinstance(e, dict)
                                           for e in state):
            raise _invalid_artifact(
                source, "predictor artifact carries int8-quantized weight "
                "entries, a tier this build no longer serves")
        try:
            predictor = cls(model_config=ModelConfig(
                **payload["model_config"]))
            load_state_dict(predictor.model, state)
            predictor.trainer.norm = LabelNorm(
                mean=payload["norm"]["mean"], std=payload["norm"]["std"])
            precision = payload.get("precision", "fp64")
            if precision != "fp64":
                predictor.set_precision(precision)
        except (KeyError, TypeError, ValueError) as exc:
            raise _invalid_artifact(
                source, f"malformed schema_version {ARTIFACT_SCHEMA_VERSION} "
                f"payload ({type(exc).__name__}: {exc})") from exc
        return predictor

    @classmethod
    def load(cls, path: Path) -> "TimingPredictor":
        """Load a saved schema-v4 artifact (see :meth:`from_artifact`)."""
        return cls.from_artifact(read_artifact(path), source=str(path))


def read_artifact(path: Path) -> Any:
    """Unpickle an artifact file; a corrupt one raises ``ValueError``.

    Only the unpickling is guarded: a missing or unreadable file still
    raises the ``OSError`` that ``open`` gives.
    """
    with open(path, "rb") as fh:
        try:
            return pickle.load(fh)
        except Exception as exc:  # truncated pickle, EOFError, garbage, ...
            raise _invalid_artifact(
                str(path), f"unreadable predictor artifact "
                f"({type(exc).__name__}: {exc})") from exc


def _invalid_artifact(source: str, reason: str) -> ValueError:
    """The one artifact-rejection error: ``<source>: <reason>; <fix>``."""
    return ValueError(f"{source}: {reason}; re-train the predictor, or "
                      "re-save it with a build that still reads it")
