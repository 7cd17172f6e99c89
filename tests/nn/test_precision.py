"""Precision tiers: dtype propagation, fp64 bit-identity, artifacts.

The contracts under test (DESIGN.md "Precision & plan-cache tiers"):

* fp64 is the default and stays **bit-identical** across repeat
  forwards and a set-precision round trip;
* fp32 mode never silently upcasts — every intermediate and output of
  the GNN/CNN/fusion inference path is float32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.ml.batch import PackedBatch
from repro.nn import PRECISIONS


@pytest.fixture(scope="module")
def fitted(tiny_samples):
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=32),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit(tiny_samples)
    return predictor


# ----------------------------------------------------------------------
# Module-tree precision switching
# ----------------------------------------------------------------------
def test_precision_walks_the_module_tree(fitted):
    model = fitted.model
    assert model.precision == "fp64"
    model.set_inference_precision("fp32")
    for module in model.modules():
        assert module.precision == "fp32"
    model.set_inference_precision("fp64")
    for module in model.modules():
        assert module.precision == "fp64"


def test_unknown_precision_rejected(fitted):
    for mode in ("fp16", "int8"):
        with pytest.raises(ValueError):
            fitted.model.set_inference_precision(mode)
        assert mode not in PRECISIONS


def test_training_requires_fp64(fitted, tiny_samples):
    fitted.model.set_inference_precision("fp32")
    try:
        with pytest.raises(ValueError, match="fp64"):
            fitted.model.forward_batch(PackedBatch.pack(tiny_samples),
                                       training=True)
    finally:
        fitted.model.set_inference_precision("fp64")
        fitted.model.drain_caches()


# ----------------------------------------------------------------------
# dtype propagation (property test over the inference forwards)
# ----------------------------------------------------------------------
def _forward_dtypes(model, batch):
    """Run the packed inference forward recording every module output
    dtype (wrapping forward methods, no model changes)."""
    dtypes = []
    wrapped = []
    for module in model.modules():
        fwd = module.__dict__.get("forward", None)
        orig = module.forward

        def make(orig):
            def spy(*args, **kwargs):
                out = orig(*args, **kwargs)
                if isinstance(out, np.ndarray):
                    dtypes.append(out.dtype)
                return out
            return spy

        module.forward = make(orig)
        wrapped.append((module, fwd, orig))
    try:
        pred = model.forward_batch(batch, training=False)
    finally:
        for module, had, orig in wrapped:
            if had is None:
                module.__dict__.pop("forward", None)
            else:
                module.__dict__["forward"] = had
    model.drain_caches()
    return pred, dtypes


def test_fp32_never_upcasts(fitted, tiny_samples):
    batch = PackedBatch.pack(tiny_samples)
    fitted.model.set_inference_precision("fp32")
    try:
        pred, dtypes = _forward_dtypes(fitted.model, batch)
    finally:
        fitted.model.set_inference_precision("fp64")
    assert pred.dtype == np.float32
    assert dtypes, "spy saw no module outputs"
    assert all(dt == np.float32 for dt in dtypes), (
        f"fp32 inference silently upcast: {sorted(set(map(str, dtypes)))}")


def test_fp64_intermediates_are_fp64(fitted, tiny_samples):
    batch = PackedBatch.pack(tiny_samples)
    pred, dtypes = _forward_dtypes(fitted.model, batch)
    assert pred.dtype == np.float64
    assert all(dt == np.float64 for dt in dtypes)


def test_fp32_predictions_end_to_end(fitted, tiny_samples):
    ref = [np.array(a)
           for a in fitted.predict_batch_arrays(tiny_samples)]
    fitted.set_precision("fp32")
    try:
        out = fitted.predict_batch_arrays(tiny_samples)
        for a, b in zip(ref, out):
            assert np.asarray(b).dtype == np.float32
            np.testing.assert_allclose(np.asarray(b, dtype=np.float64),
                                       a, rtol=1e-4, atol=5e-2)
    finally:
        fitted.set_precision("fp64")


# ----------------------------------------------------------------------
# fp64 bit-identity invariants
# ----------------------------------------------------------------------
def test_fp64_identical_after_precision_round_trip(fitted, tiny_samples):
    ref = [np.array(a)
           for a in fitted.predict_batch_arrays(tiny_samples)]
    for mode in ("fp32", "fp64"):
        fitted.set_precision(mode)
    out = fitted.predict_batch_arrays(tiny_samples)
    for a, b in zip(ref, out):
        np.testing.assert_array_equal(np.asarray(b), a)


def test_slab_reuse_across_forwards_stays_correct(fitted, tiny_samples):
    """Repeat warm forwards must not read stale stream-slab contents."""
    first = [np.array(a)
             for a in fitted.predict_batch_arrays(tiny_samples)]
    for _ in range(3):
        again = fitted.predict_batch_arrays(tiny_samples)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(np.asarray(b), a)


# ----------------------------------------------------------------------
# Artifact round trip (schema v4)
# ----------------------------------------------------------------------
def test_fp64_artifact_round_trip_unchanged(fitted, tiny_samples):
    ref = [np.array(a)
           for a in fitted.predict_batch_arrays(tiny_samples)]
    clone = TimingPredictor.from_artifact(fitted.to_artifact())
    assert clone.precision == "fp64"
    out = clone.predict_batch_arrays(tiny_samples)
    for a, b in zip(ref, out):
        np.testing.assert_array_equal(np.asarray(b), a)
