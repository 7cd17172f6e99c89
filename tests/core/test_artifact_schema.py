"""Versioned predictor artifacts: round-trip and rejection."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    ARTIFACT_SCHEMA_VERSION,
    ModelConfig,
    TimingPredictor,
    TrainerConfig,
)
from repro.core.predictor import ARTIFACT_FORMAT
from repro.nn import state_dict


@pytest.fixture(scope="module")
def fitted(tiny_sample) -> TimingPredictor:
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=32, variant="gnn"),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit([tiny_sample])
    return predictor


class TestRoundTrip:
    def test_save_load_roundtrip_predictions(self, fitted, tiny_sample,
                                             tmp_path):
        path = tmp_path / "model.pkl"
        fitted.save(path)
        loaded = TimingPredictor.load(path)
        assert loaded.predict(tiny_sample) == fitted.predict(tiny_sample)
        assert loaded.model_config == fitted.model_config

    def test_artifact_is_plain_data(self, fitted):
        """The payload must not pickle project classes (version-fragile)."""
        payload = fitted.to_artifact()
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert isinstance(payload["model_config"], dict)
        assert isinstance(payload["norm"], dict)
        assert set(payload["norm"]) == {"mean", "std"}

    def test_describe_reports_the_loaded_artifact(self, fitted, tmp_path):
        path = tmp_path / "model.pkl"
        fitted.save(path)
        meta = TimingPredictor.load(path).describe(str(path))
        assert meta == {
            "path": str(path),
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "variant": fitted.model_config.variant,
            "map_bins": fitted.model_config.map_bins,
            "precision": "fp64",
            "n_parameters": sum(a.size for a in state_dict(fitted.model)),
        }
        assert fitted.describe()["path"] == "<memory>"

    def test_unfitted_predictor_refuses_to_save(self, tmp_path):
        predictor = TimingPredictor(ModelConfig(map_bins=32))
        with pytest.raises(ValueError, match="fit"):
            predictor.save(tmp_path / "model.pkl")


class TestRejection:
    def test_future_schema_version_rejected(self, fitted, tmp_path):
        payload = fitted.to_artifact()
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        path = tmp_path / "future.pkl"
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(ValueError) as exc_info:
            TimingPredictor.load(path)
        # The error must be actionable: name the versions and the file.
        message = str(exc_info.value)
        assert str(ARTIFACT_SCHEMA_VERSION + 1) in message
        assert str(ARTIFACT_SCHEMA_VERSION) in message
        assert "future.pkl" in message

    def test_non_dict_payload_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as fh:
            pickle.dump([1, 2, 3], fh)
        with pytest.raises(ValueError, match="not a .* artifact"):
            TimingPredictor.load(path)

    def test_payload_missing_model_config_rejected(self, fitted):
        payload = fitted.to_artifact()
        del payload["model_config"]
        with pytest.raises(ValueError):
            TimingPredictor.from_artifact(payload)


def _legacy(fitted):
    """The pre-versioning format: pickled ModelConfig + (mean, std)."""
    return {"model_config": fitted.model_config,
            "state": state_dict(fitted.model),
            "norm": (fitted.trainer.norm.mean, fitted.trainer.norm.std)}


def _older(version):
    def make(fitted):
        payload = fitted.to_artifact()
        payload["schema_version"] = version
        return payload
    return make


def _int8_entry(fitted):
    payload = fitted.to_artifact()
    w = payload["state"][0]
    payload["state"][0] = {"quant": "int8-perchannel",
                           "q": np.zeros(w.shape, dtype=np.int8),
                           "scale": np.ones(w.shape[0])}
    return payload


def _without_norm(fitted):
    payload = fitted.to_artifact()
    del payload["norm"]
    return payload


def _unknown_config_key(fitted):
    payload = fitted.to_artifact()
    payload["model_config"]["no_such_field"] = 1
    return payload


def _truncated(fitted):
    blob = pickle.dumps(fitted.to_artifact())
    return blob[:len(blob) // 2]


#: Every artifact the loader must refuse, as a payload to pickle or as
#: the raw file bytes.
UNLOADABLE = {
    "legacy": _legacy,
    "v2": _older(2),
    "v3": _older(3),
    "int8-entry": _int8_entry,
    "missing-norm": _without_norm,
    "unknown-config-key": _unknown_config_key,
    "truncated": _truncated,
    "garbage": lambda fitted: b"this is not a pickle",
}


@pytest.mark.parametrize("case", sorted(UNLOADABLE))
def test_unloadable_artifact_raises_value_error_naming_file(
        case, fitted, tmp_path):
    content = UNLOADABLE[case](fitted)
    path = tmp_path / f"{case}.pkl"
    path.write_bytes(content if isinstance(content, bytes)
                     else pickle.dumps(content))
    with pytest.raises(ValueError) as exc_info:
        TimingPredictor.load(path)
    message = str(exc_info.value)
    assert message.startswith(f"{path}: "), message
    assert "re-train" in message


class TestDefaultConfigIsolation:
    """Guards the definition-time-default bug: each instance must get its
    own freshly constructed config object."""

    def test_predictor_default_configs_are_fresh_per_instance(self):
        a = TimingPredictor()
        b = TimingPredictor()
        assert a.model_config == b.model_config
        assert a.model_config is not b.model_config
        assert a.trainer.config is not b.trainer.config

    def test_flow_config_default_is_fresh_per_call(self):
        import inspect

        from repro.flow import run_flow

        # No signature in the codebase may carry a mutable/dataclass
        # default constructed at definition time.
        sig = inspect.signature(run_flow)
        default = sig.parameters["config"].default
        assert default is None
