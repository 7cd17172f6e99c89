"""Multi-corner serving API: negotiation, typed schemas, MMMC what-ifs.

Covers the version negotiation rule from :mod:`repro.serve.api`, the
corner-aware dispatcher responses, ``SessionFactory`` wiring, and the
acceptance contract: one ``/whatif`` answers every served corner in a
single packed forward, bit-identical between the in-process dispatcher
and a worker fleet.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.flow import FlowConfig, run_flow
from repro.ml.dataset import build_corner_samples
from repro.serve import (
    FleetConfig,
    MicroBatcher,
    RequestDispatcher,
    SessionFactory,
    TimingFleet,
    TimingGateway,
    api,
)
from repro.serve.api import ApiError

from tests.serve.conftest import MAP_BINS, http_call

CORNERS = ("fast", "typ", "slow")
CORNER_FLOW_CONFIG = FlowConfig(scale=0.25, base_seed=0, corners=CORNERS)
EDIT = {"op": "move", "cell": 1, "x": 2.0, "y": 2.0}


# ---------------------------------------------------------------------------
# api module: negotiation rules


def test_negotiate_version_defaults_to_current():
    assert api.negotiate_version(None) == api.CURRENT_API_VERSION
    assert api.negotiate_version({}) == api.CURRENT_API_VERSION
    assert api.negotiate_version(
        {"api_version": "v2"}) == api.CURRENT_API_VERSION


def test_negotiate_version_rejects_unknown():
    for pinned in ("v9", "v1"):   # v1 is retired, not special
        with pytest.raises(ApiError) as exc:
            api.negotiate_version({"api_version": pinned})
        assert exc.value.status == 400
        assert exc.value.code == "unsupported_api_version"


def test_corner_field_must_be_string():
    with pytest.raises(ApiError):
        api.WhatifRequest.parse({"edits": [EDIT], "corner": 3})


def test_request_parse_preserves_legacy_errors():
    with pytest.raises(ApiError, match="'endpoints' must be a list"):
        api.PredictRequest.parse({"endpoints": 3})
    with pytest.raises(ApiError, match="'edits' must be a non-empty list"):
        api.WhatifRequest.parse({"edits": []})


# ---------------------------------------------------------------------------
# corner-aware dispatcher (in-process)


@pytest.fixture(scope="module")
def corner_flow():
    return run_flow("xgate", CORNER_FLOW_CONFIG)


@pytest.fixture(scope="module")
def corner_predictor(corner_flow):
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=MAP_BINS, corner_names=CORNERS),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit(build_corner_samples(corner_flow, map_bins=MAP_BINS,
                                       seed=0))
    return predictor


@pytest.fixture
def corner_dispatcher(corner_flow, corner_predictor):
    factory = SessionFactory(lambda: corner_predictor, corners=CORNERS)
    session = factory.open(pickle.loads(pickle.dumps(corner_flow)))
    return RequestDispatcher({"xgate": session},
                             model_info={"name": "corner"})


def test_health_advertises_v2_and_corners(corner_dispatcher):
    status, body = corner_dispatcher.handle_to_wire("GET", "/health", None)
    assert status == 200
    assert body["api_version"] == "v2"
    assert body["corners"] == list(CORNERS)


def test_designs_reports_served_corners(corner_dispatcher):
    _, body = corner_dispatcher.handle_to_wire("GET", "/designs", None)
    assert body["designs"]["xgate"]["corners"] == list(CORNERS)


def test_predict_reports_every_corner(corner_dispatcher):
    status, body = corner_dispatcher.handle_to_wire(
        "POST", "/predict", {"design": "xgate"})
    assert status == 200
    assert sorted(body["corners"]) == sorted(CORNERS)
    # Legacy block mirrors the primary (first) corner.
    assert body["predictions"] == body["corners"]["fast"]["predictions"]
    assert body["worst"]["corner"] == "slow"  # largest delay derate
    for report in body["corners"].values():
        assert report["wns"] <= 0 or report["tns"] == 0.0


def test_predict_corner_selection(corner_dispatcher):
    _, body = corner_dispatcher.handle_to_wire(
        "POST", "/predict", {"design": "xgate", "corner": "slow"})
    assert body["predictions"] == body["corners"]["slow"]["predictions"]


def test_predict_unknown_corner_is_400(corner_dispatcher):
    status, body = corner_dispatcher.handle_to_wire(
        "POST", "/predict", {"design": "xgate", "corner": "warp"})
    assert status == 400
    assert body["error"]["code"] == "unknown_corner"


def test_whatif_reports_every_corner(corner_dispatcher):
    status, body = corner_dispatcher.handle_to_wire(
        "POST", "/whatif", {"design": "xgate", "edits": [EDIT]})
    assert status == 200
    assert sorted(body["corners"]) == sorted(CORNERS)
    assert body["predictions"] == body["corners"]["fast"]["predictions"]
    assert body["worst"]["corner"] in CORNERS
    assert (body["corners"]["slow"]["wns"]
            <= body["corners"]["typ"]["wns"]
            <= body["corners"]["fast"]["wns"])


def test_whatif_commit_keeps_corner_baselines(corner_dispatcher):
    _, first = corner_dispatcher.handle_to_wire(
        "POST", "/whatif",
        {"design": "xgate", "edits": [EDIT], "commit": True})
    assert first["committed"] and first["revision"] == 1
    # A post-commit predict must serve the committed multi-corner state.
    _, pred = corner_dispatcher.handle_to_wire(
        "POST", "/predict", {"design": "xgate"})
    assert pred["revision"] == 1
    assert pred["corners"] == first["corners"]


def test_session_rejects_unknown_corner_names(corner_flow,
                                              corner_predictor):
    factory = SessionFactory(lambda: corner_predictor,
                             corners=("fast", "base"))
    with pytest.raises(ValueError, match="base"):
        factory.open(pickle.loads(pickle.dumps(corner_flow)))


def test_model_info_includes_corners(corner_predictor, served_predictor):
    assert corner_predictor.describe()["corners"] == list(CORNERS)
    assert "corners" not in served_predictor.describe()


# ---------------------------------------------------------------------------
# one packed forward for all corners; workers-0 == fleet, bit-identical


def test_all_corner_whatif_is_one_packed_forward(corner_flow,
                                                 corner_predictor):
    batcher = MicroBatcher(corner_predictor, max_batch=8, max_wait_s=1e-3)
    try:
        factory = SessionFactory(lambda: corner_predictor, batcher=batcher,
                                 corners=CORNERS)
        session = factory.open(pickle.loads(pickle.dumps(corner_flow)))
        session.predict()  # warm the baseline stack
        before = batcher.batches_run
        result = session.whatif([EDIT])
        # One call = one packed forward covering all three corners.
        assert batcher.batches_run - before == 1
        assert sorted(result["corners"]) == sorted(CORNERS)
    finally:
        batcher.stop()


def test_multi_corner_fleet_matches_in_process(corner_flow,
                                               corner_predictor,
                                               corner_dispatcher):
    stream = [
        ("POST", "/predict", {"design": "xgate"}),
        ("POST", "/whatif", {"design": "xgate", "edits": [EDIT]}),
        ("POST", "/whatif", {"design": "xgate", "edits": [EDIT],
                             "corner": "slow", "commit": True}),
        ("POST", "/predict", {"design": "xgate", "corner": "typ"}),
        ("POST", "/predict", {"design": "xgate", "corner": "warp"}),
    ]
    inproc = []
    for method, path, body in stream:
        status, payload = corner_dispatcher.handle_to_wire(
            method, path, dict(body))
        inproc.append((status, _stable(payload)))

    fleet = TimingFleet(
        TimingPredictor.from_artifact(corner_predictor.to_artifact()),
        {"xgate": corner_flow},
        FleetConfig(workers=2, threads=2, microbatch=4, deadline_s=20.0,
                    queue_depth=8, corners=CORNERS)).start()
    gateway = TimingGateway(fleet, port=0).start()
    try:
        status, _, health = http_call(gateway.address, "GET", "/health")
        assert health["api_version"] == "v2"
        assert health["corners"] == list(CORNERS)
        for (method, path, body), (want_status, want) in zip(stream,
                                                             inproc):
            status, _, payload = http_call(gateway.address, method, path,
                                           dict(body))
            assert status == want_status, (path, payload)
            assert _stable(payload) == want, path
    finally:
        gateway.stop(drain_timeout_s=15.0)


def _stable(payload):
    """Strip volatile fields (latency) for bit-exact comparison."""
    if isinstance(payload, dict):
        return {k: _stable(v) for k, v in payload.items()
                if k != "latency_ms"}
    return payload


# ---------------------------------------------------------------------------
# User-defined corners, end to end: parse specs -> flow -> fitted model
# -> dispatcher -> fleet workers re-registering the custom corner from
# the shipped specs (the `repro serve --corners name:V:T` round trip).

CUSTOM_SPECS = ("typ", "hot:0.93:1.2")


def test_custom_corner_serves_end_to_end():
    from repro.timing import CornerSet

    corner_set = CornerSet.parse(",".join(CUSTOM_SPECS))
    assert corner_set.specs == CUSTOM_SPECS
    flow = run_flow("xgate", FlowConfig(scale=0.25, base_seed=0,
                                        corners=corner_set.specs))
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=MAP_BINS,
                                 corner_names=corner_set.names),
        trainer_config=TrainerConfig(epochs=1))
    predictor.fit(build_corner_samples(flow, map_bins=MAP_BINS, seed=0))

    factory = SessionFactory(lambda: predictor, corners=corner_set.names)
    session = factory.open(pickle.loads(pickle.dumps(flow)))
    dispatcher = RequestDispatcher({"xgate": session},
                                   model_info={"name": "custom"})
    status, health = dispatcher.handle_to_wire("GET", "/health", None)
    assert status == 200
    assert health["corners"] == ["typ", "hot"]
    status, body = dispatcher.handle_to_wire(
        "POST", "/whatif",
        {"design": "xgate", "edits": [EDIT], "corner": "hot"})
    assert status == 200
    assert sorted(body["corners"]) == ["hot", "typ"]
    assert body["predictions"] == body["corners"]["hot"]["predictions"]
    want = _stable(body)

    # Fleet workers get the *specs* (a fresh process knows nothing about
    # "hot" until it re-parses them) — the answer must match bit for bit.
    fleet = TimingFleet(
        predictor, {"xgate": flow},
        FleetConfig(workers=1, threads=2, microbatch=4, deadline_s=20.0,
                    queue_depth=8, corners=corner_set.specs)).start()
    gateway = TimingGateway(fleet, port=0).start()
    try:
        status, _, payload = http_call(
            gateway.address, "POST", "/whatif",
            {"design": "xgate", "edits": [EDIT], "corner": "hot"})
        assert status == 200
        assert _stable(payload) == want
    finally:
        gateway.stop(drain_timeout_s=15.0)
