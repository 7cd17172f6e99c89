"""Serve-suite fixtures.

Sessions *mutate* the flow artifacts they own, so unlike the rest of the
suite these fixtures hand out fresh flows — the session-scoped
``tiny_flow`` must never be wrapped in a session.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.flow import FlowConfig, run_flow
from repro.serve import (
    FleetConfig,
    InProcessBackend,
    TimingFleet,
    TimingGateway,
)

MAP_BINS = 32
FLOW_CONFIG = FlowConfig(scale=0.25, base_seed=0)


def start_inprocess(sessions, *, batcher=None, model_info=None,
                    **config_overrides) -> TimingGateway:
    """The ``repro serve --workers 0`` stack on a free port: a gateway
    over an in-process backend.  The caller stops it."""
    config = dict(threads=2, deadline_s=20.0)
    config.update(config_overrides)
    backend = InProcessBackend(sessions, FleetConfig(workers=0, **config),
                               batcher=batcher)
    return TimingGateway(backend, port=0, model_info=model_info).start()


@pytest.fixture(scope="package")
def served_predictor(tiny_sample) -> TimingPredictor:
    """A small fitted predictor matching the tiny flows' resolution."""
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=MAP_BINS),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit([tiny_sample])
    return predictor


@pytest.fixture(scope="package")
def three_corner_predictor() -> TimingPredictor:
    """A small fitted predictor serving base, slow and fast."""
    from repro.ml import build_corner_samples

    corners = ("base", "slow", "fast")
    flow = run_flow("xgate", FlowConfig(scale=0.25, corners=corners))
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=MAP_BINS, corner_names=corners),
        trainer_config=TrainerConfig(epochs=1))
    predictor.fit(build_corner_samples(flow, map_bins=MAP_BINS))
    return predictor


@pytest.fixture
def fresh_flow():
    """A flow result a session may own (and mutate) exclusively."""
    return run_flow("xgate", FLOW_CONFIG)


@pytest.fixture(scope="package")
def artifact_payload(served_predictor):
    """The served predictor as a raw artifact payload (fleet input)."""
    return served_predictor.to_artifact()


@pytest.fixture(scope="package")
def fleet_predictor(artifact_payload) -> TimingPredictor:
    """A private copy of the served predictor to start a fleet with (a
    fleet marks its predictor's weights read-only)."""
    return TimingPredictor.from_artifact(artifact_payload)


@pytest.fixture
def fleet_gateway(fleet_predictor):
    """Factory: launch a fleet + gateway, torn down after the test.

    Workers receive *copies* of the flows over the pipe, so callers may
    pass shared flow fixtures without mutation concerns.
    """
    launched = []

    def launch(flows, *, workers=2, host="127.0.0.1", port=0,
               **config_overrides):
        defaults = dict(threads=2, microbatch=4, deadline_s=20.0,
                        queue_depth=8)
        defaults.update(config_overrides)
        config = FleetConfig(workers=workers, **defaults)
        fleet = TimingFleet(fleet_predictor, flows, config).start()
        gateway = TimingGateway(fleet, host=host, port=port).start()
        launched.append(gateway)
        return gateway

    yield launch
    for gateway in launched:
        gateway.stop(drain_timeout_s=15.0)


def http_call(address, method, path, body=None, timeout=30.0):
    """One HTTP request; returns ``(status, headers, parsed_body)``."""
    host, port = address
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
