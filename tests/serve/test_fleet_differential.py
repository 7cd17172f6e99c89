"""Differential test: the fleet is bit-identical to the in-process path.

The same request stream is driven over real HTTP through the gateway
in front of

* the in-process backend (``repro serve --workers 0``): sessions +
  micro-batcher + ``RequestDispatcher`` on a thread pool, and
* the sharded fleet (``--workers 4``): worker processes mapping the
  shared-memory artifact,

and every response is compared **exactly** — float-for-float on
predictions, byte-for-byte on error bodies.  Only volatile wall-clock
fields (``latency_ms``, ``uptime_s``) and transport-level metadata are
normalized away.

This works because both paths share the layers that matter: the same
``RequestDispatcher`` routes, the same ``DesignSession`` re-featurizes,
the same ``MicroBatcher``/``PackedBatch`` computes, and the worker's
weights are read-only views of the same float64 arrays the in-process
predictor loads.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import TimingPredictor
from repro.flow import run_flow
from repro.serve import DesignSession, MicroBatcher

from .conftest import FLOW_CONFIG, http_call, start_inprocess

DESIGNS = ("xgate", "chacha")

#: The request stream: every route, happy paths and error paths, with
#: state mutation (committed what-ifs) interleaved so later responses
#: depend on earlier ones being applied identically on both sides.
STREAM = [
    ("POST", "/predict", {"design": "xgate"}),
    ("POST", "/predict", {"design": "chacha"}),
    ("POST", "/whatif", {"design": "xgate",
                         "edits": [{"op": "move", "cell": 1,
                                    "x": 4.0, "y": 4.0}]}),
    ("POST", "/predict", {"design": "xgate"}),      # whatif was pure
    ("POST", "/whatif", {"design": "xgate", "commit": True,
                         "edits": [{"op": "move", "cell": 1,
                                    "x": 5.0, "y": 5.0}]}),
    ("POST", "/predict", {"design": "xgate"}),      # committed state
    ("POST", "/whatif", {"design": "chacha", "commit": True,
                         "edits": [{"op": "move", "cell": 2,
                                    "x": 1.0, "y": 6.0},
                                   {"op": "move", "cell": 3,
                                    "x": 2.0, "y": 2.0}]}),
    ("POST", "/predict", {"design": "chacha"}),
    ("POST", "/whatif", {"design": "xgate", "commit": True,
                         "edits": [{"op": "move", "cell": 1,
                                    "x": 6.0, "y": 6.0}]}),
    ("POST", "/predict", {"design": "xgate"}),
    ("GET", "/designs", None),
    # Error paths must be byte-identical too.
    ("POST", "/predict", {"design": "nope"}),
    ("POST", "/predict", {"design": "xgate", "endpoints": "x"}),
    ("POST", "/whatif", {"design": "xgate", "edits": []}),
    ("POST", "/whatif", {"design": "xgate",
                         "edits": [{"op": "explode", "cell": 1}]}),
    ("POST", "/whatif", {"design": "xgate",
                         "edits": [{"op": "move", "cell": 999999,
                                    "x": 1.0, "y": 1.0}]}),
    ("GET", "/bogus", None),
]

_VOLATILE_KEYS = ("latency_ms", "uptime_s", "whatifs_served")


def _http_stream(address):
    out = []
    for method, path, body in STREAM:
        status, _, payload = http_call(address, method, path, body,
                                       timeout=60.0)
        out.append((status, payload))
    return out


def _normalize(payload):
    """Strip wall-clock fields; everything else must match exactly."""
    if isinstance(payload, dict):
        return {k: _normalize(v) for k, v in payload.items()
                if k not in _VOLATILE_KEYS}
    if isinstance(payload, list):
        return [_normalize(v) for v in payload]
    return payload


@pytest.fixture(scope="module")
def flows():
    return {d: run_flow(d, FLOW_CONFIG) for d in DESIGNS}


@pytest.fixture(scope="module")
def inprocess_responses(flows, artifact_payload):
    """The stream through the gateway over sessions + batcher +
    dispatcher in this process (workers 0)."""
    own_flows = {d: pickle.loads(pickle.dumps(f))
                 for d, f in flows.items()}
    predictor = TimingPredictor.from_artifact(
        copy.deepcopy(artifact_payload))
    batcher = MicroBatcher(predictor, max_batch=4, max_wait_s=2e-3)
    sessions = {d: DesignSession(f, predictor, seed=0,
                                 infer=batcher.submit)
                for d, f in own_flows.items()}
    gateway = start_inprocess(sessions, batcher=batcher, threads=2)
    try:
        return _http_stream(gateway.address)
    finally:
        gateway.stop(drain_timeout_s=15.0)


@pytest.fixture(scope="module")
def fleet_responses(flows, artifact_payload):
    """The same stream through the 4-worker fleet over real HTTP."""
    from repro.serve import FleetConfig, TimingFleet, TimingGateway

    fleet = TimingFleet(artifact_payload, flows,
                        FleetConfig(workers=4, threads=2, microbatch=4,
                                    deadline_s=20.0)).start()
    gateway = TimingGateway(fleet, port=0).start()
    try:
        return _http_stream(gateway.address)
    finally:
        gateway.stop(drain_timeout_s=15.0)


def test_stream_lengths(inprocess_responses, fleet_responses):
    assert len(inprocess_responses) == len(fleet_responses) == len(STREAM)


@pytest.mark.parametrize("idx", range(len(STREAM)),
                         ids=[f"{i:02d}-{m}{p}".replace("/", "_")
                              for i, (m, p, _) in enumerate(STREAM)])
def test_response_bit_identical(idx, inprocess_responses,
                                fleet_responses):
    method, path, body = STREAM[idx]
    in_status, in_payload = inprocess_responses[idx]
    fl_status, fl_payload = fleet_responses[idx]
    assert fl_status == in_status, (
        f"status diverged on {method} {path} ({body})")
    assert _normalize(fl_payload) == _normalize(in_payload), (
        f"payload diverged on {method} {path} ({body})")


def test_predictions_are_exact_floats(inprocess_responses,
                                      fleet_responses):
    """Spot-check the comparison has teeth: real float payloads, not
    empty dicts, and committed-state predictions present on both sides."""
    in_status, in_payload = inprocess_responses[9]   # predict after 2nd commit
    assert in_status == 200 and in_payload["revision"] == 2
    preds = in_payload["predictions"]
    assert len(preds) > 10
    assert all(isinstance(v, float) for v in preds.values())
    fl_preds = fleet_responses[9][1]["predictions"]
    assert fl_preds == preds  # exact, not approx
