"""Fleet workers' weights: inherited by fork, read-only, bit-identical.

The fleet's correctness story leans on three properties proven here: a
worker's model parameters *are* the payload arrays it was forked with
(one copy of the weights fleet-wide), they are read-only (a buggy worker
cannot corrupt its siblings' copy-on-write pages), and the forward pass
over them is bit-identical to a private predictor's.  The ``spawn``
fallback, whose payload arrives as writable unpickled copies, ends up
read-only too.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.serve import FleetConfig, TimingFleet
from repro.serve.worker import freeze_weights, shared_predictor, worker_main


def _copy(payload):
    """A private, writable copy of an artifact payload."""
    return pickle.loads(pickle.dumps(payload))


def _check_forked_worker_weights(conn, payload) -> None:
    """Runs in a forked child: build the model the way a worker does."""
    predictor = shared_predictor(payload, "fp64")
    params = predictor.model.parameters()
    conn.send({
        "n": len(params),
        "read_only": [not p.data.flags.writeable for p in params],
        "shared": [np.shares_memory(p.data, arr)
                   for p, arr in zip(params, payload["state"])],
    })
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_params_are_the_read_only_payload(artifact_payload):
    payload = freeze_weights(_copy(artifact_payload))
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_check_forked_worker_weights,
                       args=(child, payload))
    proc.start()
    child.close()
    try:
        assert parent.poll(60.0), "forked child never reported"
        report = parent.recv()
    finally:
        proc.join(timeout=10.0)
    assert proc.exitcode == 0
    assert report["n"] == len(payload["state"]) > 0
    assert all(report["read_only"])
    assert all(report["shared"])


def test_shared_params_alias_the_payload(artifact_payload):
    payload = freeze_weights(_copy(artifact_payload))
    predictor = shared_predictor(payload, "fp64")
    params = predictor.model.parameters()
    assert len(params) == len(payload["state"]) > 0
    for p, arr in zip(params, payload["state"]):
        assert p.data is arr
        assert np.shares_memory(p.data, arr)
        assert not p.data.flags.writeable


def test_shared_params_reject_writes(artifact_payload):
    payload = freeze_weights(_copy(artifact_payload))
    params = shared_predictor(payload, "fp64").model.parameters()
    assert params
    for p in params:
        assert not p.data.flags.writeable
    with pytest.raises(ValueError):
        params[0].data[...] = 0.0
    with pytest.raises(ValueError):
        payload["state"][0][...] = 0.0


def test_shared_params_bit_identical_to_artifact(artifact_payload):
    params = shared_predictor(freeze_weights(_copy(artifact_payload)),
                              "fp64").model.parameters()
    assert len(params) == len(artifact_payload["state"]) > 0
    for p, want in zip(params, artifact_payload["state"]):
        np.testing.assert_array_equal(p.data, want)


def test_shared_forward_bit_identical(artifact_payload, served_predictor,
                                      tiny_sample):
    shared = shared_predictor(freeze_weights(_copy(artifact_payload)),
                              "fp64")
    np.testing.assert_array_equal(
        shared.predict_array(tiny_sample),
        served_predictor.predict_array(tiny_sample))


def test_fleet_marks_the_payload_read_only_before_forking(
        artifact_payload):
    payload = _copy(artifact_payload)
    assert all(arr.flags.writeable for arr in payload["state"])
    fleet = TimingFleet(payload, {"xgate": "xgate"},
                        FleetConfig(workers=1))
    assert fleet.payload is payload  # never started: nothing to stop
    assert not any(arr.flags.writeable for arr in payload["state"])


def test_fleet_requires_a_state_payload():
    with pytest.raises(ValueError, match="'state'"):
        TimingFleet({"model_config": {}}, {"xgate": "xgate"},
                    FleetConfig(workers=1))


def test_spawn_pickled_payload_is_re_marked_read_only(artifact_payload):
    # What the spawn fallback hands a worker: unpickled, writable copies.
    payload = _copy(freeze_weights(_copy(artifact_payload)))
    assert all(arr.flags.writeable for arr in payload["state"])
    predictor = shared_predictor(payload, "fp64")
    assert not any(arr.flags.writeable for arr in payload["state"])
    assert not any(p.data.flags.writeable
                   for p in predictor.model.parameters())


def test_spawned_worker_reports_read_only_weights(artifact_payload):
    """The real spawn path: ``worker_main`` in a fresh interpreter."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=worker_main,
        args=(child, 0, FleetConfig(workers=1, threads=1, microbatch=1),
              freeze_weights(_copy(artifact_payload))),
        daemon=True)
    proc.start()
    child.close()
    try:
        parent.send(("describe", 1))
        assert parent.poll(120.0), "spawned worker never answered"
        kind, rid, info = parent.recv()
        parent.send(("stop",))
    finally:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert (kind, rid) == ("describe_reply", 1)
    assert info["weights_read_only"] is True
    assert info["designs"] == []
