"""Fleet workers' model: inherited by fork, read-only, bit-identical.

The fleet's correctness story leans on three properties proven here: a
worker's model parameters *are* the arrays of the predictor it was
forked with (one copy of the weights fleet-wide), they are read-only (a
buggy worker cannot corrupt its siblings' copy-on-write pages), and the
forward pass over them is bit-identical to a writable predictor's.  The
``spawn`` fallback, whose predictor arrives as a writable unpickled
copy, ends up read-only too.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core import TimingPredictor
from repro.serve import FleetConfig, TimingFleet
from repro.serve.worker import worker_main


def _read_only(artifact_payload) -> TimingPredictor:
    """A private predictor with read-only weights, as a fleet holds it."""
    return TimingPredictor.from_artifact(artifact_payload).mark_read_only()


def _check_forked_worker_weights(conn, predictor, gateway_ids) -> None:
    """Runs in a forked child: report on the predictor it inherited."""
    params = predictor.model.parameters()
    conn.send({
        "n": len(params),
        "read_only": [not p.data.flags.writeable for p in params],
        "inherited": [id(p.data) == want
                      for p, want in zip(params, gateway_ids)],
    })
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_params_are_the_gateways_read_only_arrays(
        artifact_payload):
    predictor = _read_only(artifact_payload)
    gateway_ids = [id(p.data) for p in predictor.model.parameters()]
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_check_forked_worker_weights,
                       args=(child, predictor, gateway_ids))
    proc.start()
    child.close()
    try:
        assert parent.poll(60.0), "forked child never reported"
        report = parent.recv()
    finally:
        proc.join(timeout=10.0)
    assert proc.exitcode == 0
    assert report["n"] == len(gateway_ids) > 0
    assert all(report["read_only"])
    assert all(report["inherited"])


def test_shared_params_reject_writes(artifact_payload):
    params = _read_only(artifact_payload).model.parameters()
    assert params
    for p in params:
        assert not p.data.flags.writeable
    with pytest.raises(ValueError):
        params[0].data[...] = 0.0


def test_shared_params_bit_identical_to_artifact(artifact_payload):
    params = _read_only(artifact_payload).model.parameters()
    assert len(params) == len(artifact_payload["state"]) > 0
    for p, want in zip(params, artifact_payload["state"]):
        np.testing.assert_array_equal(p.data, want)


def test_shared_forward_bit_identical(artifact_payload, served_predictor,
                                      tiny_sample):
    shared = _read_only(artifact_payload)
    np.testing.assert_array_equal(
        shared.predict_array(tiny_sample),
        served_predictor.predict_array(tiny_sample))


def test_fleet_marks_the_weights_read_only_before_forking(
        artifact_payload):
    predictor = TimingPredictor.from_artifact(artifact_payload)
    params = predictor.model.parameters()
    assert all(p.data.flags.writeable for p in params)
    fleet = TimingFleet(predictor, {"xgate": "xgate"},
                        FleetConfig(workers=1))
    assert fleet.predictor is predictor  # never started: nothing to stop
    assert not any(p.data.flags.writeable for p in params)


def test_spawn_pickled_payload_is_re_marked_read_only(artifact_payload):
    """What the spawn fallback hands a worker: an unpickled, writable
    copy of the fleet's read-only predictor; ``worker_main`` marks it
    again before it serves (see the spawned worker below)."""
    copy = pickle.loads(pickle.dumps(_read_only(artifact_payload)))
    params = copy.model.parameters()
    assert all(p.data.flags.writeable for p in params)
    assert copy.mark_read_only() is copy
    assert not any(p.data.flags.writeable for p in params)


def test_spawned_worker_reports_read_only_weights(artifact_payload):
    """The real spawn path: ``worker_main`` in a fresh interpreter."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=worker_main,
        args=(child, 0, FleetConfig(workers=1, threads=1, microbatch=1),
              _read_only(artifact_payload)),
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
