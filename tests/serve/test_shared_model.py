"""One read-only predictor serves every session of a process, bit for bit.

``repro serve`` holds exactly one :class:`TimingPredictor` per process.
With ``--microbatch 1`` there is no batcher thread in front of it: the
request threads run the sessions' forwards on the shared model at the
same time.  That is safe only because inference writes no module state:

* every layer skips its backward caches under ``inference_mode``;
* fp32's effective weights are set once, at boot, before any request;
* a stream plan's scratch slabs belong to one session's pack, and that
  session's lock serializes their use.

The battery drives two designs, each from its own client thread with a
seeded stream of what-ifs (moves and resizes, commits included), into
one in-process server with two request threads and a shared model, at
one and three corners, in fp64 and fp32.  Every answer must equal, bit
for bit, the answer to the same per-design streams served one after
another.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import threading
from typing import Any, Dict, List, Tuple

import pytest

from repro.cli import main
from repro.core import ARTIFACT_SCHEMA_VERSION, TimingPredictor
from repro.flow import FlowConfig
from repro.serve import SessionFactory, TimingGateway

from .conftest import start_inprocess

DESIGNS = ("xgate", "steelcore")
THREE_CORNERS = ("base", "slow", "fast")
STEPS = 14
Request = Tuple[str, str, Any]


def _served(artifact: Dict[str, Any], precision: str) -> TimingPredictor:
    predictor = TimingPredictor.from_artifact(artifact)
    if precision != predictor.precision:
        predictor.set_precision(precision)
    return predictor.mark_read_only()


def _sessions(predictor: TimingPredictor, corners) -> Dict[str, Any]:
    factory = SessionFactory(
        lambda: predictor, corners=corners,
        flow_config=FlowConfig(scale=0.25, corners=corners or ("base",)))
    return {d: factory.open(d) for d in DESIGNS}


def _stream(session, seed: int) -> List[Request]:
    """Seeded what-ifs on *session*'s design: moves and resizes, every
    fourth one committed, with a prediction after each commit."""
    rng = random.Random(f"{session.name}/{seed}")
    netlist, die = session.netlist, session.placement.die
    lib = netlist.library
    cells = sorted(netlist.cells)
    resizes = []
    for cid in cells:
        ctype = lib.cell(netlist.cells[cid].type_name)
        resizes += [(cid, other.name)
                    for other in (lib.upsize(ctype), lib.downsize(ctype))
                    if other is not None]
    out: List[Request] = []
    for step in range(STEPS):
        edits = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                cid, target = rng.choice(resizes)
                edits.append({"op": "resize", "cell": cid, "type": target})
            else:
                edits.append({"op": "move",
                              "cell": rng.choice(cells),
                              "x": rng.uniform(0.0, die.width),
                              "y": rng.uniform(0.0, die.height)})
        commit = step % 4 == 3
        out.append(("POST", "/whatif", {"design": session.name,
                                        "edits": edits, "commit": commit}))
        if commit:
            out.append(("POST", "/predict", {"design": session.name}))
    return out


def _drive(address, requests: List[Request], start=None) -> List[Any]:
    """Send *requests* in order on one keep-alive connection."""
    conn = http.client.HTTPConnection(*address, timeout=60.0)
    if start is not None:
        start.wait()
    out = []
    try:
        for method, path, body in requests:
            conn.request(method, path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            reply = json.loads(resp.read())
            reply.pop("latency_ms", None)   # wall clock
            out.append((resp.status, reply))
    finally:
        conn.close()
    return out


def _serve(artifact, precision, corners, concurrent: bool):
    """Each design's answers to its stream, from a fresh server."""
    sessions = _sessions(_served(artifact, precision), corners)
    streams = {d: _stream(s, seed=0) for d, s in sessions.items()}
    gateway = start_inprocess(sessions, threads=2)
    try:
        if not concurrent:
            return {d: _drive(gateway.address, streams[d])
                    for d in DESIGNS}
        answers: Dict[str, Any] = {}
        start = threading.Barrier(len(DESIGNS))
        threads = [threading.Thread(
            target=lambda d=d: answers.__setitem__(
                d, _drive(gateway.address, streams[d], start)))
            for d in DESIGNS]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        return answers
    finally:
        gateway.stop(drain_timeout_s=15.0)


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("n_corners", [1, 3])
def test_concurrent_sessions_on_one_model_match_serial_streams(
        n_corners, precision, served_predictor, three_corner_predictor):
    if n_corners == 1:
        artifact, corners = served_predictor.to_artifact(), None
    else:
        artifact, corners = (three_corner_predictor.to_artifact(),
                             THREE_CORNERS)
    serial = _serve(artifact, precision, corners, concurrent=False)
    concurrent = _serve(artifact, precision, corners, concurrent=True)
    assert sorted(concurrent) == sorted(DESIGNS)
    for design in DESIGNS:
        assert len(concurrent[design]) == len(serial[design])
        for i, (got, want) in enumerate(zip(concurrent[design],
                                            serial[design])):
            assert got == want, f"{design} request {i} diverged"
    # The answers have teeth: every request succeeded, committed edits
    # moved the predictions, and every served corner was reported.
    for design, answers in serial.items():
        assert all(status == 200 for status, _ in answers), design
        predicts = [a for (_, a) in answers if "n_endpoints" in a]
        assert predicts[0]["predictions"] != predicts[-1]["predictions"]
        whatif = answers[0][1]
        if corners:
            assert sorted(whatif["corners"]) == sorted(corners)


@pytest.mark.parametrize("microbatch", [1, 8])
def test_a_served_process_holds_one_read_only_predictor(
        monkeypatch, tmp_path, served_predictor, microbatch):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    seen = {}
    serve_forever = TimingGateway.serve_forever

    def at_ready(gateway, *args, **kwargs):
        backend = gateway.fleet
        seen["model"] = gateway._health()["model"]
        seen["predictors"] = {id(s.predictor)
                              for s in backend.dispatcher.sessions.values()}
        batcher = backend.dispatcher.batcher
        if batcher is not None:
            seen["predictors"].add(id(batcher.predictor))
        predictor = next(iter(backend.dispatcher.sessions.values())).predictor
        seen["read_only"] = [not p.data.flags.writeable
                             for p in predictor.model.parameters()]
        gateway.request_drain()
        return serve_forever(gateway, *args, **kwargs)

    monkeypatch.setattr(TimingGateway, "serve_forever", at_ready)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        assert main(["serve", "--designs", *DESIGNS, "--scale", "0.2",
                     "--model", str(model), "--port", "0", "--workers", "0",
                     "--microbatch", str(microbatch),
                     "--precision", "fp32"]) == 0
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert len(seen["predictors"]) == 1
    assert seen["read_only"] and all(seen["read_only"])
    # /health's model block is read off that predictor, in this order.
    assert list(seen["model"].items()) == [
        ("name", "default"), ("path", str(model)),
        ("schema_version", ARTIFACT_SCHEMA_VERSION),
        ("variant", served_predictor.model_config.variant),
        ("map_bins", served_predictor.model_config.map_bins),
        ("precision", "fp32"),
        ("n_parameters", sum(p.data.size for p in
                             served_predictor.model.parameters()))]
