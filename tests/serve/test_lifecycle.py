"""Session lifecycle: DELETE /designs/<id>, idle-TTL eviction, release.

The eviction path must behave identically on both gateway backends (the
in-process ``--workers 0`` backend and the multi-process fleet), and
closing a session must actually release what it pinned: plan-cache
entries, the cached baseline, and — for sessions that own their
predictor — the inference buffer arena.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import TimingPredictor
from repro.flow import run_flow
from repro.ml.plancache import PLAN_CACHE
from repro.serve.dispatch import ApiError, RequestDispatcher
from repro.serve.session import DesignSession

from tests.serve.conftest import FLOW_CONFIG, http_call, start_inprocess


@pytest.fixture
def own_session(fresh_flow, artifact_payload):
    """A session that owns its predictor (the --workers 0 shape)."""
    predictor = TimingPredictor.from_artifact(artifact_payload)
    return DesignSession(fresh_flow, predictor, seed=0)


# ----------------------------------------------------------------------
# Dispatcher-level semantics
# ----------------------------------------------------------------------
def test_delete_removes_session_and_404s_after(own_session):
    sessions = {"xgate": own_session}
    dispatcher = RequestDispatcher(sessions, max_concurrent=2)
    out = dispatcher.handle("DELETE", "/designs/xgate", None)
    assert out == {"design": "xgate", "deleted": True, "revision": 0,
                   "whatifs_served": 0}
    assert sessions == {}  # the dict is aliased, not copied
    status, payload = dispatcher.handle_to_wire("DELETE",
                                                "/designs/xgate", None)
    assert status == 404
    assert payload["error"]["code"] == "unknown_design"


def test_delete_unknown_design_is_the_canonical_404(own_session):
    dispatcher = RequestDispatcher({"xgate": own_session})
    with pytest.raises(ApiError) as err:
        dispatcher.handle("DELETE", "/designs/nosuch", None)
    assert err.value.status == 404
    assert "nosuch" in err.value.message and "xgate" in err.value.message


def test_close_releases_plan_cache_and_arena(own_session):
    own_session.predict()
    # The micro-batched serving path packs resident samples into
    # multi-design batches, which is what populates the plan cache with
    # this session's topology (pack-of-one reuses arrays as-is).
    own_session.predictor.predict_batch_arrays([own_session.sample] * 2)
    assert own_session.predictor._workspace.describe()["buffers"] > 0
    pid = id(own_session.sample.plans)
    assert any(pid in key for key in PLAN_CACHE._entries)

    own_session.close()
    assert own_session.predictor._workspace.describe()["buffers"] == 0
    assert not any(pid in key for key in PLAN_CACHE._entries)
    assert own_session._baseline is None
    own_session.close()  # idempotent


def test_shared_predictor_session_keeps_the_arena(fresh_flow,
                                                  served_predictor):
    """A batcher-backed session must not drop the shared arena."""
    session = DesignSession(fresh_flow, served_predictor, seed=0,
                            infer=served_predictor.predict_array)
    session.predict()
    buffers = served_predictor._workspace.describe()["buffers"]
    assert buffers > 0
    session.close()
    assert served_predictor._workspace.describe()["buffers"] == buffers


def test_idle_ttl_sweep_evicts_and_notifies(own_session):
    sessions = {"xgate": own_session}
    evicted = []
    dispatcher = RequestDispatcher(sessions, session_ttl_s=0.15,
                                   on_evict=evicted.append)
    out = dispatcher.handle("GET", "/health", None)
    assert out["designs"] == ["xgate"]

    time.sleep(0.3)
    out = dispatcher.handle("GET", "/health", None)
    assert out["designs"] == []
    assert evicted == ["xgate"]
    assert own_session._closed


def test_idle_ttl_skips_busy_sessions(own_session):
    sessions = {"xgate": own_session}
    dispatcher = RequestDispatcher(sessions, session_ttl_s=0.05)
    time.sleep(0.15)

    holding = threading.Event()
    done = threading.Event()

    def hold_lock():
        with own_session._lock:
            holding.set()
            done.wait(timeout=5.0)

    t = threading.Thread(target=hold_lock)
    t.start()
    assert holding.wait(timeout=5.0)
    try:
        dispatcher.handle("GET", "/health", None)
        assert "xgate" in sessions, "busy session must not be evicted"
        assert not own_session._closed
    finally:
        done.set()
        t.join()
    # Idle again: the next request sweeps it out.
    dispatcher.handle("GET", "/health", None)
    assert "xgate" not in sessions


# ----------------------------------------------------------------------
# Backend differential over HTTP: --workers 0 vs the fleet
# ----------------------------------------------------------------------
def _inproc_server(artifact_payload, flows):
    sessions = {
        name: DesignSession(flow,
                            TimingPredictor.from_artifact(artifact_payload),
                            seed=0)
        for name, flow in flows.items()}
    return start_inprocess(sessions, threads=2, deadline_s=20.0)


def test_delete_route_differential(artifact_payload, fleet_gateway):
    """Identical (status, body) for the DELETE lifecycle on both
    backends: unknown design, successful delete, repeat delete, and
    the post-delete predict 404."""
    flows = {d: run_flow(d, FLOW_CONFIG) for d in ("xgate", "steelcore")}
    server = _inproc_server(artifact_payload,
                            {d: run_flow(d, FLOW_CONFIG) for d in flows})
    gateway = fleet_gateway(flows, workers=2)
    try:
        script = [
            ("DELETE", "/designs/nosuch", None),
            ("DELETE", "/designs/xgate", None),
            ("DELETE", "/designs/xgate", None),   # repeat → 404
            ("POST", "/predict", {"design": "xgate"}),
            ("DELETE", "/designs", None),         # no id → no_such_route
        ]
        for method, path, body in script:
            s_status, _, s_body = http_call(server.address, method, path,
                                            body)
            g_status, _, g_body = http_call(gateway.address, method, path,
                                            body)
            assert (g_status, g_body) == (s_status, s_body), (
                f"{method} {path} diverged: in-process "
                f"({s_status}, {s_body}) vs fleet ({g_status}, {g_body})")
        # The surviving design keeps serving over both transports.
        s_status, _, s_body = http_call(server.address, "POST", "/predict",
                                        {"design": "steelcore"})
        g_status, _, g_body = http_call(gateway.address, "POST",
                                        "/predict",
                                        {"design": "steelcore"})
        assert s_status == g_status == 200
        assert g_body["predictions"] == s_body["predictions"]
    finally:
        server.stop()


def test_fleet_forgets_evicted_design(fleet_gateway):
    flows = {d: run_flow(d, FLOW_CONFIG) for d in ("xgate", "steelcore")}
    gateway = fleet_gateway(flows, workers=2)
    status, _, body = http_call(gateway.address, "DELETE",
                                "/designs/xgate")
    assert status == 200 and body["deleted"] is True

    # Routing is gone fleet-wide: health and describe no longer list it.
    status, _, health = http_call(gateway.address, "GET", "/health")
    assert status == 200
    assert health["designs"] == ["steelcore"]
    assert "xgate" not in health["fleet"]["designs"]
    status, _, designs = http_call(gateway.address, "GET", "/designs")
    assert status == 200
    assert sorted(designs["designs"]) == ["steelcore"]
