"""HTTP front-end tests on ``--workers 0``: routes, structured errors,
concurrency (the gateway over the in-process backend)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import DesignSession


@pytest.fixture(scope="module")
def server(request, served_predictor):
    from repro.flow import run_flow

    from .conftest import FLOW_CONFIG, start_inprocess

    flow = run_flow("xgate", FLOW_CONFIG)
    session = DesignSession(flow, served_predictor)
    srv = start_inprocess({"xgate": session}, threads=4, deadline_s=30.0,
                          model_info={"name": "test-model"})
    request.addfinalizer(srv.stop)
    return srv


def call(server, method, path, body=None, timeout=30.0):
    host, port = server.address
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def make_move_edit(server):
    session = server.fleet.flows["xgate"]
    cid = next(iter(session.netlist.cells))
    return {"op": "move", "cell": cid, "x": 1.0, "y": 1.0}


class TestRoutes:
    def test_health(self, server):
        status, body = call(server, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["designs"] == ["xgate"]
        assert body["model"] == {"name": "test-model"}
        assert body["api_version"] == "v1"

    def test_designs(self, server):
        status, body = call(server, "GET", "/designs")
        assert status == 200
        info = body["designs"]["xgate"]
        assert info["endpoints"] > 0 and info["cells"] > 0

    def test_predict(self, server):
        status, body = call(server, "POST", "/predict",
                            {"design": "xgate"})
        assert status == 200
        assert body["n_endpoints"] == len(body["predictions"])
        assert all(isinstance(v, float)
                   for v in body["predictions"].values())

    def test_predict_defaults_to_single_design(self, server):
        status, body = call(server, "POST", "/predict", {})
        assert status == 200 and body["design"] == "xgate"

    def test_predict_subset(self, server):
        _, full = call(server, "POST", "/predict", {"design": "xgate"})
        some = [int(p) for p in list(full["predictions"])[:2]]
        status, body = call(server, "POST", "/predict",
                            {"design": "xgate", "endpoints": some})
        assert status == 200 and body["n_endpoints"] == 2

    def test_whatif_uncommitted_is_pure(self, server):
        _, before = call(server, "POST", "/predict", {"design": "xgate"})
        status, body = call(server, "POST", "/whatif",
                            {"design": "xgate",
                             "edits": [make_move_edit(server)]})
        assert status == 200
        assert body["committed"] is False
        assert body["shift"]["endpoints_changed"] > 0
        assert body["latency_ms"] > 0
        _, after = call(server, "POST", "/predict", {"design": "xgate"})
        assert after["predictions"] == before["predictions"]

    def test_metrics_report_latency(self, server):
        call(server, "POST", "/predict", {"design": "xgate"})
        status, body = call(server, "GET", "/metrics")
        assert status == 200
        summary = body["metrics"]["serve.latency_ms"]
        assert summary["count"] >= 1
        assert summary["p95"] >= summary["p50"] >= 0


class TestErrors:
    def test_unknown_design_404(self, server):
        status, body = call(server, "POST", "/predict",
                            {"design": "missing"})
        assert status == 404
        assert body["error"]["code"] == "unknown_design"
        assert "missing" in body["error"]["message"]

    def test_unknown_route_404(self, server):
        status, body = call(server, "GET", "/nope")
        assert status == 404 and body["error"]["code"] == "no_such_route"

    def test_empty_edits_400(self, server):
        status, body = call(server, "POST", "/whatif",
                            {"design": "xgate", "edits": []})
        assert status == 400 and body["error"]["code"] == "bad_request"

    def test_invalid_edit_400(self, server):
        status, body = call(server, "POST", "/whatif",
                            {"design": "xgate",
                             "edits": [{"op": "explode", "cell": 0}]})
        assert status == 400 and body["error"]["code"] == "bad_request"

    def test_malformed_json_400(self, server):
        host, port = server.address
        req = urllib.request.Request(
            f"http://{host}:{port}/predict", data=b"{not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30.0)
        assert exc_info.value.code == 400
        assert json.loads(exc_info.value.read()
                          )["error"]["code"] == "bad_json"

    def test_exceeded_deadline_504(self, server):
        status, body = call(server, "POST", "/predict",
                            {"design": "xgate", "deadline_s": 1e-9})
        assert status in (503, 504)
        assert body["error"]["code"] in ("overloaded",
                                         "deadline_exceeded")


class TestConcurrency:
    N_THREADS = 8
    PER_THREAD = 3

    def test_concurrent_predict_smoke(self, server):
        """N threads hammering /predict: every response valid and equal."""
        results, errors = [], []

        def worker():
            try:
                for _ in range(self.PER_THREAD):
                    status, body = call(server, "POST", "/predict",
                                        {"design": "xgate"})
                    assert status == 200
                    results.append(body["predictions"])
            except Exception as exc:  # noqa: BLE001 — collected for report
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not errors, errors
        assert len(results) == self.N_THREADS * self.PER_THREAD
        # The design never changed, so every response is identical.
        assert all(r == results[0] for r in results)

    def test_concurrent_mixed_traffic(self, server):
        """Interleaved whatif + predict stays consistent (one lock/session)."""
        edit = make_move_edit(server)
        errors = []

        def predictor():
            try:
                for _ in range(self.PER_THREAD):
                    status, _ = call(server, "POST", "/predict",
                                     {"design": "xgate"})
                    assert status == 200
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def whatiffer():
            try:
                for _ in range(self.PER_THREAD):
                    status, body = call(server, "POST", "/whatif",
                                        {"design": "xgate",
                                         "edits": [edit]})
                    assert status == 200 and body["committed"] is False
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = ([threading.Thread(target=predictor) for _ in range(3)]
                   + [threading.Thread(target=whatiffer)
                      for _ in range(3)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=240.0)
        assert not errors, errors
        # Uncommitted traffic never advances the design revision.
        _, body = call(server, "GET", "/designs")
        assert body["designs"]["xgate"]["revision"] == 0
