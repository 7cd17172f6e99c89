"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for cmd in ("flow", "report", "dataset", "train", "predict",
                "profile", "table1", "table2", "table3"):
        args = parser.parse_args([cmd] + (
            ["xgate"] if cmd in ("flow", "report", "predict") else []))
        assert args.command == cmd


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_flow_runs(capsys):
    assert main(["flow", "xgate", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "sign-off" in out
    assert "replaced" in out


def test_cli_flow_no_opt(capsys):
    assert main(["flow", "xgate", "--scale", "0.2", "--no-opt"]) == 0
    out = capsys.readouterr().out
    assert "optimizer" not in out


def test_cli_report_runs(capsys):
    assert main(["report", "xgate", "--scale", "0.2", "--paths", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Endpoint:") == 2
    assert "WNS" in out


def test_cli_train_and_predict(tmp_path, capsys, monkeypatch):
    # Patch the training design list down to one tiny design for speed.
    import repro.cli as cli_mod
    import repro.netlist as netlist_mod

    monkeypatch.setattr("repro.cli.DEFAULT_CACHE", tmp_path)
    small = netlist_mod.DESIGN_PRESETS["xgate"].scaled(0.2)
    monkeypatch.setitem(netlist_mod.DESIGN_PRESETS, "xgate", small)
    monkeypatch.setattr("repro.netlist.TRAIN_DESIGNS", ("xgate",))

    model_path = tmp_path / "m.pkl"
    assert main(["train", "--variant", "gnn", "--epochs", "3",
                 "--out", str(model_path), "--cache", str(tmp_path)]) == 0
    assert model_path.exists()
    assert main(["predict", "xgate", "--model", str(model_path),
                 "--cache", str(tmp_path), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "predicted arrival" in out


def test_cli_serve_rejects_corrupt_model_before_building_flows(
        tmp_path, capsys, monkeypatch):
    import repro.flow

    def no_flow(*args, **kwargs):
        pytest.fail("a flow was built before --model was validated")

    # A model boot runs run_pre_route; a bootstrap, run_scenario_flow.
    monkeypatch.setattr(repro.flow, "run_pre_route", no_flow)
    monkeypatch.setattr(repro.flow, "run_scenario_flow", no_flow)
    model = tmp_path / "corrupt.pkl"
    model.write_bytes(b"\x80\x04 definitely not a pickle")
    assert main(["serve", "--designs", "xgate", "--model",
                 str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\x80\x04 definitely not a pickle",
                                     None])
def test_cli_predict_rejects_unloadable_model(tmp_path, capsys, content):
    """A corrupt or missing --model is one ``error: <path>: ...`` line and
    exit 1, not a traceback."""
    model = tmp_path / "model.pkl"
    if content is not None:
        model.write_bytes(content)
    assert main(["predict", "xgate", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cli_profile_aggregates_spans_the_ring_dropped(tmp_path, capsys,
                                                      monkeypatch):
    """``repro profile`` reads its own JSONL back, so its table counts
    every span even when the tracer's in-memory ring has wrapped."""
    import collections
    import json

    from repro.obs import get_tracer
    from repro.obs.profile import aggregate_trace

    tracer = get_tracer()
    monkeypatch.setattr(tracer, "_events", collections.deque(maxlen=8))
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    try:
        assert main(["profile", "--design", "xgate", "--scale", "0.2",
                     "--epochs", "1", "--trace-out", str(trace),
                     "--report-out", str(report)]) == 0
        assert tracer.emitted > 8 and len(tracer.events()) == 8
    finally:
        tracer.reset()
        tracer.disable()
    capsys.readouterr()
    full = aggregate_trace(str(trace))
    assert json.loads(report.read_text()) == json.loads(
        json.dumps(full.to_dict()))
    assert full.stages["flow.opt"].count == 1


def test_cli_profile_runs(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    assert main(["profile", "--design", "xgate", "--scale", "0.2",
                 "--epochs", "1", "--trace-out", str(trace),
                 "--report-out", str(report)]) == 0
    out = capsys.readouterr().out
    # Every flow stage and both predictor stages must appear in the report.
    for stage in ("flow.place", "flow.opt", "flow.route", "flow.sta",
                  "model.pre", "model.infer"):
        assert stage in out
    assert "speedup" in out
    assert trace.exists() and report.exists()

    import json
    payload = json.loads(report.read_text())
    row = payload["table3"][0]
    assert row["design"] == "xgate"
    for stage in ("flow.place", "flow.opt", "flow.route", "flow.sta",
                  "model.pre", "model.infer"):
        assert row[stage] > 0.0
    # Trace file is valid JSONL with span events.
    lines = [json.loads(ln) for ln in
             trace.read_text().strip().splitlines()]
    assert any(ev["name"] == "flow.sta" for ev in lines)

    # Leave the global tracer as the rest of the suite expects it.
    from repro.obs.trace import get_tracer
    get_tracer().reset()
    get_tracer().disable()
