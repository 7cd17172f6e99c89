"""Tests for the span tracer."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.trace import (
    EVENT_BUFFER_SIZE,
    JsonlSink,
    Tracer,
    configure_tracing,
    get_tracer,
)


@pytest.fixture
def tracer() -> Tracer:
    return Tracer(enabled=True)


def test_disabled_tracer_records_nothing_but_still_times():
    t = Tracer(enabled=False)
    with t.span("work", design="x") as sp:
        pass
    assert t.events() == []
    assert sp.duration >= 0.0     # duration is measured regardless


def test_span_event_schema(tracer):
    with tracer.span("sta.run", design="xgate", n_nodes=10):
        pass
    (ev,) = tracer.events()
    assert ev["type"] == "span"
    assert ev["name"] == "sta.run"
    assert ev["attrs"] == {"design": "xgate", "n_nodes": 10}
    assert ev["parent_id"] is None
    assert ev["dur"] >= 0.0
    assert ev["span_id"] >= 1


def test_nested_spans_build_parent_chain(tracer):
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
    inner, middle, outer = tracer.events()   # completion order
    assert inner["name"] == "inner"
    assert inner["parent_id"] == middle["span_id"]
    assert middle["parent_id"] == outer["span_id"]
    assert outer["parent_id"] is None


def test_span_set_attrs_inside_block(tracer):
    with tracer.span("opt.pass") as sp:
        sp.set(wns=-12.5)
    (ev,) = tracer.events()
    assert ev["attrs"]["wns"] == -12.5


def test_span_records_exception(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("no")
    (ev,) = tracer.events()
    assert ev["attrs"]["error"] == "RuntimeError"


def test_instant_event(tracer):
    with tracer.span("outer"):
        tracer.event("log", level="WARNING", message="hi")
    log_ev = tracer.events()[0]
    assert log_ev["type"] == "event"
    assert log_ev["attrs"]["level"] == "WARNING"
    assert log_ev["parent_id"] is not None


def test_threads_have_independent_span_stacks(tracer):
    errors = []

    def worker(i: int) -> None:
        try:
            for _ in range(50):
                with tracer.span(f"t{i}.outer"):
                    with tracer.span(f"t{i}.inner"):
                        pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    events = tracer.events()
    assert len(events) == 4 * 50 * 2
    # Every inner span's parent is an outer span from the SAME thread.
    by_id = {ev["span_id"]: ev for ev in events}
    for ev in events:
        if ev["name"].endswith(".inner"):
            parent = by_id[ev["parent_id"]]
            assert parent["thread"] == ev["thread"]
            assert parent["name"] == ev["name"].replace(".inner", ".outer")


def test_jsonl_sink_roundtrip(tmp_path, tracer):
    path = tmp_path / "trace.jsonl"
    tracer.add_sink(JsonlSink(str(path)))
    with tracer.span("a", design="d"):
        pass
    tracer.event("log", message="m")
    lines = [json.loads(ln) for ln in
             path.read_text().strip().splitlines()]
    assert [ev["name"] for ev in lines] == ["a", "log"]
    assert lines[0]["attrs"]["design"] == "d"


def test_buffer_is_a_bounded_ring_and_the_sink_sees_everything(tmp_path,
                                                              tracer):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    tracer.add_sink(sink)
    n = 100_000
    for i in range(n):
        with tracer.span("work", i=i):
            pass
    sink.close()
    events = tracer.events()
    assert len(events) <= EVENT_BUFFER_SIZE
    assert tracer.emitted == n
    # The ring keeps the newest events, in completion order.
    assert [ev["attrs"]["i"] for ev in events[-3:]] == [n - 3, n - 2, n - 1]
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == n
    tracer.reset()
    assert tracer.events() == [] and tracer.emitted == 0


def test_configure_tracing_global(tmp_path):
    tracer = get_tracer()
    was_enabled = tracer.enabled
    try:
        configure_tracing(enabled=True, jsonl_path=str(tmp_path / "t.jsonl"))
        assert tracer.enabled
        configure_tracing(enabled=False)
        assert not tracer.enabled
    finally:
        tracer.reset()
        if was_enabled:
            tracer.enable()
