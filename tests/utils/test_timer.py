"""Tests for stopwatches."""

import time

import pytest

from repro.utils import StageTimer, Stopwatch


def test_stopwatch_accumulates():
    sw = Stopwatch()
    with sw.running():
        time.sleep(0.01)
    first = sw.elapsed
    with sw.running():
        time.sleep(0.01)
    assert sw.elapsed > first >= 0.01


def test_stage_timer_records_stages():
    timer = StageTimer()
    with timer.stage("a"):
        time.sleep(0.005)
    with timer.stage("b"):
        pass
    assert timer.get("a") >= 0.005
    assert timer.get("b") >= 0.0
    assert timer.get("missing") == 0.0
    assert timer.total() == timer.get("a") + timer.get("b")


def test_stage_timer_accumulates_same_stage():
    timer = StageTimer()
    with timer.stage("x"):
        time.sleep(0.003)
    first = timer.get("x")
    with timer.stage("x"):
        time.sleep(0.003)
    assert timer.get("x") > first


def test_stage_timer_records_on_exception():
    timer = StageTimer()
    try:
        with timer.stage("fail"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert timer.get("fail") >= 0.0
    assert "fail" in timer.stages


def test_stage_timer_nested_stages_accumulate_independently():
    """Nested stages each record their own wall-clock; the outer stage's
    time includes the inner stage's (the spans nest, the dict does not
    subtract)."""
    timer = StageTimer()
    with timer.stage("outer"):
        time.sleep(0.004)
        with timer.stage("inner"):
            time.sleep(0.004)
    assert timer.get("inner") >= 0.004
    assert timer.get("outer") >= timer.get("inner")
    assert set(timer.stages) == {"outer", "inner"}


def test_stage_timer_reentered_stage_accumulates():
    """Re-entering the same stage name (even nested under itself) adds up."""
    timer = StageTimer()
    with timer.stage("sta"):
        time.sleep(0.002)
    with timer.stage("sta"):
        time.sleep(0.002)
        with timer.stage("sta"):
            time.sleep(0.002)
    # 3 closed blocks: ~2ms + ~4ms(outer incl. inner) + ~2ms(inner)
    assert timer.get("sta") >= 0.008


def test_stage_timer_emits_spans_when_tracing(monkeypatch):
    from repro.obs.trace import Tracer
    import repro.utils.timer as timer_mod

    tracer = Tracer(enabled=True)
    monkeypatch.setattr(timer_mod, "get_tracer", lambda: tracer)
    timer = StageTimer(design="xgate")
    with timer.stage("place"):
        pass
    (ev,) = tracer.events()
    assert ev["name"] == "flow.place"
    assert ev["attrs"] == {"stage": "place", "design": "xgate"}
    assert ev["dur"] == pytest.approx(timer.get("place"), abs=1e-4)


def test_stage_timer_adapter_matches_span_duration(monkeypatch):
    """The legacy dict is fed from the span's own measurement, so the two
    never disagree (no double timing)."""
    from repro.obs.trace import Tracer
    import repro.utils.timer as timer_mod

    tracer = Tracer(enabled=True)
    monkeypatch.setattr(timer_mod, "get_tracer", lambda: tracer)
    timer = StageTimer()
    with timer.stage("route"):
        time.sleep(0.003)
    (ev,) = tracer.events()
    assert timer.get("route") == ev["dur"]


def test_stage_handle_carries_its_own_block_duration(monkeypatch):
    """``stage()`` yields the span: after the block, its duration is that
    block's time alone — the increment the block added to ``stages``."""
    from repro.obs.trace import Tracer
    import repro.utils.timer as timer_mod

    tracer = Tracer(enabled=True)
    monkeypatch.setattr(timer_mod, "get_tracer", lambda: tracer)
    timer = StageTimer()
    with timer.stage("opt") as first:
        time.sleep(0.002)
    with timer.stage("opt") as second:
        time.sleep(0.001)
    assert [ev["dur"] for ev in tracer.events()] == [first.duration,
                                                     second.duration]
    assert timer.get("opt") == first.duration + second.duration
