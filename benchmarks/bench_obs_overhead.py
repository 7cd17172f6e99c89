"""Observability overhead guard: run_sta with recording disabled.

The ISSUE's acceptance bar: disabled-by-default recording must add < 5%
overhead to ``run_sta`` on the smallest preset.  ``run_sta`` is a thin
instrumented wrapper (span + counters) around ``_run_sta_impl``; timing
both on the same graph measures exactly the instrumentation cost.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import time

from repro.netlist import DESIGN_PRESETS, generate_netlist
from repro.obs.trace import get_tracer
from repro.placement import build_die, legalize, place
from repro.timing import PreRouteEstimator, build_timing_graph
from repro.timing.sta import _run_sta_impl, run_sta

from benchmarks.conftest import emit_bench

REPEATS = 7
CALLS = 20


def _timed(fn, *args) -> float:
    """Best-of-REPEATS total seconds for CALLS invocations."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_recording_overhead_under_5_percent():
    spec = DESIGN_PRESETS["xgate"].scaled(0.25)
    nl = generate_netlist(spec)
    die = build_die(nl, spec)
    pl = place(nl, die)
    legalize(nl, pl)
    graph = build_timing_graph(nl)
    wires = PreRouteEstimator(nl, pl)

    # The benchmark session keeps the tracer on (benchmarks/conftest.py);
    # this guard measures the DISABLED path, so switch it off meanwhile.
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.disable()
    try:
        # Warm both paths (NLDM cache, numpy allocations).
        run_sta(graph, wires, 500.0)
        _run_sta_impl(graph, wires, 500.0)

        base = _timed(_run_sta_impl, graph, wires, 500.0)
        instrumented = _timed(run_sta, graph, wires, 500.0)
    finally:
        if was_enabled:
            tracer.enable()
    overhead = instrumented / base - 1.0
    emit_bench("obs_overhead", {
        "overhead_pct": overhead * 100,
        "baseline_ms_per_call": base / CALLS * 1e3,
        "instrumented_ms_per_call": instrumented / CALLS * 1e3})
    print(f"\nrun_sta disabled-recording overhead: {overhead:+.2%} "
          f"(baseline {base / CALLS * 1e3:.2f} ms/call, "
          f"instrumented {instrumented / CALLS * 1e3:.2f} ms/call)")
    assert overhead < 0.05, (
        f"disabled observability costs {overhead:.1%} on run_sta "
        f"(budget: 5%)")
