"""Integration: Verilog + DEF + SDC interchange preserves timing."""

import io

import pytest

from repro.netlist.verilog import parse_verilog, write_verilog
from repro.placement.defio import read_def, write_def
from repro.timing import (
    PreRouteEstimator,
    TimingConstraints,
    build_timing_graph,
    parse_sdc,
    run_sta,
)


def test_full_interchange_roundtrip(tiny_placed):
    nl, pl = tiny_placed
    v_buf, d_buf = io.StringIO(), io.StringIO()
    write_verilog(nl, v_buf)
    write_def(nl, pl, d_buf)
    constraints = TimingConstraints(clock_period=900.0,
                                    input_delays={None: 12.0})
    sdc = constraints.to_sdc()

    nl2 = parse_verilog(v_buf.getvalue())
    pl2 = read_def(nl2, d_buf.getvalue())
    c2 = parse_sdc(sdc)
    assert c2 == constraints

    r1 = run_sta(build_timing_graph(nl), PreRouteEstimator(nl, pl),
                 900.0, constraints=constraints)
    r2 = run_sta(build_timing_graph(nl2), PreRouteEstimator(nl2, pl2),
                 900.0, constraints=c2)
    # DEF quantizes to 1e-3 µm; timing must agree to sub-0.1 ps.
    assert r1.wns == pytest.approx(r2.wns, abs=0.1)
    assert r1.tns == pytest.approx(r2.tns, abs=1.0)
