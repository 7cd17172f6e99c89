"""Tool interop: Verilog + DEF + SDC round trip, then sign-off reports.

Shows the interchange surface a downstream flow would use: write the design
out as structural Verilog + DEF placement + SDC constraints, read everything
back, and confirm STA agrees bit-for-bit.

    python examples/interop_demo.py
"""

import io

from repro.flow import FlowConfig, run_flow
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.placement.defio import read_def, write_def
from repro.timing import (
    PreRouteEstimator,
    TimingConstraints,
    build_timing_graph,
    parse_sdc,
    run_sta,
)
from repro.timing.report import report_timing


def main() -> None:
    flow = run_flow("xgate", FlowConfig(scale=0.5))
    nl, pl = flow.input_netlist, flow.input_placement

    # --- write the three interchange files.
    v_buf, d_buf = io.StringIO(), io.StringIO()
    write_verilog(nl, v_buf)
    write_def(nl, pl, d_buf)
    constraints = TimingConstraints(clock_period=flow.clock_period,
                                    input_delays={None: 20.0},
                                    output_delays={None: 15.0})
    sdc_text = constraints.to_sdc()
    print(f"wrote {v_buf.tell()} B Verilog, {d_buf.tell()} B DEF, "
          f"{len(sdc_text)} B SDC")

    # --- read them back and re-run STA.
    nl2 = parse_verilog(v_buf.getvalue())
    # DEF references the ORIGINAL netlist's names; map onto the reparsed one.
    pl2 = read_def(nl2, d_buf.getvalue())
    constraints2 = parse_sdc(sdc_text)

    res1 = run_sta(build_timing_graph(nl), PreRouteEstimator(nl, pl),
                   constraints.clock_period, constraints=constraints)
    res2 = run_sta(build_timing_graph(nl2), PreRouteEstimator(nl2, pl2),
                   constraints2.clock_period, constraints=constraints2)
    print(f"WNS original {res1.wns:.2f} ps | round-tripped {res2.wns:.2f} ps")
    # DEF stores coordinates in 10⁻³ µm database units, so wire lengths are
    # quantized; timing agrees to well below a femtosecond of significance.
    assert abs(res1.wns - res2.wns) < 0.1, "round trip must preserve timing"

    print("\n" + report_timing(res2, n_paths=1))


if __name__ == "__main__":
    main()
