"""Walk through the EDA substrate: netlist → placement → STA → opt → route.

Shows every stage of the reference flow with its reports — the substrate
the predictor is trained against.

    python examples/timing_flow_demo.py
"""

import numpy as np

from repro.flow import FlowConfig, run_flow
from repro.netlist.stats import compute_stats


def main() -> None:
    flow = run_flow("steelcore", FlowConfig())

    stats = compute_stats(flow.input_netlist)
    print("=== design ===")
    print(f"{stats.name}: {stats.n_cells} cells, {stats.n_nets} nets, "
          f"{stats.n_pins} pins, {stats.n_endpoints} timing endpoints")
    die = flow.input_placement.die
    print(f"die {die.width:.0f} x {die.height:.0f} µm, "
          f"{len(die.macros)} macros, clock {flow.clock_period:.0f} ps")

    print("\n=== pre-routing STA (Elmore wire estimates) ===")
    pre = flow.pre_route_sta
    print(f"wns {pre.wns:.0f} ps, tns {pre.tns:.0f} ps")
    ep = min(pre.endpoint_slack, key=pre.endpoint_slack.get)
    path = pre.critical_path(ep)
    print(f"critical path: {len(path)} pins into endpoint pin {ep}")

    print("\n=== timing optimization ===")
    rep = flow.opt_report
    print(f"moves: {dict(sorted(rep.moves.items()))}")
    print(f"wns trajectory: {[round(w) for w in rep.wns_trajectory]}")
    print(f"replaced: {rep.net_replaced_ratio:.1%} net edges, "
          f"{rep.cell_replaced_ratio:.1%} cell edges")

    print("\n=== routing ===")
    routing = flow.routing
    print(f"total wirelength {routing.total_wirelength:.0f} µm "
          f"({routing.total_detour:.0f} µm congestion detour), "
          f"{routing.overflow_fraction:.1%} GCells over capacity")

    print("\n=== sign-off ===")
    signoff = flow.signoff_sta
    print(f"wns {signoff.wns:.0f} ps, tns {signoff.tns:.0f} ps")
    labels = flow.endpoint_labels()
    arr = np.array(list(labels.values()))
    print(f"endpoint arrival: min {arr.min():.0f}, mean {arr.mean():.0f}, "
          f"max {arr.max():.0f} ps")
    print(f"\nstage times: { {k: round(v, 2) for k, v in flow.timer.stages.items()} }")


if __name__ == "__main__":
    main()
