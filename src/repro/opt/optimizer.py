"""The layout-gated timing optimizer (Innovus ``optDesign`` stand-in).

Runs repeated STA / repair passes over a placed netlist.  On every pass the
critical endpoints are traced back along their worst paths, and repair moves
are attempted on the path elements:

* gate sizing (structure-preserved) on undersized drivers,
* buffer insertion on long / heavily loaded net arcs,
* timing-driven decomposition of wide gates,
* cloning of high-fanout drivers,

followed by area recovery (downsizing) on very-positive-slack logic.  Every
move is *gated by the free space* around its work site — a move succeeds
with probability ``free_space ** space_gate_exponent`` and structural moves
additionally need a physical site from the incremental row grid.  This is
the mechanism that couples per-endpoint optimization gain to the layout
along the endpoint's critical region, the effect the paper's layout branch
(CNN + endpoint masking) is designed to learn.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.config import OptimizerConfig
from repro.netlist import Netlist
from repro.obs import get_metrics, get_tracer
from repro.opt.moves import (
    clone_driver,
    decompose_gate,
    downsize_cell,
    insert_buffer,
    remap_cell,
    upsize_cell,
)
from repro.opt.report import OptReport, diff_replaced_edges
from repro.placement import Placement, RowGrid, compute_free_space
from repro.timing import PreRouteEstimator, STAResult, build_timing_graph, run_sta
from repro.utils import spawn_rng


def box_mean3(a: np.ndarray) -> np.ndarray:
    """3x3 running mean of a 2-D float64 grid, edges replicated.

    Bit-identical to ``scipy.ndimage.uniform_filter(a, size=3,
    mode="nearest")``: one 3-tap pass per axis, each summing the window
    once and then sliding it by adding the entering and subtracting the
    leaving element, with the division by 3 applied to the running sum.
    """
    out = np.asarray(a, dtype=np.float64)
    for axis in (0, 1):
        line = np.moveaxis(out, axis, 0)
        p = np.concatenate([line[:1], line, line[-1:]])
        steps = np.empty_like(line)
        steps[0] = (p[0] + p[1]) + p[2]
        steps[1:] = p[3:] - p[:-3]
        out = np.moveaxis(np.cumsum(steps, axis=0) / 3.0, 0, axis)
    return out


class TimingOptimizer:
    """Optimizes *netlist* / *placement* in place (pass clones!)."""

    def __init__(self, netlist: Netlist, placement: Placement,
                 config: Optional[OptimizerConfig] = None) -> None:
        config = config or OptimizerConfig()
        self.netlist = netlist
        self.placement = placement
        self.config = config
        self.rng = spawn_rng(f"opt/{netlist.name}", config.seed)
        self.grid = RowGrid.from_placement(netlist, placement)
        self._original = netlist.clone()
        self._refresh_free_space()

    # ------------------------------------------------------------------
    def run(self, clock_period: float) -> OptReport:
        """Run all optimization passes; returns the move/replacement report."""
        report = OptReport(design=self.netlist.name)
        for pass_no in range(self.config.max_passes):
            with get_tracer().span("opt.pass", design=self.netlist.name,
                                   pass_no=pass_no) as sp:
                graph = build_timing_graph(self.netlist)
                sta = run_sta(graph,
                              PreRouteEstimator(self.netlist, self.placement),
                              clock_period)
                report.wns_trajectory.append(sta.wns)
                report.tns_trajectory.append(sta.tns)
                sp.set(wns=sta.wns, tns=sta.tns)
                changed = self._repair_pass(sta, report)
                changed |= self._rewrite_sweep(sta, report)
                self._refresh_free_space()
            if not changed:
                break
        # Area/power recovery runs once, after timing is repaired — as in
        # commercial flows, where recovery is a closing step.
        graph = build_timing_graph(self.netlist)
        sta = run_sta(graph, PreRouteEstimator(self.netlist, self.placement),
                      clock_period)
        self._recovery_pass(sta, report)
        graph = build_timing_graph(self.netlist)
        sta = run_sta(graph, PreRouteEstimator(self.netlist, self.placement),
                      clock_period)
        report.wns_trajectory.append(sta.wns)
        report.tns_trajectory.append(sta.tns)
        diff_replaced_edges(self._original, self.netlist, report)
        self.netlist.check()
        return report

    # ------------------------------------------------------------------
    # Layout gating
    # ------------------------------------------------------------------
    def _refresh_free_space(self) -> None:
        bins = self.config.gate_bins
        free = compute_free_space(self.netlist, self.placement, bins, bins)
        # Smooth over a 3x3 neighbourhood: a move can claim sites in the
        # adjacent bins, so nearby space counts as usable space.
        self._free = box_mean3(free)
        self._bin_w = self.placement.die.width / bins
        self._bin_h = self.placement.die.height / bins

    def _free_space_at(self, x: float, y: float) -> float:
        i = int(min(max(x / self._bin_w, 0), self._free.shape[0] - 1))
        j = int(min(max(y / self._bin_h, 0), self._free.shape[1] - 1))
        return float(self._free[i, j])

    def _gate(self, x: float, y: float) -> bool:
        """Layout gate: dense / macro-covered regions cannot be optimized.

        Capability is a *deterministic property of the location*: the
        (neighbourhood-smoothed) free space must clear the floor, and the
        occasional marginal site is rejected in proportion to how close to
        the floor it sits.  A region that cannot host optimization on pass
        1 therefore stays incapable on every pass — the persistent layout
        dependence the paper's CNN branch learns.
        """
        space = self._free_space_at(x, y)
        floor = self.config.min_free_space
        if space <= floor:
            ok = False
        elif space >= 2.5 * floor:
            ok = True
        else:
            # Marginal band: acceptance ramps from 0 at the floor to 1.
            ok = bool(self.rng.random() < (space - floor) / (1.5 * floor))
        get_metrics().counter(
            "opt.gate.accepted" if ok else "opt.gate.rejected").inc()
        return ok

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _repair_pass(self, sta: STAResult, report: OptReport) -> bool:
        nl = self.netlist
        margin = self.config.critical_margin_frac * sta.clock_period
        critical = sorted(
            (pid for pid, s in sta.endpoint_slack.items() if s < margin),
            key=lambda pid: sta.endpoint_slack[pid])
        critical = critical[:self.config.endpoints_per_pass]
        touched: Set[int] = set()
        changed = False
        for ep in critical:
            path = sta.critical_path(ep)
            changed |= self._repair_path(sta, path, touched, report)
        return changed

    def _repair_path(self, sta: STAResult, path, touched: Set[int],
                     report: OptReport) -> bool:
        nl = self.netlist
        slack = sta.node_slack
        node_of = sta.graph.node_of
        changed = False
        for pin_id in path:
            pin = nl.pins.get(pin_id)
            if pin is None:
                continue  # pin was consumed by an earlier structural move
            cid = pin.cell
            ctype = nl.cell_type(cid) if cid in nl.cells else None

            # Output pins: driver-centric moves.
            if (ctype is not None and pin.direction == "out"
                    and not ctype.is_sequential and cid not in touched):
                x, y = self.placement.position(cid)
                if (ctype.drive < 8
                        and self._sizing_gain(sta, cid) > 1.0
                        and self._gate(x, y)):
                    # Most drive fixes come out of the rewrite engine in a
                    # commercial flow: the function is re-implemented as a
                    # fresh (larger) instance, replacing every arc.
                    if self.rng.random() < self.config.remap_fraction:
                        if remap_cell(nl, self.placement, self.grid, cid):
                            report.count("remap")
                            touched.add(cid)
                            changed = True
                            continue
                    if upsize_cell(nl, cid):
                        report.count("upsize")
                        touched.add(cid)
                        changed = True
                        continue
                if (ctype.drive >= 8
                        and nl.fanout_of(cid) >= self.config.clone_fanout):
                    if self._gate(x, y):
                        if clone_driver(nl, self.placement, self.grid, cid):
                            report.count("clone")
                            touched.add(cid)
                            changed = True
                            continue

            # Input pins: arc-centric moves.
            if (ctype is not None and pin.direction == "in"
                    and not ctype.is_sequential and cid not in touched
                    and ctype.n_inputs >= self.config.decompose_min_inputs):
                inst = nl.cells[cid]
                arrivals = sorted(
                    sta.arrival[node_of[ip]] for ip in inst.input_pins
                    if ip in node_of)
                # Decompose only when one input is clearly the latest: the
                # earlier inputs then absorb the extra tree stages for free
                # while the critical arc drops to a cheaper 2-input root.
                if (len(arrivals) == ctype.n_inputs
                        and arrivals[-1] - arrivals[-2] > 6.0):
                    x, y = self.placement.position(cid)
                    if self._gate(x, y):
                        order = sorted(
                            inst.input_pins,
                            key=lambda ip: sta.arrival[node_of[ip]])
                        if decompose_gate(nl, self.placement, self.grid,
                                          cid, input_order=order):
                            report.count("decompose")
                            touched.add(cid)
                            changed = True
                            continue

            # Arc into this pin (also for flip-flop D pins): net repair.
            if pin.direction == "in" and pin.net is not None:
                net = nl.nets[pin.net]
                drv_cid = nl.pins[net.driver].cell
                wire_delay = sta.wire_delay(net.driver, pin_id)
                # Decouple clearly non-critical sinks from the critical
                # driver (gain: R_drive × moved capacitance on this arc;
                # cost: one buffer delay on arcs that can afford it).
                if drv_cid is not None and drv_cid not in touched:
                    here = slack[node_of[pin_id]] if pin_id in node_of else 0.0
                    movable = [
                        sp for sp in net.sinks
                        if sp != pin_id and sp in node_of
                        and slack[node_of[sp]] > here + 30.0]
                    if len(movable) >= 2:
                        x, y = self.placement.pin_position(nl, net.driver)
                        if self._gate(x, y):
                            if insert_buffer(nl, self.placement, self.grid,
                                             net.nid, movable,
                                             buffer_type="BUF_X2"):
                                report.count("shield")
                                touched.add(drv_cid)
                                changed = True
                                continue
                # Split genuinely long wires (Elmore grows quadratically).
                if wire_delay > self.config.buffer_wire_delay_ps:
                    x, y = self.placement.pin_position(nl, pin_id)
                    if self._gate(x, y):
                        if insert_buffer(nl, self.placement, self.grid,
                                         net.nid, [pin_id]):
                            report.count("buffer")
                            changed = True
        return changed

    def _rewrite_sweep(self, sta: STAResult, report: OptReport) -> bool:
        """Boolean-rewrite sweep over the critical subgraph.

        Commercial optimizers re-synthesize logic inside critical regions
        wholesale; most rewritten gates keep their function and drive but
        become fresh instances.  We model that as same-type remaps of a
        random, space-gated fraction of cells whose output node violates
        timing — this is what makes whole *sub-regions* unlabelable (Fig. 1
        of the paper), not just the single worst path.
        """
        nl = self.netlist
        slack = sta.node_slack
        node_of = sta.graph.node_of
        margin = self.config.critical_margin_frac * sta.clock_period
        changed = False
        for cid in sorted(nl.cells):
            inst = nl.cells[cid]
            ctype = nl.cell_type(cid)
            if ctype.is_sequential:
                continue
            node = node_of.get(inst.output_pin)
            if node is None or slack[node] >= margin:
                continue
            if self.rng.random() >= self.config.rewrite_rate:
                continue
            x, y = self.placement.position(cid)
            if not self._gate(x, y):
                continue
            if remap_cell(nl, self.placement, self.grid, cid,
                          target_type=ctype.name):
                report.count("rewrite")
                changed = True
        return changed

    def _sizing_gain(self, sta: STAResult, cid: int) -> float:
        """Estimated critical-arc benefit (ps) of one drive-strength step.

        Gain: the output arc speeds up by ``ΔR_drive × load``.  Penalty: the
        larger input pins load every upstream driver by ``ΔC_in`` through
        that driver's resistance plus the wire resistance — we charge the
        worst input arc, which is the one a critical path would use.  Real
        optimizers evaluate exactly this trade-off; without it, repeated
        sizing oscillates (upstream drivers drown in added load).
        """
        nl = self.netlist
        lib = nl.library
        inst = nl.cells[cid]
        ctype = nl.cell_type(cid)
        bigger = lib.upsize(ctype)
        if bigger is None:
            return 0.0
        node_out = sta.graph.node_of.get(inst.output_pin)
        if node_out is None:
            return 0.0
        gain = (ctype.drive_resistance
                - bigger.drive_resistance) * float(sta.load[node_out])
        d_cin = bigger.input_cap - ctype.input_cap
        penalty = 0.0
        for ip in inst.input_pins:
            net_id = nl.pins[ip].net
            if net_id is None:
                continue
            drv_pin = nl.pins[nl.nets[net_id].driver]
            if drv_pin.cell is not None:
                r_drv = lib.cell(nl.cells[drv_pin.cell].type_name).drive_resistance
            else:
                r_drv = 1.0  # pad driver
            dx, dy = self.placement.pin_position(nl, drv_pin.pid)
            sx, sy = self.placement.pin_position(nl, ip)
            r_wire = lib.wire.resistance(abs(dx - sx) + abs(dy - sy))
            penalty = max(penalty, d_cin * (r_drv + r_wire))
        return gain - penalty

    # ------------------------------------------------------------------
    # Area recovery
    # ------------------------------------------------------------------
    def _recovery_pass(self, sta: STAResult, report: OptReport) -> bool:
        """Downsize drivers feeding only very-positive-slack endpoints.

        Mirrors commercial area/power recovery: it is why even *unreplaced*
        elements far from critical paths see large sign-off delay changes
        (Table I's Δdelay on survivors).
        """
        nl = self.netlist
        threshold = self.config.recovery_slack_frac * sta.clock_period
        slack = sta.node_slack
        graph = sta.graph
        changed = False
        # Cells whose *output node* has comfortable slack cannot hurt any
        # near-critical endpoint when slowed down a little.
        for cid in sorted(nl.cells):
            inst = nl.cells[cid]
            ctype = nl.cell_type(cid)
            if ctype.is_sequential or ctype.drive <= 1:
                continue
            node = graph.node_of.get(inst.output_pin)
            if node is None or slack[node] < threshold:
                continue
            if self.rng.random() < self.config.recovery_fraction:
                if downsize_cell(nl, cid):
                    report.count("downsize")
                    changed = True
        return changed


def optimize(netlist: Netlist, placement: Placement, clock_period: float,
             config: Optional[OptimizerConfig] = None) -> OptReport:
    """Convenience wrapper: optimize *netlist*/*placement* in place."""
    opt = TimingOptimizer(netlist, placement, config or OptimizerConfig())
    return opt.run(clock_period)
