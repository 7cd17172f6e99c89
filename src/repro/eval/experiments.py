"""Reusable experiment runners behind the benchmark harness.

One function per paper table; the ``benchmarks/`` directory wraps these in
pytest-benchmark entries and prints the regenerated tables.  Examples reuse
them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import (
    GuoBaseline,
    GuoConfig,
    TwoStageBaseline,
    TwoStageConfig,
)
from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.eval.metrics import r2_score
from repro.eval.tables import format_table
from repro.flow import FlowConfig, run_flow
from repro.ml.sample import DesignSample
from repro.netlist.stats import compute_stats
from repro.utils import get_logger

logger = get_logger("eval.experiments")


# ----------------------------------------------------------------------
# Table I — dataset statistics and the impact of timing optimization
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    design: str
    split: str
    n_pins: int
    n_endpoints: int
    n_net_edges: int
    n_cell_edges: int
    d_wns: float          # |Δwns| ratio between flows with/without opt
    d_tns: float
    net_replaced: float
    net_d_delay: float    # mean |Δdelay| ratio on unreplaced net edges
    cell_replaced: float
    cell_d_delay: float


def run_table1(designs: List[str],
               flow_config: Optional[FlowConfig] = None) -> List[Table1Row]:
    """Regenerate Table I: run each design with and without optimization."""
    base = flow_config or FlowConfig()
    rows: List[Table1Row] = []
    for name in designs:
        cfg_opt = _with(base, with_opt=True)
        cfg_no = _with(base, with_opt=False)
        f_opt = run_flow(name, cfg_opt)
        f_no = run_flow(name, cfg_no)
        stats = compute_stats(f_opt.input_netlist)
        report = f_opt.opt_report

        wns_o, wns_n = f_opt.signoff_sta.wns, f_no.signoff_sta.wns
        tns_o, tns_n = f_opt.signoff_sta.tns, f_no.signoff_sta.tns
        d_wns = abs(wns_o - wns_n) / max(abs(wns_n), 1e-9)
        d_tns = abs(tns_o - tns_n) / max(abs(tns_n), 1e-9)

        net_dd = _delay_change(f_no.signoff_sta.net_edge_delay,
                               f_opt.signoff_sta.net_edge_delay,
                               report.replaced_net_edges)
        cell_dd = _delay_change(f_no.signoff_sta.cell_edge_delay,
                                f_opt.signoff_sta.cell_edge_delay,
                                report.replaced_cell_edges)
        rows.append(Table1Row(
            design=name,
            split=f_opt.spec.split,
            n_pins=stats.n_pins,
            n_endpoints=stats.n_endpoints,
            n_net_edges=stats.n_net_edges,
            n_cell_edges=stats.n_cell_edges,
            d_wns=d_wns,
            d_tns=d_tns,
            net_replaced=report.net_replaced_ratio,
            net_d_delay=net_dd,
            cell_replaced=report.cell_replaced_ratio,
            cell_d_delay=cell_dd,
        ))
        logger.info("table1 %s done", name)
    return rows


def _delay_change(no_opt: Dict, with_opt: Dict, replaced) -> float:
    """Mean |Δdelay| / delay on unreplaced edges between the two flows."""
    ratios = []
    for edge, d_no in no_opt.items():
        if edge in replaced or edge not in with_opt:
            continue
        if d_no > 1e-6:
            ratios.append(abs(with_opt[edge] - d_no) / d_no)
    return float(np.mean(ratios)) if ratios else 0.0


def format_table1(rows: List[Table1Row]) -> str:
    headers = ["design", "split", "#pin", "#edp", "#e_n", "#e_c",
               "Δwns", "Δtns", "net repl", "net Δdelay",
               "cell repl", "cell Δdelay"]
    data = [[r.design, r.split, r.n_pins, r.n_endpoints, r.n_net_edges,
             r.n_cell_edges, f"{r.d_wns:.1%}", f"{r.d_tns:.1%}",
             f"{r.net_replaced:.1%}", f"{r.net_d_delay:.1%}",
             f"{r.cell_replaced:.1%}", f"{r.cell_d_delay:.1%}"]
            for r in rows]
    return format_table(headers, data, title="Table I (reproduced)")


# ----------------------------------------------------------------------
# Table II — accuracy comparison
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    """All Table II numbers, per test design."""

    local_r2: Dict[str, Dict[str, object]] = field(default_factory=dict)
    endpoint_r2: Dict[str, Dict[str, float]] = field(default_factory=dict)
    models: Dict[str, object] = field(default_factory=dict)

    def averages(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        designs = list(self.endpoint_r2)
        for column in next(iter(self.endpoint_r2.values())):
            out[column] = float(np.mean(
                [self.endpoint_r2[d][column] for d in designs]))
        return out


def run_table2(train: List[DesignSample], test: List[DesignSample],
               epochs: int = 60,
               baseline_epochs: Optional[int] = None,
               seed: int = 0) -> Table2Result:
    """Regenerate Table II: train all baselines and all our variants."""
    baseline_epochs = baseline_epochs or epochs
    result = Table2Result()

    logger.info("training DAC19 baseline")
    dac19 = TwoStageBaseline(TwoStageConfig(lookahead=False,
                                            epochs=baseline_epochs * 3,
                                            seed=seed))
    dac19.fit(train)
    logger.info("training DAC22-he baseline")
    dac22he = TwoStageBaseline(TwoStageConfig(lookahead=True,
                                              epochs=baseline_epochs * 3,
                                              seed=seed))
    dac22he.fit(train)
    logger.info("training DAC22-guo baseline")
    guo = GuoBaseline(GuoConfig(epochs=baseline_epochs, seed=seed))
    guo.fit(train)

    ours: Dict[str, TimingPredictor] = {}
    map_bins = train[0].mask_side() * 4  # model must match the samples
    for variant in ("cnn", "gnn", "full"):
        logger.info("training our %s model", variant)
        predictor = TimingPredictor(
            model_config=ModelConfig(variant=variant, seed=seed,
                                     map_bins=map_bins),
            trainer_config=TrainerConfig(epochs=epochs, seed=seed))
        predictor.fit(train)
        ours[variant] = predictor

    for s in test:
        result.local_r2[s.name] = {
            "DAC19": dac19.local_r2(s),
            "DAC22-he": dac22he.local_r2(s),
            "DAC22-guo": guo.local_r2(s),   # (net, cell) tuple
        }
        result.endpoint_r2[s.name] = {
            "DAC19": dac19.endpoint_r2(s),
            "DAC22-he": dac22he.endpoint_r2(s),
            "DAC22-guo": guo.endpoint_r2(s),
            "our CNN-only": r2_score(s.y, ours["cnn"].predict_array(s)),
            "our GNN-only": r2_score(s.y, ours["gnn"].predict_array(s)),
            "our full": r2_score(s.y, ours["full"].predict_array(s)),
        }
    result.models = {"DAC19": dac19, "DAC22-he": dac22he, "DAC22-guo": guo,
                     **{f"our-{k}": v for k, v in ours.items()}}
    return result


def format_table2(result: Table2Result) -> str:
    headers = ["design", "DAC19", "DAC22-he", "DAC22-guo(n/c)",
               "| DAC19", "DAC22-he", "DAC22-guo", "CNN-only", "GNN-only",
               "full"]
    data = []
    for design, locals_ in result.local_r2.items():
        ep = result.endpoint_r2[design]
        guo_local = locals_["DAC22-guo"]
        data.append([
            design,
            f"{locals_['DAC19']:.4f}",
            f"{locals_['DAC22-he']:.4f}",
            f"{guo_local[0]:.2f}/{guo_local[1]:.2f}",
            f"| {ep['DAC19']:.4f}",
            f"{ep['DAC22-he']:.4f}",
            f"{ep['DAC22-guo']:.4f}",
            f"{ep['our CNN-only']:.4f}",
            f"{ep['our GNN-only']:.4f}",
            f"{ep['our full']:.4f}",
        ])
    avg = result.averages()
    data.append(["avg", "", "", "",
                 f"| {avg['DAC19']:.4f}", f"{avg['DAC22-he']:.4f}",
                 f"{avg['DAC22-guo']:.4f}", f"{avg['our CNN-only']:.4f}",
                 f"{avg['our GNN-only']:.4f}", f"{avg['our full']:.4f}"])
    return format_table(
        headers, data,
        title="Table II (reproduced): local R² | endpoint arrival R²")


# ----------------------------------------------------------------------
# Table III — runtime comparison
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    design: str
    opt_s: float
    route_s: float
    sta_s: float
    flow_total_s: float
    pre_s: float
    infer_s: float
    model_total_s: float

    @property
    def speedup(self) -> float:
        return self.flow_total_s / max(self.model_total_s, 1e-9)


def run_table3(samples: List[DesignSample],
               predictor: TimingPredictor) -> List[Table3Row]:
    """Regenerate Table III from recorded flow times + fresh inference."""
    rows = []
    for s in samples:
        predictor.predict_array(s)   # records infer time
        infer = predictor.infer_times[s.name]
        opt_s = s.flow_times.get("opt", 0.0)
        route_s = s.flow_times.get("route", 0.0)
        sta_s = s.flow_times.get("sta", 0.0)
        rows.append(Table3Row(
            design=s.name,
            opt_s=opt_s,
            route_s=route_s,
            sta_s=sta_s,
            flow_total_s=opt_s + route_s + sta_s,
            pre_s=s.preprocess_time,
            infer_s=infer,
            model_total_s=s.preprocess_time + infer,
        ))
    return rows


def format_table3(rows: List[Table3Row]) -> str:
    headers = ["design", "opt", "route", "sta", "total",
               "pre", "infer", "total", "speedup"]
    data = []
    for r in rows:
        data.append([r.design, f"{r.opt_s:.2f}", f"{r.route_s:.2f}",
                     f"{r.sta_s:.2f}", f"{r.flow_total_s:.2f}",
                     f"{r.pre_s:.3f}", f"{r.infer_s:.3f}",
                     f"{r.model_total_s:.3f}", f"{r.speedup:.0f}x"])
    avg_flow = float(np.mean([r.flow_total_s for r in rows]))
    avg_model = float(np.mean([r.model_total_s for r in rows]))
    data.append(["avg", "", "", "", f"{avg_flow:.2f}", "", "",
                 f"{avg_model:.3f}", f"{avg_flow / avg_model:.0f}x"])
    return format_table(headers, data,
                        title="Table III (reproduced): runtime (s)")


def _with(config: FlowConfig, **overrides) -> FlowConfig:
    from dataclasses import replace
    return replace(config, **overrides)
