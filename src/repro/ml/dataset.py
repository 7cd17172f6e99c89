"""Dataset builder: flow results → :class:`DesignSample`, with a disk cache.

Building a sample is the model's *preprocessing* stage of Table III: graph
construction, topological levelization and endpoint-wise critical-region
generation are timed into ``sample.preprocess_time``.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

import repro.flow
from repro.core.masking import build_endpoint_paths, rasterize_endpoint_masks
from repro.flow import (
    FlowConfig,
    FlowResult,
    PreRouteDesign,
    ScenarioSpec,
    run_flow,
)
from repro.ml.features import node_features
from repro.ml.parallel import run_design_tasks
from repro.ml.sample import DesignSample, LevelPlan
from repro.netlist import DESIGN_PRESETS
from repro.obs import get_metrics, get_tracer
from repro.timing import (
    CELL_OUT,
    NET_SINK,
    STAResult,
    TimingGraph,
    build_timing_graph,
)
from repro.utils import (
    atomic_pickle_dump,
    get_logger,
    load_pickle_or_none,
    require,
)

logger = get_logger("ml.dataset")

#: Bump when the sample layout changes to invalidate stale caches.
CACHE_VERSION = 10


def build_level_plans(graph) -> List[LevelPlan]:
    """Per-level execution plans (padded predecessor matrices) for the GNN."""
    # Group cell edges by destination so we can pad per level.
    preds_of: Dict[int, List[int]] = {}
    for s, d in zip(graph.cell_edge_src.tolist(),
                    graph.cell_edge_dst.tolist()):
        preds_of.setdefault(d, []).append(s)
    edge_of_sink = dict(zip(graph.net_edge_dst.tolist(),
                            graph.net_edge_src.tolist()))

    width_hist = get_metrics().histogram("gnn.level_width")
    plans: List[LevelPlan] = []
    for lvl in range(1, graph.n_levels):
        nodes = graph.levels[lvl]
        width_hist.observe(len(nodes))
        net_nodes = nodes[graph.kind[nodes] == NET_SINK]
        net_drivers = np.array([edge_of_sink[v] for v in net_nodes.tolist()],
                               dtype=np.int64)
        cell_nodes = nodes[graph.kind[nodes] == CELL_OUT]
        if len(cell_nodes):
            preds = [preds_of[v] for v in cell_nodes.tolist()]
            k = max(len(ps) for ps in preds)
            cell_preds = np.full((len(cell_nodes), k), -1, dtype=np.int64)
            for r, ps in enumerate(preds):
                cell_preds[r, :len(ps)] = ps
        else:
            cell_preds = np.zeros((0, 1), dtype=np.int64)
        plans.append(LevelPlan(net_nodes=net_nodes, net_drivers=net_drivers,
                               cell_nodes=cell_nodes, cell_preds=cell_preds))
    return plans


@dataclass
class DesignInputs:
    """A label-free sample with the structure it was derived from.

    *graph* is the input netlist's timing graph and *paths* the
    endpoints' critical-path net edges (:func:`build_endpoint_paths`).
    *sta* is the pre-route STA the graph came from, when the boot ran
    one (:func:`repro.flow.run_pre_route`), else ``None``.  A serving
    session keeps the graph and paths — its incremental featurizer and
    incremental STA share the graph, and an edit re-rasterizes the
    cached paths — and its incremental STA takes the STA's state over,
    so a boot builds each once per design and sweeps it once.  They
    stay out of the sample, whose pickles are the dataset cache format.
    """

    sample: DesignSample
    graph: TimingGraph
    paths: List[List[Tuple[int, int]]]
    sta: Optional[STAResult] = None


def build_inputs(design: Union[FlowResult, PreRouteDesign],
                 map_bins: int = 64, seed: int = 0,
                 partition_pins: Optional[int] = None) -> DesignSample:
    """The label-free half of :func:`build_sample`: what inference reads.

    *design* is a :class:`~repro.flow.PreRouteDesign` or a full
    :class:`~repro.flow.FlowResult` (only its pre-routing inputs are
    read).  The sample carries the timing graph, level plans,
    ``x_cell``/``x_net``, critical-region masks, layout stack and
    endpoint arrays — every model input — stamped with the design's
    primary corner.  ``y``, the pre-route arrays, the sign-off dicts and
    the baseline data stay unset: serving never reads them.

    ``partition_pins`` bounds the featurization working set (per-chunk
    feature blocks, see :mod:`repro.timing.partition`) and is stamped on
    the sample so downstream inference streams too.  Outputs are
    bit-identical with or without it.
    """
    return build_design_inputs(design, map_bins, seed,
                               partition_pins).sample


def build_design_inputs(design: Union[FlowResult, PreRouteDesign],
                        map_bins: int = 64, seed: int = 0,
                        partition_pins: Optional[int] = None,
                        sta: Optional[STAResult] = None
                        ) -> DesignInputs:
    """:func:`build_inputs` with the graph and paths it was built from.

    *sta* is the design's pre-route STA when the caller already has it
    (the second half of :func:`repro.flow.run_pre_route`'s result):
    featurization reuses its graph and the inputs carry it for a
    session's incremental STA.  Without it, a
    :class:`~repro.flow.FlowResult` lends its pre-route STA's graph,
    built on the same netlist, and only a bare
    :class:`~repro.flow.PreRouteDesign` builds one here.
    """
    corner_names = design.corner_names
    corner = "base" if "base" in corner_names else corner_names[0]
    nl = design.input_netlist
    placement = design.input_placement

    # --- Timed preprocessing (the "pre" column of Table III): graph
    # construction (unless the flow's STA already built it),
    # levelization, features, critical-region masks.
    sp = get_tracer().span("model.pre", stage="pre", design=design.name)
    with sp:
        if sta is not None:
            graph = sta.graph
        elif getattr(design, "pre_route_sta", None) is not None:
            graph = design.pre_route_sta.graph
        else:
            graph = build_timing_graph(nl)
        plans = build_level_plans(graph)
        x_cell, x_net = node_features(nl, placement, graph,
                                      partition=partition_pins)
        paths = build_endpoint_paths(nl.name, graph, seed)
        masks = rasterize_endpoint_masks(nl, placement, paths, map_bins)

    endpoint_pins = np.array([int(graph.pin_ids[v]) for v in graph.endpoints])
    sample = DesignSample(
        name=design.name,
        split=DESIGN_PRESETS[design.name].split
        if design.name in DESIGN_PRESETS else "test",
        clock_period=design.clock_period,
        n_nodes=graph.n_nodes,
        kind=graph.kind,
        level=graph.level,
        pin_ids=graph.pin_ids,
        node_of=graph.node_of,
        plans=plans,
        source_nodes=graph.startpoints,
        x_cell=x_cell,
        x_net=x_net,
        endpoint_nodes=graph.endpoints,
        endpoint_pins=endpoint_pins,
        y=None,
        layout_stack=_layout_stack_at(design, map_bins),
        masks=masks,
        pre_route_arrival=None,
        pre_route_slew=None,
        preprocess_time=sp.duration,
        corner=corner,
        corner_index=corner_names.index(corner),
        scenario=design.scenario,
        partition_pins=partition_pins,
    )
    return DesignInputs(sample=sample, graph=graph, paths=paths, sta=sta)


def build_sample(flow: FlowResult, map_bins: int = 64,
                 seed: int = 0, corner: Optional[str] = None,
                 partition_pins: Optional[int] = None) -> DesignSample:
    """Convert a flow result into a labeled training/evaluation sample.

    The model inputs come from :func:`build_inputs`, the one
    featurization path; this adds the label step on top: the sign-off
    endpoint arrivals ``y``, the pre-route STA arrays, the sign-off
    dicts and the baseline features and auxiliary labels.

    ``corner`` selects which sign-off corner the labels ``y`` come from
    (default: the base corner when the flow has it, else the flow's
    primary corner).  Features, masks and baseline bookkeeping are
    corner-independent — the predictor sees the same pre-route context
    at every corner and learns the corner effect through its embedding
    (see DESIGN.md, "Multi-corner timing").
    """
    return label_sample(
        flow, build_design_inputs(flow, map_bins, seed, partition_pins),
        corner)


def label_sample(flow: FlowResult, inputs: DesignInputs,
                 corner: Optional[str] = None) -> DesignSample:
    """The label step of :func:`build_sample`: labels ``inputs.sample``
    in place and returns it.

    *inputs* must be built from *flow*'s input design on its pre-route
    STA graph, as :func:`build_design_inputs` builds them.
    """
    sample, graph = inputs.sample, inputs.graph
    if corner is not None:
        sample.corner = corner
        sample.corner_index = flow.corner_names.index(corner)
    labels = flow.endpoint_labels(sample.corner)
    sample.y = np.array([labels[int(p)] for p in sample.endpoint_pins])
    pre = flow.pre_route_sta
    sample.pre_route_arrival = pre.arrival.copy()
    sample.pre_route_slew = pre.slew.copy()

    # --- Baseline bookkeeping: sign-off local delays on SURVIVING edges.
    nl = flow.input_netlist
    report = flow.opt_report
    replaced_net = report.replaced_net_edges if report else frozenset()
    replaced_cell = report.replaced_cell_edges if report else frozenset()
    signoff = flow.signoff_sta
    sample.local_net_delay = {
        e: d for e, d in signoff.net_edge_delay.items()
        if e not in replaced_net and _edge_in(nl, e)}
    sample.local_cell_delay = {
        e: d for e, d in signoff.cell_edge_delay.items()
        if e not in replaced_cell and _edge_in(nl, e)}
    surviving_pins = set(nl.pins) & set(flow.opt_netlist.pins)
    sg = signoff.graph
    sample.signoff_arrival_by_pin = {
        int(p): float(signoff.arrival[sg.node_of[p]])
        for p in surviving_pins}
    sample.signoff_slew_by_pin = {
        int(p): float(signoff.slew[sg.node_of[p]]) for p in surviving_pins}
    sample.flow_times = dict(flow.timer.stages)
    _attach_baseline_data(sample, flow, graph)
    return sample


def build_corner_samples(flow: FlowResult, map_bins: int = 64,
                         seed: int = 0,
                         partition_pins: Optional[int] = None,
                         ) -> List[DesignSample]:
    """One sample per sign-off corner of *flow*, in corner order.

    The expensive structural work (graph, plans, features, masks) runs
    once, for the first corner; the remaining corners are shallow
    :meth:`~repro.ml.sample.DesignSample.corner_view` copies that share
    every array and differ only in corner identity and labels.
    """
    return _corner_samples(flow, build_sample(
        flow, map_bins=map_bins, seed=seed, corner=flow.corner_names[0],
        partition_pins=partition_pins))


def _corner_samples(flow: FlowResult,
                    first: DesignSample) -> List[DesignSample]:
    """*first*, labeled at *flow*'s first corner, then a view per other
    corner."""
    names = flow.corner_names
    out = [first]
    for idx, cname in enumerate(names[1:], start=1):
        labels = flow.endpoint_labels(cname)
        y = np.array([labels[int(p)] for p in first.endpoint_pins])
        out.append(first.corner_view(cname, idx, y=y))
    return out


def _attach_baseline_data(sample: DesignSample, flow: FlowResult,
                          graph) -> None:
    """Precompute the local-view baselines' features and labels."""
    # Import here: repro.baselines imports repro.ml.sample.
    from repro.baselines.local_features import stage_features, stage_labels

    nl = flow.input_netlist
    placement = flow.input_placement
    basic, sink_nodes = stage_features(nl, placement, graph, lookahead=False)
    lookahead, _ = stage_features(nl, placement, graph, lookahead=True)
    sample.stage_features_basic = basic
    sample.stage_features_lookahead = lookahead
    sample.stage_sink_nodes = sink_nodes
    sample.stage_label_by_sink = stage_labels(nl, sample)

    # Per-node auxiliary labels (DAC'22-Guo): NaN = replaced/unlabeled.
    n = sample.n_nodes
    aux_arrival = np.full(n, np.nan)
    aux_slew = np.full(n, np.nan)
    aux_net = np.full(n, np.nan)
    aux_cell = np.full(n, np.nan)
    for pid, arr in sample.signoff_arrival_by_pin.items():
        node = sample.node_of.get(pid)
        if node is not None:
            aux_arrival[node] = arr
            aux_slew[node] = sample.signoff_slew_by_pin[pid]
    for (drv, snk), d in sample.local_net_delay.items():
        node = sample.node_of.get(snk)
        if node is not None:
            aux_net[node] = d
    for (ip, op), d in sample.local_cell_delay.items():
        node = sample.node_of.get(op)
        if node is not None:
            aux_cell[node] = max(d, aux_cell[node]) if np.isfinite(
                aux_cell[node]) else d
    sample.aux_arrival = aux_arrival
    sample.aux_slew = aux_slew
    sample.aux_net_delay = aux_net
    sample.aux_cell_delay = aux_cell


def _layout_stack_at(design, map_bins: int) -> np.ndarray:
    """Layout maps at the sample's resolution (recompute on mismatch)."""
    from repro.placement import compute_layout_maps

    maps = design.input_maps
    if maps.shape != (map_bins, map_bins):
        maps = compute_layout_maps(design.input_netlist,
                                   design.input_placement,
                                   m=map_bins, n=map_bins)
    return maps.stacked()


def _edge_in(nl, edge: Tuple[int, int]) -> bool:
    return edge[0] in nl.pins and edge[1] in nl.pins


def sample_cache_path(cache_dir: Path, name: str, flow_config: FlowConfig,
                      map_bins: int, seed: int,
                      corner: str = "base", scenario: str = "") -> Path:
    """Cache file for one (design, corner, scenario) under one *full*
    configuration.

    The key is a content hash over the complete :class:`FlowConfig`
    (including the placer/optimizer/router sub-configs and ``with_opt``)
    plus the sample parameters and :data:`CACHE_VERSION`, so any change
    that could alter features or labels maps to a different file — a
    stale entry can never be served for a different configuration.

    Non-base corners extend the hash payload and the file name with a
    corner tag; non-default scenarios do the same with an ``@scenario``
    tag (``adder@clock_frac0.7+eco1_<key>.pkl``).  The base-corner,
    default-scenario key is byte-identical to the pre-corner scheme, so
    existing caches keep hitting.
    """
    payload = (f"{flow_config.fingerprint()}:b{map_bins}:s{seed}"
               f":v{CACHE_VERSION}")
    stem = name
    if corner != "base":
        payload += f":c{corner}"
        stem = f"{name}@{corner}"
    if scenario:
        payload += f":sc{scenario}"
        stem = f"{stem}@{scenario}"
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return Path(cache_dir) / f"{stem}_{key}.pkl"


def load_or_build_samples(name: str, flow_config: FlowConfig,
                          map_bins: int = 64, seed: int = 0,
                          cache_dir: Optional[Path] = None,
                          scenarios: Optional[List[ScenarioSpec]] = None,
                          ) -> Tuple[List[DesignSample], str]:
    """One design → one sample per (scenario, corner), through the cache.

    Sample order is scenario-major, corner-minor; the default
    ``scenarios=None`` is the single default scenario — exactly the
    pre-scenario behavior, same cache files.  Returns ``(samples,
    status)`` with status ``"cached"`` (every entry hit) or ``"built"``
    (at least one flow variant ran; variants share one
    :class:`~repro.flow.StageStore`, so each computes only the stages
    its axes change).  Cache reads treat corrupt/unreadable files as
    misses (warn + rebuild); cache writes are atomic (temp file +
    ``os.replace``), so an interrupted build never leaves a half-written
    file behind.  Shared by the serial loop below and the parallel
    workers in :mod:`repro.ml.parallel`.
    """
    from repro.flow.scenario import _resolve_spec

    corners = flow_config.corner_set()
    scenario_list = list(scenarios) if scenarios else [ScenarioSpec()]
    spec = _resolve_spec(name, flow_config)
    resolved = [s.resolve(spec) for s in scenario_list]

    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
    out: List[Optional[DesignSample]] = [None] * (len(resolved)
                                                 * len(corners))
    missing: List[int] = []         # scenario indices still to build
    for si, scen in enumerate(resolved):
        loaded = None
        if cache_dir is not None:
            files = [sample_cache_path(cache_dir, name, flow_config,
                                       map_bins, seed, corner=c.name,
                                       scenario=scen.scenario_id)
                     for c in corners]
            loaded = [load_pickle_or_none(f, logger) for f in files]
            if any(s is None for s in loaded):
                loaded = None
        if loaded is None:
            missing.append(si)
            continue
        # Corner/scenario identity follows the *current* request (a
        # cache entry is keyed by name, not position); pre-corner /
        # pre-scenario pickles resolve via the class defaults and are
        # re-stamped identically.
        for ci, (c, s) in enumerate(zip(corners, loaded)):
            s.corner = c.name
            s.corner_index = ci
            s.scenario = scen.scenario_id
            # Execution knob, not content: re-stamp from the current
            # config (cache keys deliberately ignore it).
            s.partition_pins = flow_config.partition_pins
            out[si * len(corners) + ci] = s

    if not missing:
        logger.info("loaded %s from cache (%d corner(s) × %d scenario(s))",
                    name, len(corners), len(resolved))
        return [s for s in out if s is not None], "cached"

    to_build = [resolved[si] for si in missing]
    if len(to_build) == 1 and to_build[0].is_default:
        # The historic single-flow path, byte-for-byte (no store).
        logger.info("running flow for %s", name)
        flows = [run_flow(name, flow_config)]
    else:
        logger.info("running %d scenario flow(s) for %s", len(to_build),
                    name)
        flows = _run_scenario_flows(name, flow_config, to_build, cache_dir)
    for si, flow in zip(missing, flows):
        samples = build_corner_samples(
            flow, map_bins=map_bins, seed=seed,
            partition_pins=flow_config.partition_pins)
        for ci, sample in enumerate(samples):
            out[si * len(corners) + ci] = sample
            if cache_dir is not None:
                atomic_pickle_dump(sample, sample_cache_path(
                    cache_dir, name, flow_config, map_bins, seed,
                    corner=sample.corner,
                    scenario=resolved[si].scenario_id))
    return [s for s in out if s is not None], "built"


def _run_scenario_flows(name: str, flow_config: FlowConfig,
                        scenarios: List[ScenarioSpec],
                        cache_dir: Optional[Path]) -> List["FlowResult"]:
    """Run a scenario batch through a shared (disk-backed) stage store.

    The disk layer under ``<cache_dir>/stages`` lets an interrupted or
    re-run scenario build resume from the deepest stage already
    produced; the default single-scenario path never reaches here, so it
    stays free of stage I/O.
    """
    from repro.flow import StageStore, run_scenarios

    store = StageStore(Path(cache_dir) / "stages"
                       if cache_dir is not None else None)
    return run_scenarios(name, flow_config, scenarios, store=store)


def load_or_build_sample(name: str, flow_config: FlowConfig,
                         map_bins: int = 64, seed: int = 0,
                         cache_dir: Optional[Path] = None,
                         ) -> Tuple[DesignSample, str]:
    """Single-sample façade over :func:`load_or_build_samples`.

    Returns the first configured corner's sample — for the default
    single-corner config, exactly the pre-corner behavior.
    """
    samples, status = load_or_build_samples(
        name, flow_config, map_bins=map_bins, seed=seed,
        cache_dir=cache_dir)
    return samples[0], status


def build_dataset(designs: List[str],
                  flow_config: Optional[FlowConfig] = None,
                  map_bins: int = 64,
                  cache_dir: Optional[Path] = None,
                  seed: int = 0,
                  jobs: Optional[int] = None,
                  scenarios: Optional[List[ScenarioSpec]] = None,
                  ) -> List[DesignSample]:
    """Run the reference flow on each design and build samples.

    Results are cached on disk keyed by the full-config hash (see
    :func:`sample_cache_path`) so benchmarks re-run quickly.  With
    ``jobs > 1`` designs are built in parallel worker processes (see
    :mod:`repro.ml.parallel`); serial and parallel builds produce
    identical samples.  With a multi-corner ``flow_config`` each design
    contributes ``len(corners)`` consecutive samples, and with
    *scenarios* (see :func:`repro.flow.expand_scenarios`) each design
    contributes ``len(scenarios) × len(corners)`` samples
    (design-major, scenario-major, corner-minor).  Raises
    ``RuntimeError`` if any design still fails after the per-design
    retry; use :func:`build_dataset_report` to inspect partial results
    instead.
    """
    samples, report = build_dataset_report(
        designs, flow_config=flow_config, map_bins=map_bins,
        cache_dir=cache_dir, seed=seed, jobs=jobs, scenarios=scenarios)
    failed = report.failed
    if failed:
        details = "; ".join(f"{s.design}: {s.error}" for s in failed)
        raise RuntimeError(
            f"dataset build failed for {len(failed)} design(s) "
            f"after retries — {details}")
    return samples


def build_dataset_report(designs: List[str],
                         flow_config: Optional[FlowConfig] = None,
                         map_bins: int = 64,
                         cache_dir: Optional[Path] = None,
                         seed: int = 0,
                         jobs: Optional[int] = None,
                         scenarios: Optional[List[ScenarioSpec]] = None,
                         _fail_once: Optional[Dict[str, str]] = None):
    """Like :func:`build_dataset` but fault-tolerant and introspectable.

    Returns ``(samples, report)`` where *samples* is aligned with
    *designs* (``None`` for designs that failed permanently) and
    *report* is a :class:`repro.ml.parallel.BuildReport` with per-design
    status, attempts, durations and errors.  ``_fail_once`` is the fault
    -injection hook used by the crash-tolerance tests (design name →
    ``"raise"`` or ``"crash"``; the fault fires on the first attempt
    only).
    """
    flow_config = flow_config or FlowConfig(base_seed=seed)
    per_design, report = run_design_tasks(
        load_or_build_samples, designs,
        (flow_config, map_bins, seed, cache_dir, scenarios),
        jobs=jobs or 1, span="dataset.parallel_build",
        _fail_once=_fail_once)
    n_per_design = (len(flow_config.corner_set())
                    * (len(scenarios) if scenarios else 1))
    samples: List[Optional[DesignSample]] = []
    for built in per_design:
        samples.extend(built if built is not None
                       else [None] * n_per_design)
    if report.jobs > 1:
        metrics = get_metrics()
        metrics.counter("dataset.parallel_builds").inc()
        if report.failed:
            metrics.counter("dataset.build_failures").inc(
                len(report.failed))
    return samples, report


def _boot_design(design: str, flow_config: FlowConfig,
                 scenario: Optional[str], map_bins: Optional[int],
                 seed: int, partition_pins: Optional[int],
                 train_bins: Optional[int]):
    """One design's serving boot: its pre-route design, its model inputs
    when *map_bins* is set, and its labeled corner samples when
    *train_bins* is set.

    Only a model-less bootstrap (*train_bins* set) needs labels, so only
    it runs the full flow, which never leaves this task; a boot with a
    model runs just the pre-route stages
    (:func:`repro.flow.run_pre_route`), and its inputs carry that STA
    for the session's incremental STA to start from.  The inputs reuse
    the graph of the flow's pre-route STA.  With both bin counts set
    they must be equal: the labeled samples are then a labeled copy of
    the inputs, so a boot walks each design's critical paths once.
    """
    # Looked up through the module at call time, so a patched
    # ``repro.flow`` entry point runs here and in forked workers.
    if train_bins is None:
        flow = None
        pre, sta = repro.flow.run_pre_route(design, flow_config,
                                            scenario=scenario)
    else:
        flow = repro.flow.run_scenario_flow(design, flow_config,
                                            scenario=scenario)
        # Featurized on the flow, which lends its pre-route STA's graph;
        # that STA is not the session's to start from (an ECO flow's is
        # a sign-off on routed lengths), so none is carried.
        pre, sta = flow.pre_route(), None
    inputs = (None if map_bins is None else
              build_design_inputs(pre if flow is None else flow,
                                  map_bins=map_bins, seed=seed,
                                  partition_pins=partition_pins, sta=sta))
    if flow is None:
        train = None
    elif inputs is None:
        train = build_corner_samples(flow, map_bins=train_bins, seed=seed,
                                     partition_pins=partition_pins)
    else:
        require(train_bins == map_bins,
                f"train_bins {train_bins} != map_bins {map_bins}")
        train = _corner_samples(flow, label_sample(
            flow, _copy_inputs(inputs), corner=flow.corner_names[0]))
    return (pre, inputs, train), "built"


def _copy_inputs(inputs: DesignInputs) -> DesignInputs:
    """*inputs* with the sample's arrays that an edit writes in place
    (features, masks, layout maps) copied, so labeling and training on
    the copy leave the serving sample as it is."""
    sample = copy.copy(inputs.sample)
    for name in ("x_cell", "x_net", "masks", "layout_stack"):
        setattr(sample, name, getattr(sample, name).copy())
    return DesignInputs(sample=sample, graph=inputs.graph,
                        paths=inputs.paths)


def boot_designs(designs: List[str], flow_config: FlowConfig,
                 scenario: Optional[str] = None,
                 map_bins: Optional[int] = None, seed: int = 0,
                 partition_pins: Optional[int] = None, jobs: int = 1,
                 train_bins: Optional[int] = None):
    """The ``repro serve`` boot: each design's flow, ``jobs`` at a time.

    Without *train_bins* each design runs only its pre-route stages;
    with it (a model-less bootstrap) each runs the full flow.  Returns
    ``(results, report)``; *results* is aligned with *designs* and holds
    ``(pre_route, inputs, train)`` per design, or ``None`` for a design
    whose build failed.  *pre_route* is the design's
    :class:`~repro.flow.PreRouteDesign`; *inputs* is its
    :class:`DesignInputs` (the label-free sample with the timing graph
    and critical paths a session reuses), ``None`` unless *map_bins* is
    given;
    *train* is the labeled :func:`build_corner_samples` list a
    model-less server bootstraps on, ``None`` unless *train_bins* is
    given.  Sign-off data reaches the caller only through *train*.  The
    results equal a serial in-process boot's; the pool (see
    :func:`repro.ml.parallel.run_design_tasks`) has exited by the time
    this returns.
    """
    return run_design_tasks(
        _boot_design, designs,
        (flow_config, scenario, map_bins, seed, partition_pins, train_bins),
        jobs=jobs, span="serve.boot")
