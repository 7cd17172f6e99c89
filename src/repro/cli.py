"""Command-line interface: ``python -m repro <command>``.

Commands
--------
flow      run the reference flow on a design and print its reports
report    sign-off timing report (report_timing style)
dataset   build / refresh the cached dataset
train     train a predictor and save it
predict   load a predictor and rank a design's endpoints
serve     persistent what-if timing sessions over HTTP
profile   trace one design end-to-end; per-stage runtime report
table1/2/3  regenerate a paper table
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

DEFAULT_CACHE = Path("data/cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Restructure-tolerant timing prediction (DAC'23 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run the reference flow")
    p_flow.add_argument("design")
    p_flow.add_argument("--no-opt", action="store_true",
                        help="skip timing optimization")
    p_flow.add_argument("--scale", type=float, default=None,
                        help="shrink the preset design (e.g. 0.25)")
    p_flow.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser("report", help="sign-off timing report")
    p_rep.add_argument("design")
    p_rep.add_argument("--paths", type=int, default=3)
    p_rep.add_argument("--scale", type=float, default=None)

    p_ds = sub.add_parser("dataset", help="build the cached dataset")
    p_ds.add_argument("--designs", nargs="*", default=None)
    p_ds.add_argument("--cache", type=Path, default=DEFAULT_CACHE)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--scale", type=float, default=None,
                      help="shrink the preset designs (e.g. 0.25)")
    p_ds.add_argument("--jobs", type=int, default=None,
                      help="build designs in N parallel worker processes")
    p_ds.add_argument("--corners", default=None,
                      help="comma-separated sign-off corners (e.g. "
                           "fast,typ,slow or a custom name:V:T triple "
                           "like ff_0p99v:1.08:0.92); each design "
                           "contributes one sample per corner "
                           "(default: base only)")
    p_ds.add_argument("--partition-pins", type=int, default=None,
                      help="stream featurization over graph chunks of "
                           "at most N pins (default: whole-graph)")
    p_ds.add_argument("--sweep", action="append", default=None,
                      metavar="AXIS=V1,V2,...",
                      help="sweep a numeric DesignSpec axis across flow "
                           "variants (e.g. clock_frac=0.6,0.7,0.8); "
                           "repeatable — multiple axes form their "
                           "cartesian product; variants share flow "
                           "stages through the staged engine")
    p_ds.add_argument("--eco-rounds", type=int, default=0,
                      help="append N ECO re-optimization rounds per "
                           "sweep point (each round re-enters the opt "
                           "stage on the routed netlist and is its own "
                           "scenario/sample)")

    p_tr = sub.add_parser("train", help="train and save a predictor")
    p_tr.add_argument("--variant", choices=("full", "gnn", "cnn"),
                      default="full")
    p_tr.add_argument("--epochs", type=int, default=60)
    p_tr.add_argument("--augment", type=int, default=0,
                      help="extra placement seeds per training design")
    p_tr.add_argument("--endpoint-batch", type=int, default=1024,
                      help="cross-design endpoint mini-batch size "
                           "(paper Section VI-A uses 1024)")
    p_tr.add_argument("--out", type=Path, default=Path("data/predictor.pkl"))
    p_tr.add_argument("--cache", type=Path, default=DEFAULT_CACHE)
    p_tr.add_argument("--corners", default=None,
                      help="train a corner-conditioned model on these "
                           "sign-off corners (names or name:V:T "
                           "triples); the model learns one embedding "
                           "per corner")
    p_tr.add_argument("--partition-pins", type=int, default=None,
                      help="stream dataset featurization over graph "
                           "chunks of at most N pins")
    p_tr.add_argument("--sweep", action="append", default=None,
                      metavar="AXIS=V1,V2,...",
                      help="train across flow-variant scenarios (see "
                           "'repro dataset --sweep'); scenario id is a "
                           "dataset dimension, not a model input")
    p_tr.add_argument("--eco-rounds", type=int, default=0,
                      help="include N ECO re-optimization rounds per "
                           "sweep point in the training set")

    p_pr = sub.add_parser("predict", help="predict a design's endpoints")
    p_pr.add_argument("design")
    p_pr.add_argument("--model", type=Path,
                      default=Path("data/predictor.pkl"))
    p_pr.add_argument("--top", type=int, default=10)
    p_pr.add_argument("--cache", type=Path, default=DEFAULT_CACHE)
    p_pr.add_argument("--corners", default=None,
                      help="predict at these sign-off corners in one "
                           "packed forward (must be a subset of the "
                           "model's corners)")
    p_pr.add_argument("--partition-pins", type=int, default=None,
                      help="stream featurization and inference over "
                           "graph chunks of at most N pins "
                           "(bit-identical to whole-graph)")

    p_srv = sub.add_parser(
        "serve",
        help="serve persistent what-if timing sessions over HTTP")
    p_srv.add_argument("--designs", nargs="*", default=["xgate"],
                       help="preset designs to load as sessions "
                            "(default: xgate)")
    p_srv.add_argument("--scale", type=float, default=None,
                       help="shrink the preset designs (e.g. 0.25)")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--model", type=Path,
                       default=Path("data/predictor.pkl"),
                       help="predictor artifact; when missing, a small "
                            "bootstrap predictor is trained in-process")
    p_srv.add_argument("--bootstrap-epochs", type=int, default=2,
                       help="epochs for the bootstrap predictor "
                            "(used only when --model is missing)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8787,
                       help="listen port (0 picks a free one)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="worker *processes* for the sharded fleet; "
                            "0 (default) serves in-process")
    p_srv.add_argument("--threads", type=int, default=4,
                       help="max concurrently executing requests "
                            "(per worker process when --workers > 0)")
    p_srv.add_argument("--queue-depth", type=int, default=32,
                       help="max in-flight requests per worker (or "
                            "in-process) before load-shedding with 503")
    p_srv.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline in seconds")
    p_srv.add_argument("--microbatch", type=int, default=8,
                       help="max designs coalesced into one packed "
                            "forward pass (1 disables micro-batching)")
    p_srv.add_argument("--microbatch-wait-ms", type=float, default=2.0,
                       help="how long a micro-batch waits for company "
                            "after its first request arrives")
    p_srv.add_argument("--precision", choices=("fp64", "fp32"),
                       default="fp64",
                       help="inference tier: fp64 (bit-exact default) or "
                            "fp32 (toleranced)")
    p_srv.add_argument("--session-ttl", type=float, default=None,
                       help="evict design sessions idle longer than "
                            "this many seconds (default: never)")
    p_srv.add_argument("--corners", default=None,
                       help="serve these sign-off corners (names or "
                            "custom name:V:T triples, e.g. "
                            "base,ff_0p99v:1.08:0.92); one /whatif then "
                            "answers every corner in a single packed "
                            "forward")
    p_srv.add_argument("--partition-pins", type=int, default=None,
                       help="stream session featurization and inference "
                            "over graph chunks of at most N pins "
                            "(bit-identical to whole-graph)")
    p_srv.add_argument("--scenario", default=None,
                       help="serve every design at this flow scenario "
                            "(e.g. clock_frac=0.7+eco=1, or a scenario "
                            "id like clock_frac0.7+eco1): what-ifs are "
                            "then asked at the swept clock / post-ECO "
                            "implementation (default: the plain flow)")

    p_prof = sub.add_parser(
        "profile",
        help="run one design end-to-end with tracing on; report per-stage "
             "runtime (Table III shape)")
    p_prof.add_argument("--design", default="xgate",
                        help="preset design to profile (default: xgate, "
                             "the smallest)")
    p_prof.add_argument("--designs", nargs="*", default=None,
                        help="profile several designs (with --jobs: built "
                             "in parallel, worker traces merged)")
    p_prof.add_argument("--jobs", type=int, default=None,
                        help="build the profiled designs in N parallel "
                             "worker processes")
    p_prof.add_argument("--scale", type=float, default=None,
                        help="shrink the preset design (e.g. 0.25)")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--epochs", type=int, default=2,
                        help="tiny training run so inference is realistic")
    p_prof.add_argument("--trace-out", type=Path,
                        default=Path("data/trace.jsonl"),
                        help="JSON-lines trace output path")
    p_prof.add_argument("--report-out", type=Path, default=None,
                        help="also write the aggregated report as JSON")

    for table in ("table1", "table2", "table3"):
        p_t = sub.add_parser(table, help=f"regenerate paper {table}")
        p_t.add_argument("--cache", type=Path, default=DEFAULT_CACHE)
        if table == "table2":
            p_t.add_argument("--epochs", type=int, default=120)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


# ----------------------------------------------------------------------
def cmd_flow(args) -> int:
    from repro.flow import FlowConfig, run_flow
    from repro.netlist.stats import compute_stats

    flow = run_flow(args.design, FlowConfig(
        with_opt=not args.no_opt, scale=args.scale, base_seed=args.seed))
    stats = compute_stats(flow.input_netlist)
    print(f"{stats.name}: {stats.n_cells} cells / {stats.n_pins} pins / "
          f"{stats.n_endpoints} endpoints, clock {flow.clock_period:.0f} ps")
    if flow.opt_report is not None:
        rep = flow.opt_report
        print(f"optimizer: {dict(sorted(rep.moves.items()))}")
        print(f"replaced: {rep.net_replaced_ratio:.1%} nets, "
              f"{rep.cell_replaced_ratio:.1%} cells")
    s = flow.signoff_sta
    print(f"sign-off: wns {s.wns:.0f} ps, tns {s.tns:.0f} ps")
    print(f"stage times: "
          f"{ {k: round(v, 2) for k, v in flow.timer.stages.items()} }")
    return 0


def cmd_report(args) -> int:
    from repro.flow import FlowConfig, run_flow
    from repro.timing.report import report_timing

    flow = run_flow(args.design, FlowConfig(scale=args.scale))
    print(report_timing(flow.signoff_sta, n_paths=args.paths))
    return 0


def cmd_dataset(args) -> int:
    from repro.flow import FlowConfig, expand_scenarios
    from repro.ml import build_dataset_report
    from repro.netlist import PAPER_DESIGNS

    from repro.timing import CornerSet

    # Scale-tier presets (``large``) are bench-only: opt in by naming
    # them explicitly (``--designs large``).
    designs = args.designs or sorted(PAPER_DESIGNS)
    config = FlowConfig(base_seed=args.seed, scale=args.scale,
                        corners=CornerSet.parse(args.corners).specs,
                        partition_pins=args.partition_pins)
    scenarios = (expand_scenarios(args.sweep or (), args.eco_rounds)
                 if args.sweep or args.eco_rounds else None)
    samples, report = build_dataset_report(
        designs, flow_config=config, cache_dir=args.cache, seed=args.seed,
        jobs=args.jobs, scenarios=scenarios)
    for s in samples:
        if s is not None:
            label = s.name if s.corner == "base" else f"{s.name}@{s.corner}"
            if s.scenario:
                label = f"{label}@{s.scenario}"
            print(f"{label:<10} endpoints {s.n_endpoints:>5}  "
                  f"nodes {s.n_nodes:>7}  pre {s.preprocess_time:.2f}s")
    print()
    print(report.format())
    return 0 if report.ok else 1


def cmd_train(args) -> int:
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.flow import FlowConfig, expand_scenarios
    from repro.ml import build_dataset
    from repro.netlist import TRAIN_DESIGNS
    from repro.timing import CornerSet

    corner_set = CornerSet.parse(args.corners)
    corner_names = corner_set.names
    scenarios = (expand_scenarios(args.sweep or (), args.eco_rounds)
                 if args.sweep or args.eco_rounds else None)
    train = build_dataset(list(TRAIN_DESIGNS),
                          flow_config=FlowConfig(
                              corners=corner_set.specs,
                              partition_pins=args.partition_pins),
                          cache_dir=args.cache, scenarios=scenarios)
    for seed in range(1, args.augment + 1):
        train += build_dataset(list(TRAIN_DESIGNS),
                               flow_config=FlowConfig(
                                   base_seed=seed, corners=corner_set.specs,
                                   partition_pins=args.partition_pins),
                               cache_dir=args.cache, seed=seed,
                               scenarios=scenarios)
    predictor = TimingPredictor(
        model_config=ModelConfig(variant=args.variant,
                                 corner_names=corner_names),
        trainer_config=TrainerConfig(epochs=args.epochs,
                                     endpoint_batch=args.endpoint_batch))
    predictor.fit(train)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    predictor.save(args.out)
    corner_note = (f", corners {','.join(corner_names)}"
                   if len(corner_names) > 1 else "")
    print(f"trained {args.variant} on {len(train)} samples "
          f"({args.epochs} epochs, {args.endpoint_batch}-endpoint "
          f"batches{corner_note}) -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    import time as _time

    from repro.core import TimingPredictor
    from repro.flow import FlowConfig
    from repro.ml import build_dataset
    from repro.timing import CornerSet

    try:
        predictor = TimingPredictor.load(args.model)
    except ValueError as exc:   # the message leads with the path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {args.model}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    predictor.set_partition(args.partition_pins)
    corner_set = CornerSet.parse(args.corners)
    corner_names = corner_set.names
    if len(corner_names) > 1:
        model_corners = predictor.model_config.corner_names
        unknown = [c for c in corner_names if c not in model_corners]
        if unknown:
            print(f"error: corner(s) {unknown} not in the model "
                  f"(trained on: {list(model_corners)})", file=sys.stderr)
            return 1
        samples = build_dataset(
            [args.design],
            flow_config=FlowConfig(corners=corner_set.specs,
                                   partition_pins=args.partition_pins),
            cache_dir=args.cache)
        # The dataset's corner indices follow the flow's corner order;
        # remap to the model's embedding indices before the forward.
        views = [s.corner_view(s.corner, model_corners.index(s.corner),
                               y=s.y) for s in samples]
        t0 = _time.perf_counter()
        arrays = predictor.predict_batch_arrays(views)
        ms = (_time.perf_counter() - t0) * 1e3
        print(f"{args.design}: {samples[0].n_endpoints} endpoints x "
              f"{len(corner_names)} corners, one packed forward "
              f"{ms:.0f} ms")
        for sample, pred in zip(samples, arrays):
            by_pin = dict(zip((int(p) for p in sample.endpoint_pins),
                              pred))
            ranked = sorted(by_pin.items(), key=lambda kv: -kv[1])
            ranked = ranked[:args.top]
            print(f"\n[{sample.corner}] "
                  f"{'endpoint pin':>12}  {'predicted arrival (ps)':>22}")
            for pin, val in ranked:
                print(f"{pin:>12}  {val:>22.1f}")
        return 0
    sample = build_dataset(
        [args.design],
        flow_config=FlowConfig(partition_pins=args.partition_pins),
        cache_dir=args.cache)[0]
    by_pin = predictor.predict(sample)
    print(f"{args.design}: {len(by_pin)} endpoints, inference "
          f"{predictor.infer_times[args.design] * 1e3:.0f} ms")
    ranked = sorted(by_pin.items(), key=lambda kv: -kv[1])[:args.top]
    print(f"{'endpoint pin':>12}  {'predicted arrival (ps)':>22}")
    for pin, val in ranked:
        print(f"{pin:>12}  {val:>22.1f}")
    return 0


class _BootCollector:
    """The cyclic garbage collector around a serving boot.

    A boot builds long-lived objects by the hundred thousand (imported
    modules, netlists, graphs, samples, the pool's unpickled results)
    and next to no garbage cycles, yet the collector would walk them
    again and again, once in a full pass while the pool's results are
    unpickled.  CPython's ``gc.freeze`` recipe keeps that off the serial
    path: creating this turns the collector off; :meth:`ready` freezes
    what the boot built into the permanent generation, which later
    passes skip, and turns it back on; :meth:`restore` unfreezes and
    leaves the collector as it was found.  A freeze can only be undone
    as a whole, so a caller that froze objects itself keeps its freeze
    and the boot adds none to it.
    """

    def __init__(self) -> None:
        self.was_enabled = gc.isenabled()
        self.may_freeze = gc.get_freeze_count() == 0
        gc.disable()

    def resume(self) -> None:
        """Collector back on (if it was), nothing frozen: for boot work
        that makes garbage, such as a bootstrap's training."""
        if self.was_enabled:
            gc.enable()

    def ready(self) -> None:
        if self.may_freeze:
            gc.freeze()
        self.resume()

    def restore(self) -> None:
        if self.may_freeze:
            gc.unfreeze()
        if self.was_enabled:
            gc.enable()
        else:
            gc.disable()


def cmd_serve(args) -> int:
    """Load (or bootstrap) a predictor, open sessions, serve HTTP.

    Both modes serve through the async gateway, with graceful drain on
    SIGTERM.  ``--workers 0`` (default) keeps the sessions in this
    process; ``--workers N`` starts the sharded fleet: N worker
    processes that inherit the read-only predictor by fork.  The
    boot runs with the collector off (see :class:`_BootCollector`),
    imports included.
    """
    collector = _BootCollector()
    try:
        return _serve(args, collector)
    finally:
        collector.restore()


def _serve(args, collector: _BootCollector) -> int:
    import signal

    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.flow import FlowConfig
    from repro.serve import (
        FleetConfig,
        FleetOpenFailed,
        InProcessBackend,
        MicroBatcher,
        SessionFactory,
        TimingFleet,
        TimingGateway,
    )
    from repro.timing import CornerSet

    corner_set = CornerSet.parse(args.corners)
    corner_names = corner_set.names
    have_model = args.model.exists()
    if have_model:
        # Load the artifact before paying for any flow.
        try:
            predictor = TimingPredictor.load(args.model)
        except ValueError as exc:   # the message leads with the path
            print(f"error: {exc}", file=sys.stderr)
            return 1
        map_bins = predictor.model_config.map_bins
        model_corners = list(predictor.model_config.corner_names)
        missing = [c for c in corner_names if c not in model_corners]
        if missing:
            print(f"error: corner(s) {missing} not in model "
                  f"{args.model} (trained on: {model_corners})",
                  file=sys.stderr)
            return 1
    else:
        model_config = ModelConfig(corner_names=corner_names)
        map_bins = model_config.map_bins

    flow_config = FlowConfig(scale=args.scale, base_seed=args.seed,
                             corners=corner_set.specs,
                             partition_pins=args.partition_pins)
    if have_model:
        # Every design is built by name where its session lives
        # (SessionFactory.open runs the pre-route stages there): in this
        # process with --workers 0, in its fleet worker otherwise.
        designs, inputs, train = {d: d for d in args.designs}, {}, []
    else:
        # One forked task per design runs the full flow for the labeled
        # bootstrap samples and keeps its PreRouteDesign (plus, for
        # in-process sessions, the model inputs).  The pool has exited
        # before anything below binds, starts a thread or forks.
        from repro.ml.dataset import boot_designs

        built, report = boot_designs(
            args.designs, flow_config, scenario=args.scenario,
            map_bins=map_bins if args.workers == 0 else None,
            seed=args.seed, partition_pins=args.partition_pins,
            jobs=min(len(os.sched_getaffinity(0)), len(args.designs)),
            train_bins=map_bins)
        if report.failed:
            details = "; ".join(f"{s.design}: {s.error}"
                                for s in report.failed)
            print(f"error: flow failed for {details}", file=sys.stderr)
            return 1
        designs = {d: pre for d, (pre, _, _) in zip(args.designs, built)}
        inputs = {d: inp for d, (_, inp, _) in zip(args.designs, built)}
        # The bootstrap samples are the only labels the boot held.
        train = [s for _, _, samples in built for s in samples or ()]
        del built

    if not have_model:
        print(f"model {args.model} not found; bootstrapping a "
              f"{args.bootstrap_epochs}-epoch predictor on "
              f"{sorted(designs)}")
        collector.resume()
        predictor = TimingPredictor(
            model_config=model_config,
            trainer_config=TrainerConfig(epochs=args.bootstrap_epochs))
        predictor.fit(train)
    del train
    # The process's one model: every session infers through it, and
    # fleet workers inherit it by fork.
    if args.precision != predictor.precision:
        predictor.set_precision(args.precision)
    predictor.mark_read_only()

    config = FleetConfig(workers=args.workers, threads=args.threads,
                         microbatch=args.microbatch,
                         microbatch_wait_ms=args.microbatch_wait_ms,
                         deadline_s=args.deadline,
                         queue_depth=args.queue_depth,
                         session_ttl_s=args.session_ttl,
                         # Ship *specs*: workers re-parse them, which
                         # re-registers any custom corners over there.
                         corners=corner_set.specs,
                         partition_pins=args.partition_pins,
                         flow_config=flow_config, scenario=args.scenario)
    if args.workers > 0:
        try:
            backend = TimingFleet(predictor, designs, config,
                                  seeds={d: args.seed for d in designs}
                                  ).start()
        except FleetOpenFailed as exc:
            print(f"error: flow failed for {exc}", file=sys.stderr)
            return 1
    else:
        from repro.utils.blas import cpu_share, limit_blas_threads

        # The threads that run the model's GEMMs share the CPUs, as
        # fleet workers do: the batcher's one thread when it is on,
        # else every request thread.
        blas_threads = limit_blas_threads(
            cpu_share(1 if args.microbatch > 1 else args.threads))
        batcher = None
        if args.microbatch > 1:
            batcher = MicroBatcher(predictor,
                                   max_batch=args.microbatch,
                                   max_wait_s=args.microbatch_wait_ms * 1e-3)
        factory = SessionFactory(lambda: predictor, batcher=batcher,
                                 flow_config=flow_config,
                                 corners=corner_names,
                                 default_seed=args.seed,
                                 scenario=args.scenario)
        sessions, failures = {}, {}
        for d in args.designs:
            try:
                sessions[d] = factory.open(designs[d], sample=inputs.get(d))
            except Exception as exc:
                failures[d] = f"{type(exc).__name__}: {exc}"
        if failures:
            if batcher is not None:
                batcher.stop()
            # The fleet's error line, for the same failure.
            print(f"error: flow failed for {FleetOpenFailed(failures)}",
                  file=sys.stderr)
            return 1
        # The sessions own their designs now, so a session evicted by
        # DELETE or the idle TTL leaves nothing of its design behind.
        del designs, inputs
        backend = InProcessBackend(sessions, config, batcher=batcher,
                                   blas_threads=blas_threads)
    gateway = TimingGateway(
        backend, host=args.host, port=args.port,
        model_info={"name": "default", **predictor.describe(
            str(args.model) if have_model else "<memory>")})
    host, port = gateway.bind()
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: gateway.request_drain())
    collector.ready()
    print(f"serving {sorted(set(args.designs))} on http://{host}:{port} "
          f"({args.workers} workers)", flush=True)
    gateway.serve_forever()
    return 0


def cmd_profile(args) -> int:
    """End-to-end flow + predictor under tracing; aggregated stage report.

    Covers every reference-flow stage (place, opt, route, sta) and both
    predictor stages (pre, infer); the printed table is the trace-derived
    Table III for the profiled design(s).  With ``--jobs N`` the designs
    are built in parallel worker processes and the per-worker traces are
    merged back, so the table still covers every stage of every design.
    """
    import json

    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.flow import FlowConfig, run_flow
    from repro.obs import configure_tracing, get_metrics
    from repro.obs.profile import aggregate_trace

    configure_tracing(enabled=True, jsonl_path=str(args.trace_out))
    predictor = TimingPredictor(
        model_config=ModelConfig(variant="full"),
        trainer_config=TrainerConfig(epochs=args.epochs))
    if args.jobs is not None and args.jobs > 1:
        from repro.ml import build_dataset

        designs = args.designs or [args.design]
        samples = build_dataset(
            designs,
            flow_config=FlowConfig(scale=args.scale, base_seed=args.seed),
            seed=args.seed, jobs=args.jobs)
        predictor.fit([samples[0]])
        for sample in samples:
            predictor.predict(sample)
    else:
        flow = run_flow(args.design, FlowConfig(
            scale=args.scale, base_seed=args.seed))
        sample = predictor.preprocess(flow, seed=args.seed)
        predictor.fit([sample])
        predictor.predict(sample)

    # The JSONL sink saw every span; the tracer's in-memory ring keeps
    # only the most recent ones.
    report = aggregate_trace(str(args.trace_out))
    print(report.format())
    print()
    print("metrics snapshot:")
    for name, value in get_metrics().snapshot().items():
        print(f"  {name} = {value}")
    print(f"\ntrace: {args.trace_out} ({report.n_events} events)")
    if args.report_out is not None:
        args.report_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report: {args.report_out}")
    return 0


def cmd_table1(args) -> int:
    from repro.eval.experiments import format_table1, run_table1
    from repro.netlist import PAPER_DESIGNS

    print(format_table1(run_table1(sorted(PAPER_DESIGNS))))
    return 0


def cmd_table2(args) -> int:
    from repro.eval.experiments import format_table2, run_table2
    from repro.flow import FlowConfig
    from repro.ml import build_dataset
    from repro.netlist import TEST_DESIGNS, TRAIN_DESIGNS

    train = build_dataset(list(TRAIN_DESIGNS), cache_dir=args.cache)
    train += build_dataset(list(TRAIN_DESIGNS),
                           flow_config=FlowConfig(base_seed=1),
                           cache_dir=args.cache, seed=1)
    test = build_dataset(list(TEST_DESIGNS), cache_dir=args.cache)
    print(format_table2(run_table2(train, test, epochs=args.epochs)))
    return 0


def cmd_table3(args) -> int:
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.eval.experiments import format_table3, run_table3
    from repro.ml import build_dataset
    from repro.netlist import TEST_DESIGNS, TRAIN_DESIGNS

    train = build_dataset(list(TRAIN_DESIGNS), cache_dir=args.cache)
    everything = train + build_dataset(list(TEST_DESIGNS),
                                       cache_dir=args.cache)
    predictor = TimingPredictor(
        model_config=ModelConfig(variant="full"),
        trainer_config=TrainerConfig(epochs=20))
    predictor.fit(train)
    print(format_table3(run_table3(everything, predictor)))
    return 0


COMMANDS = {
    "flow": cmd_flow,
    "report": cmd_report,
    "dataset": cmd_dataset,
    "train": cmd_train,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "profile": cmd_profile,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
}


if __name__ == "__main__":
    sys.exit(main())
