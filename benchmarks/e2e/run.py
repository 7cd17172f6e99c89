#!/usr/bin/env python3
"""End-to-end benchmark of both loops: flow build and what-if serving.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE] [--smoke]

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same command.)
Without ``--workload`` every workload runs, each in a fresh child.

One run: the flow job builds and trains in a fresh interpreter (for
the serving workloads once per checkout, see ``system.cached_flow_job``);
``repro serve`` boots on its model (several times, for ``setup_s``);
the workload's traffic runs against the last boot from keep-alive
clients; then the output checks.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` repeats the run with one boot and adds an
in-process replay with every layer wrapped, printing the per-layer
metrics.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out``
appends the full result record, one JSON line per run.  The exit code
is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
SMOKE_SECONDS = 1.0
#: Epochs of the traced run's in-process fit.
TRACE_EPOCHS = 3

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import percentiles  # noqa: E402
import streams  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_WHATIFS, CLIENTS, FULL, GOLDEN_SEEDS, SMOKE, WORKLOADS, smoke)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="end-to-end benchmark: flow build and what-if serving")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all, each in a child)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of every generated input")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds (default: BENCHMARK.json "
                        "run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a wrapped replay")
    p.add_argument("--out", type=Path, default=None,
                   help="append the run's result record (JSON line)")
    p.add_argument("--smoke", action="store_true",
                   help="one small design, one boot, short runs")
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload is None:
        return run_all(args)
    record = run_one(args)
    print_report(record, spec)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    names = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in names},
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return worst


# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> Dict:
    import system
    from checks import check_against_reference, check_goldens
    from inproc import InProcessSystem

    workload = WORKLOADS[args.workload]
    profile = SMOKE if args.smoke else FULL
    if args.smoke:
        workload = smoke(workload)
    traced = bool(args.trace)
    seconds = float(args.seconds)
    work = WORK / f"{os.getpid()}-{workload.name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = dict(designs=list(workload.designs), scale=workload.scale,
                    corners=list(workload.corners))
        if workload.traffic == "none":
            # flow-build times cold passes at run-seeded design seeds.
            job_dir = work
            job = system.run_flow_job(dict(
                spec, seconds=seconds,
                pass_seeds=[(args.seed + i) % GOLDEN_SEEDS
                            for i in range(GOLDEN_SEEDS)]), work)
        else:
            job, job_dir = system.cached_flow_job(
                dict(spec, seconds=0.0, pass_seeds=[0]))
        model = job_dir / "model.pkl"
        with open(job_dir / "flows.pkl", "rb") as fh:
            flows = pickle.load(fh)
        menus = [streams.menu_from_flow(flows[d]) for d in workload.designs]
        serve_seed = job["serve_seed"]
        serve_args = ["--designs", *workload.designs,
                      "--scale", str(workload.scale),
                      "--seed", str(serve_seed),
                      "--model", str(model),
                      "--workers", str(workload.workers),
                      "--corners", workload.corner_arg]
        setups: List[float] = []
        setup_rss: List[float] = []
        server = None
        try:
            for boot in range(1 if traced else profile.boots):
                if server is not None:
                    server.stop()
                server = system.Server(serve_args, workload.designs,
                                       work / f"serve{boot}.log")
                setups.append(server.wait_ready())
                setup_rss.append(server.setup_rss_mb)
            connect = loadgen.over_http(server.address)
            timed = drive(connect, workload, args.seed, menus,
                          profile.warmup_s, seconds, "timed")
            check = loadgen.sequential(
                connect, check_requests(workload, args.seed, menus), "check")
            peak_rss_mb = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        reference = InProcessSystem(flows, model, workload.corners,
                                    serve_seed)
        try:
            failures = check_against_reference(reference, timed, check)
        finally:
            reference.close()
        failures += check_goldens(job["passes"], workload.scale)

        samples = timed + check
        record = base_record(args, workload, seconds, samples, job, setups)
        record["failures"] = failures
        record["correct"] = not failures
        if traced:
            replay = traced_replay(workload, args.seed, menus, profile,
                                   model, serve_seed)
            record["metrics"] = layer_metrics(workload, samples, job, replay)
            record["metrics"]["serve.peak_rss_mb"] = peak_rss_mb
            record["samples"] = {}
            record["failed"] += replay["failed"]
            record["attempted"] += replay["attempted"]
        else:
            record["metrics"], record["samples"] = e2e_metrics(
                workload, samples, job, setups, setup_rss)
        record["tails"] = tails(workload, samples)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass    # the flow-job cache, or another run, is still in it


def check_requests(workload, seed: int, menus):
    return streams.check_set(workload.name, seed, menus, workload.edit,
                             CHECK_WHATIFS)


def drive(connect, workload, seed: int, menus, warmup_s: float,
          seconds: float, stream: str) -> List[loadgen.Sample]:
    """Warm-up plus the timed phase of the workload's traffic, drawn
    from the seeded streams named *stream*."""
    if workload.traffic == "closed":
        clients = [streams.client_stream(workload.name, seed, f"{stream}{i}",
                                         menus, workload.edit)
                   for i in range(CLIENTS)]
        return loadgen.closed_loop(connect, clients, warmup_s, seconds)
    if workload.traffic == "open":
        schedule = streams.open_schedule(
            workload.name, seed, menus, workload.rate_rps,
            workload.write_share, warmup_s + seconds, workload.edit, stream)
        return loadgen.open_loop(connect, schedule, CLIENTS, warmup_s)
    return []   # flow-build: no traffic besides the check set


# ----------------------------------------------------------------------
# What each metric is computed from
# ----------------------------------------------------------------------
def primary(workload, samples: Sequence[loadgen.Sample]
            ) -> List[loadgen.Sample]:
    """The requests the workload's latency describes (flow-build: the
    check set's what-ifs, for the tail report only)."""
    if workload.traffic == "none":
        return [s for s in samples
                if s.phase == "check" and s.request.kind == "whatif"]
    measured = [s for s in samples if s.phase == "measure"]
    if workload.traffic == "open":
        return [s for s in measured if s.request.kind == "read"]
    return measured


def of_kind(samples, kinds) -> List[loadgen.Sample]:
    """Timed-phase samples of *kinds*, or check-phase ones if the timed
    phase has none (reads outside predict-mix; all of flow-build)."""
    timed = [s for s in samples if s.phase == "measure"
             and s.request.kind in kinds and s.ok]
    return timed or [s for s in samples if s.phase == "check"
                     and s.request.kind in kinds and s.ok]


def unit_latencies_ms(workload, samples, job) -> List[float]:
    """Latencies of the workload's unit of work: its flow passes on
    flow-build, its primary requests otherwise."""
    if workload.traffic == "none":
        return [p["seconds"] * 1e3 for p in job["passes"]]
    return [s.latency_ms for s in primary(workload, samples) if s.ok]


def e2e_metrics(workload, samples, job, setups, setup_rss):
    """``({metric: value}, {metric: sample count})``: the end-to-end
    metrics, plus ``latency_p50_ms``, recorded for the trend but not
    bounded because it does not repeat within 10% (see the README)."""
    work_ms = unit_latencies_ms(workload, samples, job)
    metrics = {
        "setup_s": percentiles.median(setups),
        "setup_rss_mb": percentiles.median(setup_rss),
        "latency_p50_ms": percentiles.median(work_ms),
    }
    counts = {"setup_s": len(setups), "setup_rss_mb": len(setup_rss),
              "latency_p50_ms": len(work_ms)}
    return metrics, counts


def tails(workload, samples) -> Dict[str, object]:
    """Highest supported tail percentiles, with their labels and counts."""
    out = {}
    for name, values in (
            ("latency", [s.latency_ms for s in primary(workload, samples)]),
            ("lag", [s.lag_ms for s in primary(workload, samples)])):
        t = percentiles.tail(values)
        label, value = t if t else ("max", max(values))
        out[name] = {"label": label, "value": value, "n": len(values)}
    return out


def base_record(args, workload, seconds, samples, job, setups) -> Dict:
    import numpy

    phases: Dict[str, Dict[str, int]] = {}
    for s in samples:
        p = phases.setdefault(s.phase, {"sent": 0, "succeeded": 0,
                                        "failed": 0})
        p["sent"] += 1
        p["succeeded" if s.ok else "failed"] += 1
    if workload.traffic == "none":
        # Flow passes are flow-build's measured work; the other workloads'
        # flow job is shared by every run (``system.cached_flow_job``).
        builds = sum(p["designs"] for p in job["passes"])
        phases["flow"] = {"sent": builds + 1, "succeeded": builds + 1,
                          "failed": 0}
    phases["boot"] = {"sent": len(setups), "succeeded": len(setups),
                      "failed": 0}
    return {
        "workload": workload.name, "seed": args.seed, "seconds": seconds,
        "traced": bool(args.trace), "smoke": args.smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "phases": phases,
        "attempted": sum(p["sent"] for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
    }


def git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_replay(workload, seed: int, menus, profile, model: Path,
                  serve_seed: int) -> Dict:
    """Flow pass, fit and serving replays in-process, layers wrapped."""
    from flowjob import build_pass
    from inproc import InProcessSystem, Replay
    from layers import Recorder
    from repro.core import ModelConfig, TimingPredictor, TrainerConfig
    from repro.ml.plancache import PLAN_CACHE

    rec = Recorder()
    rec.install()
    try:
        rec.phase = "flow"
        flows, samples = build_pass(workload.designs, workload.scale,
                                    workload.corners, serve_seed)
        rec.phase = "train"
        t0 = time.perf_counter()
        TimingPredictor(ModelConfig(corner_names=workload.corners),
                        TrainerConfig(epochs=TRACE_EPOCHS)).fit(samples)
        epoch_s = (time.perf_counter() - t0) / TRACE_EPOCHS
    finally:
        rec.phase = None
        rec.uninstall()
    counts = {
        "flow.pins": sum(len(f.input_netlist.pins) for f in flows.values()),
        "opt.moves": sum(sum(f.opt_report.moves.values())
                         for f in flows.values() if f.opt_report),
    }

    # Sessions bind the batcher's ``submit`` when they open, so the wrapped
    # replay needs sessions opened after the wrappers are installed: each
    # replay gets its own system over its own copy of the flows, warmed
    # by the same unmeasured requests first.
    replay_s = profile.replay_s
    system = InProcessSystem(copy.deepcopy(flows), model,
                             workload.corners, serve_seed)
    try:
        replay_stream(Replay(system), workload, seed, menus, replay_s / 4,
                      "warm")
        plain = Replay(system)
        replay_stream(plain, workload, seed, menus, replay_s, "replay")
    finally:
        system.close()
    rec.install()
    try:
        system = InProcessSystem(flows, model, workload.corners,
                                 serve_seed)
        try:
            replay_stream(Replay(system), workload, seed, menus,
                          replay_s / 4, "warm")
            rec.phase = "serve"
            plan0 = PLAN_CACHE.describe()
            wrapped = Replay(system, rec)
            replay_stream(wrapped, workload, seed, menus, replay_s, "replay")
            overhead = (percentiles.median(wrapped.service_s)
                        / percentiles.median(plain.service_s) - 1.0) * 100.0
            if workload.traffic != "none":
                loadgen.sequential(lambda: wrapped,
                                   check_requests(workload, seed, menus),
                                   "check")
            plan1 = PLAN_CACHE.describe()
        finally:
            rec.phase = None
            system.close()
    finally:
        rec.uninstall()
    hits = plan1["hits"] - plan0["hits"]
    misses = plan1["misses"] - plan0["misses"]
    return {"recorder": rec, "counts": counts, "epoch_s": epoch_s,
            "overhead_pct": overhead, "replay": wrapped,
            "plan_hit_ratio": hits / max(hits + misses, 1),
            "attempted": len(plain.service_s) + len(wrapped.service_s),
            "failed": plain.failed + wrapped.failed}


def replay_stream(replay, workload, seed: int, menus, seconds: float,
                  stream: str) -> None:
    """*seconds* of the workload's traffic (its check set on flow-build),
    drawn from the seeded streams named *stream*, through *replay*."""
    connect = lambda: replay     # noqa: E731
    if workload.traffic == "none":
        loadgen.sequential(connect, check_requests(workload, seed, menus),
                           stream)
    else:
        drive(connect, workload, seed, menus, 0.0, seconds, stream)


def layer_metrics(workload, samples, job, replay: Dict) -> Dict[str, float]:
    from layers import FLOW_STAGES

    rec = replay["recorder"]
    wrapped = replay["replay"]
    out: Dict[str, float] = {f"flow.{s}_s": rec.total_s(f"flow.{s}")
                             for s in FLOW_STAGES}
    out.update(replay["counts"])
    whatifs = max(rec.calls("serve.session.whatif"), 1)
    submits = max(rec.calls("serve.batcher.submit"), 1)
    reads = of_kind(samples, ("read",))
    writes = of_kind(samples, ("whatif", "commit"))
    read_p50 = percentiles.median([(s.done - s.sent) * 1e3 for s in reads])
    dispatch = percentiles.median(wrapped.read_dispatch_s) * 1e3
    serialize = percentiles.median(wrapped.read_serialize_s) * 1e3
    out.update({
        "ml.featurize_s": rec.total_s("ml.featurize"),
        "ml.pack_s": rec.total_s("ml.pack"),
        "core.train.epoch_s": replay["epoch_s"],
        "core.train.forward_s": (rec.total_s("core.train.forward")
                                 / TRACE_EPOCHS),
        "core.train.backward_s": (rec.total_s("core.train.backward")
                                  / TRACE_EPOCHS),
        "serve.session.whatif_ms": rec.mean_ms("serve.session.whatif"),
        "serve.session.apply_ms": rec.mean_ms("serve.session.apply"),
        "serve.session.lock_wait_ms": rec.mean_ms("serve.session.lock"),
        "serve.session.layer_share": (
            1.0 - rec.self_s("serve.session.whatif")
            / max(rec.total_s("serve.session.whatif"), 1e-12)),
        "serve.featurize.refresh_ms": rec.mean_ms("serve.featurize.refresh"),
        "serve.featurize.refresh_calls": (
            rec.calls("serve.featurize.refresh") / whatifs),
        "timing.incremental.refresh_ms": rec.mean_ms(
            "timing.incremental.refresh"),
        "serve.batcher.submit_ms": rec.mean_ms("serve.batcher.submit"),
        "serve.batcher.wait_ms": (
            (rec.total_s("serve.batcher.submit")
             - rec.counts["batcher.slot_run_s"]) / submits * 1e3),
        "serve.batcher.designs_per_forward": (
            rec.counts["predict_batch.samples"]
            / max(rec.calls("core.predict_batch"), 1)),
        "core.predict_batch_ms": rec.mean_ms("core.predict_batch"),
        "ml.batch.pack_ms": rec.mean_ms("ml.batch.pack"),
        "core.gnn.forward_ms": rec.mean_ms("core.gnn.forward"),
        "core.cnn.forward_ms": rec.mean_ms("core.cnn.forward"),
        "core.head_ms": (rec.self_s("core.head") * 1e3
                         / max(rec.calls("core.head"), 1)),
        "ml.plancache.hit_ratio": replay["plan_hit_ratio"],
        "serve.overhead_ms": percentiles.median(
            [(s.done - s.sent) * 1e3 - json.loads(s.body)["latency_ms"]
             for s in writes]),
        "serve.read.dispatch_ms": dispatch,
        "serve.read.serialize_ms": serialize,
        "serve.read.transport_ms": read_p50 - dispatch - serialize,
        "serve.read.infer_ratio": (rec.counts["read.inferred"]
                                   / max(rec.counts["read.requests"], 1)),
        "client.read_p50_ms": read_p50,
        "client.whatif_p50_ms": percentiles.median(
            [(s.done - s.sent) * 1e3 for s in writes]),
        "trace.overhead_pct": replay["overhead_pct"],
    })
    out["latency_p50_ms"] = percentiles.median(
        unit_latencies_ms(workload, samples, job))
    t = tails(workload, samples)
    out["client.latency_tail_ms"] = t["latency"]["value"]
    out["client.lag_tail_ms"] = t["lag"]["value"]
    return out


# ----------------------------------------------------------------------
def print_report(record: Dict, spec: Dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  traced {record['traced']}  "
          f"nproc {record['nproc']}  python {record['python']}  "
          f"numpy {record['numpy']}")
    print(f"{'phase':<8} {'sent':>6} {'succeeded':>10} {'failed':>7}")
    for name, p in record["phases"].items():
        print(f"{name:<8} {p['sent']:>6} {p['succeeded']:>10} "
              f"{p['failed']:>7}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"{name:<36} {value:>14.6g} {units.get(name, ''):<9}"
              + (f" n={n}" if n is not None else ""))
    for name, t in record["tails"].items():
        print(f"{name} tail: {t['label']} = {t['value']:.4g} ms "
              f"(n={t['n']})")
    if record["failures"]:
        print(f"output checks FAILED ({len(record['failures'])}):")
        for f in record["failures"]:
            print(f"  {f}")
    else:
        print("output checks passed")


if __name__ == "__main__":
    sys.exit(main())
