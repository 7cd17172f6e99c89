"""Peak-memory benchmark for partitioned (streaming) execution.

The tentpole claim of the partition subsystem is *bounded working set at
bit-identical output*: featurization and GNN inference over the
``large`` preset (≥100k timing-graph pins) must run under a peak-RSS
ceiling that the whole-graph run (mode ``full``: the one-chunk stream
plan) exceeds, while producing the exact same endpoint embeddings.

``ru_maxrss`` is a process-lifetime high-water mark — it can never go
back down — so the two modes cannot share a process: this file doubles
as a child program (``python benchmarks/bench_partition.py --mode
stream ...``) that builds the design, runs one forward, and prints its
memory accounting as JSON.  The pytest entry point launches one child
per mode, checks the bit-identity checksums, asserts the ceiling, and
emits ``BENCH_partition.json``.

``REPRO_BENCH_QUICK=1`` shrinks the design (CI smoke); the ceiling then
scales with the graph, and the full-path-exceeds assertion is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: Streamed chunk-size hint used by the benchmark (pins per chunk).
PARTITION_PINS = 4000
#: GNN width — wide enough that the whole-graph buffer dwarfs the
#: per-chunk one (112k nodes × 128 × 8 B ≈ 115 MB for ``large``).
HIDDEN = 128

_CHILD_ENV = "REPRO_BENCH_PARTITION_CHILD"


def _current_rss_kb() -> int:
    """Resident set size *now* (kB), from ``/proc/self/statm``."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _peak_rss_kb() -> int:
    """Process-lifetime peak RSS (kB), via ``resource.getrusage``."""
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _build_inputs(design: str, scale, seed: int, pins):
    """Netlist → placement → graph → features → GNN-ready sample.

    Deliberately *not* the full reference flow: optimization/routing/STA
    contribute nothing to the forward under test and would dominate the
    child's runtime on a 30k-cell design.  A few placer iterations give
    realistic (non-degenerate) feature values.
    """
    from types import SimpleNamespace

    import numpy as np

    from repro.ml import build_level_plans, node_features
    from repro.netlist import DESIGN_PRESETS
    from repro.netlist.generator import generate_netlist
    from repro.placement import PlacerConfig, build_die, place
    from repro.timing import build_timing_graph

    spec = DESIGN_PRESETS[design]
    if scale:
        spec = spec.scaled(scale)
    nl = generate_netlist(spec, seed)
    die = build_die(nl, spec, seed)
    placement = place(nl, die, PlacerConfig(n_iterations=4, seed=seed))
    graph = build_timing_graph(nl)
    x_cell, x_net = node_features(nl, placement, graph, partition=pins)
    return SimpleNamespace(
        name=spec.name,
        n_nodes=graph.n_nodes,
        level=graph.level,
        plans=build_level_plans(graph),
        x_cell=x_cell,
        x_net=x_net,
        endpoint_nodes=graph.endpoints,
        source_nodes=np.where(graph.level == 0)[0],
        partition_pins=pins,
    )


def _child_main(argv) -> int:
    """Build, forward once in the requested mode, print JSON accounting."""
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("full", "stream"), required=True)
    ap.add_argument("--pins", type=int, default=PARTITION_PINS)
    ap.add_argument("--hidden", type=int, default=HIDDEN)
    ap.add_argument("--design", default="large")
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    import numpy as np

    from repro.core.gnn import EndpointGNN
    from repro.ml.features import CELL_FEATURE_DIM, NET_FEATURE_DIM
    from repro.nn import inference_mode
    from repro.timing.partition import build_stream_plan

    stream_mode = args.mode == "stream"
    sample = _build_inputs(args.design, args.scale, args.seed,
                           args.pins if stream_mode else None)
    # residual=False keeps the branch MLPs randomly initialized (the
    # residual recipe zero-inits them), so the checksum actually
    # exercises every matmul.
    gnn = EndpointGNN(args.hidden, CELL_FEATURE_DIM, NET_FEATURE_DIM,
                      np.random.default_rng(args.seed), residual=False)
    # Both modes run the one inference path; "full" is the one-chunk
    # plan, so it still holds whole-graph buffers.
    plan = build_stream_plan(sample, args.pins if stream_mode else None)

    rss_before_kb = _current_rss_kb()
    peak_before_kb = _peak_rss_kb()
    t0 = time.perf_counter()
    # inference_mode matches the serving path (and the streaming memory
    # contract): no layer caches a backward activations stack.
    with inference_mode():
        out = gnn.forward_stream(sample, plan)
    forward_s = time.perf_counter() - t0
    peak_after_kb = _peak_rss_kb()

    print(json.dumps({
        "mode": args.mode,
        "pins": args.pins if stream_mode else None,
        "n_chunks": len(plan.chunks),
        "hidden": args.hidden,
        "n_nodes": int(sample.n_nodes),
        "n_endpoints": int(len(sample.endpoint_nodes)),
        "rss_before_kb": rss_before_kb,
        "peak_before_kb": peak_before_kb,
        "peak_after_kb": peak_after_kb,
        "forward_delta_kb": peak_after_kb - peak_before_kb,
        "forward_s": round(forward_s, 4),
        "checksum": hashlib.sha256(
            np.ascontiguousarray(out, dtype=np.float64).tobytes()
        ).hexdigest(),
    }))
    return 0


def _run_child(mode: str, scale) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--mode", mode]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    env = dict(os.environ, **{_CHILD_ENV: "1"})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=900)
    assert proc.returncode == 0, \
        f"{mode} child failed:\n{proc.stdout}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mem_available_kb() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1 << 62  # unknown — don't skip


def test_bench_partition(benchmark):
    import pytest

    from benchmarks.conftest import emit_bench, run_once

    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    scale = 0.3 if quick else None
    # The full-mode child materializes the whole-graph buffer plus both
    # hoisted feature branches; leave generous headroom before running.
    if _mem_available_kb() < (1 << 21):  # 2 GB
        pytest.skip("not enough available RAM for the full-mode child")

    def scenario():
        return _run_child("stream", scale), _run_child("full", scale)

    stream, full = run_once(benchmark, scenario)

    assert stream["checksum"] == full["checksum"], \
        "streamed forward is not bit-identical to the whole-graph forward"
    if not quick:
        assert full["n_nodes"] >= 100_000, \
            f"'large' must exercise >=100k pins, got {full['n_nodes']}"

    # Ceiling: half of the whole-graph propagation buffer.  The full
    # path must allocate that buffer (plus feature branches), so it
    # always exceeds the ceiling; the streamed path's working set is one
    # ~PARTITION_PINS-pin chunk plus the live frontier, far under it.
    ceiling_kb = (full["n_nodes"] + 1) * HIDDEN * 8 // 2 // 1024
    assert stream["forward_delta_kb"] <= ceiling_kb, \
        (f"streamed forward peak-RSS delta {stream['forward_delta_kb']} kB "
         f"exceeds the {ceiling_kb} kB ceiling")
    assert full["forward_delta_kb"] > ceiling_kb, \
        (f"whole-graph forward stayed under the ceiling "
         f"({full['forward_delta_kb']} <= {ceiling_kb} kB) — "
         f"the benchmark is no longer measuring anything")

    emit_bench("partition", {
        "quick": quick,
        "design": "large",
        "partition_pins": stream["pins"],
        "n_chunks": stream["n_chunks"],
        "hidden": HIDDEN,
        "n_nodes": full["n_nodes"],
        "n_endpoints": full["n_endpoints"],
        "ceiling_kb": ceiling_kb,
        "stream_forward_delta_kb": stream["forward_delta_kb"],
        "full_forward_delta_kb": full["forward_delta_kb"],
        "peak_ratio": round(full["forward_delta_kb"]
                            / max(stream["forward_delta_kb"], 1), 2),
        "stream_forward_s": stream["forward_s"],
        "full_forward_s": full["forward_s"],
        "bit_identical": True,
    })
    print(f"\npartitioned execution on 'large' ({full['n_nodes']} pins, "
          f"hidden {HIDDEN}): stream peak +{stream['forward_delta_kb']} kB "
          f"({stream['n_chunks']} chunks) vs full "
          f"+{full['forward_delta_kb']} kB, ceiling {ceiling_kb} kB, "
          f"checksums equal")


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
