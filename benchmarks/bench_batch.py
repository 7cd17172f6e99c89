"""Packed-batch engine — one multi-design forward vs. the per-design loop.

The packed execution engine (:mod:`repro.ml.batch`) disjoint-unions many
design graphs into one and runs a single forward pass; its win is
amortizing the per-call overhead (python dispatch per level/layer, cache
bookkeeping, small-matrix BLAS calls) across designs.  This benchmark
packs a fleet of samples, measures the per-design ``predict_array`` loop
against one ``predict_batch_arrays`` call, asserts the packed path's
speedup, and — because a fast wrong answer is worthless — re-checks the
fp-equivalence contract (packed == per-design to 1e-9 relative) on the
same fleet.

Timing uses the best of ``REPEATS`` runs: on a small shared machine the
minimum is the schedule-noise-free estimate of each path's cost, and
taking it for *both* paths keeps the comparison fair.
"""

import time

import numpy as np

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.core.predictor import FP32_TOLERANCE
from repro.flow import FlowConfig, run_flow
from repro.ml.batch import PackedBatch
from repro.ml.dataset import build_sample
from repro.ml.plancache import PLAN_CACHE
from repro.nn import inference_mode, workspace
from repro.timing import stream_plan_for

from benchmarks.conftest import emit_bench, run_once

DESIGNS = ("xgate", "steelcore")
#: Small designs make the sharpest contrast: each per-design call is
#: dominated by fixed dispatch overhead, which packing amortizes away.
FLOW_CONFIG = FlowConfig(scale=0.05, base_seed=0)
MAP_BINS = 32
FLEET = 32       # samples per packed inference
REPEATS = 20     # timing repeats (minimum taken)


def _fleet_samples():
    base = [build_sample(run_flow(d, FLOW_CONFIG), map_bins=MAP_BINS,
                         seed=0) for d in DESIGNS]
    return [base[i % len(base)] for i in range(FLEET)], base


def _fitted_predictor(samples) -> TimingPredictor:
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=MAP_BINS),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit(samples)
    return predictor


def _best_time(fn) -> float:
    return _best_times(fn)[0]


def _best_times(*fns) -> list:
    """Best-of-``REPEATS`` for each fn, with the repeats *interleaved*.

    Timing each shape in its own consecutive block lets machine-load
    drift between blocks masquerade as a real difference; one round
    per repeat that times every shape back-to-back exposes all of them
    to the same noise, so the minima stay comparable.
    """
    times = [[] for _ in fns]
    for _ in range(REPEATS):
        for slot, fn in zip(times, fns):
            t0 = time.perf_counter()
            fn()
            slot.append(time.perf_counter() - t0)
    return [min(slot) for slot in times]


def test_packed_vs_per_design(benchmark):
    def scenario():
        fleet, base = _fleet_samples()
        predictor = _fitted_predictor(base)

        loop, packed = _best_times(
            lambda: [predictor.predict_array(s) for s in fleet],
            lambda: predictor.predict_batch_arrays(fleet))

        per_design = [predictor.predict_array(s) for s in fleet]
        batched = predictor.predict_batch_arrays(fleet)
        for a, b in zip(per_design, batched):
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=0.0)
        return loop, packed

    loop, packed = run_once(benchmark, scenario)
    speedup = loop / packed
    emit_bench("batch", {"loop_ms": loop * 1e3, "packed_ms": packed * 1e3,
                         "speedup": speedup, "fleet": FLEET})
    print(f"\nPacked batch — {FLEET}-design inference: per-design loop "
          f"{loop * 1e3:.1f} ms vs packed {packed * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    # ~2x typical; gated at 1.5x because (a) shared-runner BLAS/memory
    # throughput swings the absolute times +/-30% minute to minute (the
    # same commit measures 1.8x-2.4x back to back), and (b) the
    # per-design loop baseline itself got faster once plan orders were
    # cached per sample, which conservatively shrinks the ratio.
    assert speedup >= 1.5, (
        f"packed multi-design inference must be >=1.5x faster than the "
        f"per-design loop, got {speedup:.1f}x")


def test_warm_path_vs_cold(benchmark):
    """The allocation/precision tier vs the pre-tier per-call baseline.

    Three timed shapes of the same packed inference:

    * **cold** — a fresh worker's first call: re-merge the level plans
      AND allocate every intermediate fresh;
    * **baseline** — what every repeat call paid before this tier
      existed (the merge memo already existed, so topology is reused,
      but every intermediate is allocated fresh at fp64);
    * **warm** — plan cache + workspace arena, measured at fp64 (must
      be bit-identical to cold) and at fp32 (the tier's speed lever,
      tolerance-budgeted in ``test_precision_tiers``).

    The headline gate is warm-fp32 >= 1.3x the baseline; fp64 warm must
    never be slower than cold (merge + allocations are pure overhead).
    """
    def scenario():
        fleet, base = _fleet_samples()
        predictor = _fitted_predictor(base)

        def cold():
            PLAN_CACHE.clear()
            predictor.use_workspace = False
            try:
                return predictor.predict_batch_arrays(fleet)
            finally:
                predictor.use_workspace = True

        def baseline():
            predictor.use_workspace = False
            try:
                return predictor.predict_batch_arrays(fleet)
            finally:
                predictor.use_workspace = True

        predictor.predict_batch_arrays(fleet)  # prime caches
        cold_t, baseline_t, warm_t = _best_times(
            cold, baseline,
            lambda: predictor.predict_batch_arrays(fleet))

        cold_out = cold()
        warm_out = predictor.predict_batch_arrays(fleet)
        for a, b in zip(cold_out, warm_out):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

        predictor.set_precision("fp32")
        warm32_t = _best_time(
            lambda: predictor.predict_batch_arrays(fleet))
        predictor.set_precision("fp64")

        ops = _op_timings(predictor, fleet)
        return cold_t, baseline_t, warm_t, warm32_t, ops, predictor

    cold_t, baseline_t, warm_t, warm32_t, ops, predictor = run_once(
        benchmark, scenario)
    fp64_speedup = cold_t / warm_t
    tier_speedup = baseline_t / warm32_t
    emit_bench("batch_warm", {
        "cold_ms": cold_t * 1e3, "baseline_ms": baseline_t * 1e3,
        "warm_fp64_ms": warm_t * 1e3, "warm_fp32_ms": warm32_t * 1e3,
        "fp64_speedup_vs_cold": fp64_speedup,
        "tier_speedup_vs_baseline": tier_speedup,
        "fleet": FLEET, "ops_ms": ops,
        "workspace": predictor._workspace.describe(),
        "plan_cache": PLAN_CACHE.describe(),
    })
    print(f"\nWarm packed inference — {FLEET} designs: cold "
          f"{cold_t * 1e3:.1f} ms, baseline {baseline_t * 1e3:.1f} ms, "
          f"warm fp64 {warm_t * 1e3:.1f} ms ({fp64_speedup:.2f}x vs "
          f"cold), warm fp32 {warm32_t * 1e3:.1f} ms "
          f"({tier_speedup:.2f}x vs baseline); ops "
          f"{ {k: round(v, 2) for k, v in ops.items()} }")
    # Cold = warm + plan merge + fresh allocations, so warm should win;
    # min-of-REPEATS interleaved timing still jitters a few percent on a
    # shared machine, hence the 10% allowance.
    assert warm_t <= cold_t * 1.10, (
        f"warm fp64 packed inference must not be slower than the cold "
        f"path, got warm {warm_t * 1e3:.1f} ms vs cold "
        f"{cold_t * 1e3:.1f} ms")
    assert tier_speedup >= 1.3, (
        f"the warm inference tier (plan cache + arena + fp32) must be "
        f">=1.3x the pre-tier fp64 baseline, got {tier_speedup:.2f}x")


def _op_timings(predictor, fleet) -> dict:
    """Best-of-REPEATS per-op milliseconds on the warm path."""
    model = predictor.model
    batch = PackedBatch.pack(fleet)
    ws = predictor._workspace

    def scoped(fn):
        def run():
            with inference_mode(), workspace(ws):
                return fn()
        return run

    ops = {
        "pack_warm": _best_time(
            scoped(lambda: PackedBatch.pack(fleet))) * 1e3,
        "forward": _best_time(
            scoped(lambda: model.forward_batch(batch,
                                               training=False))) * 1e3,
    }
    if model.gnn is not None:
        ops["gnn"] = _best_time(
            scoped(lambda: model.gnn.forward_stream(
                batch, stream_plan_for(batch)))) * 1e3
    if model.cnn is not None:
        ops["cnn"] = _best_time(
            scoped(lambda: model.cnn.forward_batch(
                batch.layout_stacks))) * 1e3
    return ops


def _r2(pred: np.ndarray, truth: np.ndarray) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    ss_res = float(((truth - pred) ** 2).sum())
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    return 1.0 - ss_res / max(ss_tot, 1e-12)


def test_precision_tiers(benchmark):
    """fp32 within its tolerance budget, and fp64 bit-identical across
    a set-and-restore round trip."""
    def scenario():
        fleet, base = _fleet_samples()
        predictor = _fitted_predictor(base)

        ref = [np.array(a) for a in predictor.predict_batch_arrays(fleet)]
        fp64_t = _best_time(lambda: predictor.predict_batch_arrays(fleet))

        predictor.set_precision("fp32")
        out32 = predictor.predict_batch_arrays(fleet)
        fp32_t = _best_time(lambda: predictor.predict_batch_arrays(fleet))

        predictor.set_precision("fp64")
        back = predictor.predict_batch_arrays(fleet)
        return fleet, ref, out32, back, fp64_t, fp32_t

    fleet, ref, out32, back, fp64_t, fp32_t = run_once(benchmark, scenario)
    # fp64 restore is bit-identical: precision tiers never contaminate
    # the default path.
    for a, b in zip(ref, back):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    # fp32 stays inside its declared tolerance budget (ps).
    fp32_err = 0.0
    for a, b in zip(ref, out32):
        np.testing.assert_allclose(np.asarray(b), np.asarray(a),
                                   **FP32_TOLERANCE)
        denom = np.maximum(np.abs(np.asarray(a)), 1e-9)
        fp32_err = max(fp32_err,
                       float((np.abs(np.asarray(b, dtype=np.float64)
                                     - np.asarray(a)) / denom).max()))
    truth = np.concatenate([s.y for s in fleet])
    r2_fp64 = _r2(np.concatenate([np.asarray(a) for a in ref]), truth)
    emit_bench("precision", {
        "fp64_ms": fp64_t * 1e3, "fp32_ms": fp32_t * 1e3,
        "fp32_speedup": fp64_t / fp32_t,
        "fp32_max_rel_err": fp32_err,
        "fp32_tolerance": dict(FP32_TOLERANCE),
        "r2_fp64": r2_fp64, "fleet": FLEET,
    })
    print(f"\nPrecision tiers — fp64 {fp64_t * 1e3:.1f} ms, fp32 "
          f"{fp32_t * 1e3:.1f} ms ({fp64_t / fp32_t:.2f}x); fp32 max rel "
          f"err {fp32_err:.2e}; R2 fp64 {r2_fp64:.4f}")
