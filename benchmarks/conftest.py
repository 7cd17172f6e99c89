"""Shared fixtures for the benchmark harness.

Benchmarks regenerate every table and figure of the paper.  Heavy artifacts
(the ten reference flows) are cached under ``data/cache`` so re-runs are
fast; each benchmark prints the regenerated table so the output can be
compared with the paper side by side (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.flow import FlowConfig
from repro.ml import build_dataset
from repro.netlist import TEST_DESIGNS, TRAIN_DESIGNS

CACHE_DIR = Path(__file__).resolve().parent.parent / "data" / "cache"
ARTIFACTS = Path(__file__).resolve().parent.parent / "data" / "artifacts"


@pytest.fixture(scope="session")
def artifacts_dir() -> Path:
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    return ARTIFACTS


@pytest.fixture(scope="session", autouse=True)
def _bench_tracing():
    """Keep the in-memory tracer on for the whole benchmark session.

    Every instrumented op (flow stages, ``model.pre``, ``model.infer``,
    NLDM batches, ...) records a span; :func:`emit_bench` folds the
    spans recorded since the previous emit into each benchmark's JSON
    artifact as op-level numbers.
    """
    from repro.obs import configure_tracing

    return configure_tracing(enabled=True)


@pytest.fixture(scope="session")
def train_samples():
    """The five training designs (cached flows)."""
    return build_dataset(list(TRAIN_DESIGNS), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def train_samples_augmented(train_samples):
    """Training designs plus two seed-augmented placements each."""
    out = list(train_samples)
    for seed in (1, 2):
        out += build_dataset(list(TRAIN_DESIGNS),
                             flow_config=FlowConfig(base_seed=seed),
                             cache_dir=CACHE_DIR, seed=seed)
    return out


@pytest.fixture(scope="session")
def test_samples():
    """The five held-out test designs (cached flows)."""
    return build_dataset(list(TEST_DESIGNS), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def all_samples(train_samples, test_samples):
    return list(train_samples) + list(test_samples)


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


BENCH_OUT = Path(__file__).resolve().parent.parent / "data" / "bench"

#: Prior headline entries carried forward per benchmark artifact.
BENCH_HISTORY = 8

#: ``Tracer.emitted`` at the previous ``emit_bench``.
_ops_cursor = 0


def _drain_ops():
    """Aggregate tracer spans recorded since the previous ``emit_bench``.

    Returns a per-span-name dict (count / total / mean / max seconds) or
    ``None`` when nothing was traced — so each artifact carries the
    op-level numbers of *its own* benchmark, not the whole session.
    """
    global _ops_cursor
    from repro.obs import get_tracer
    from repro.obs.profile import aggregate_trace

    tracer = get_tracer()
    events, emitted = tracer.events(), tracer.emitted
    if emitted < _ops_cursor:       # the tracer was reset since
        _ops_cursor = 0
    # The buffer is a ring: the newest ``emitted - cursor`` events (as
    # many of them as it still holds) are the fresh ones.
    fresh = events[max(len(events) - (emitted - _ops_cursor), 0):]
    _ops_cursor = emitted
    if not fresh:
        return None
    report = aggregate_trace(fresh)
    return {name: {"count": st.count,
                   "total_s": round(st.total_s, 6),
                   "mean_s": round(st.mean_s, 6),
                   "max_s": round(st.max_s, 6)}
            for name, st in sorted(report.stages.items())}


def emit_bench(name: str, payload: dict) -> Path:
    """Write a benchmark's headline numbers to ``BENCH_<name>.json``.

    Every benchmark emits its measurements as a small machine-readable
    artifact under ``data/bench/`` so CI can upload them and runs can be
    compared over time without scraping stdout.  The write is atomic
    (temp file + rename) — a benchmark killed mid-emit can no longer
    leave a truncated JSON behind — and a corrupt existing file is
    logged and overwritten rather than crashing the run.  The previous
    run's headline numbers are carried forward under ``history`` (most
    recent first, bounded) so a single artifact shows the trend.

    Op-level numbers ride along under ``ops``: tracer spans recorded
    since the previous emit, aggregated per span name (see
    :func:`_drain_ops`).  A payload may pre-set ``ops`` to override.
    """
    import platform
    import time

    from repro.utils import atomic_json_dump, get_logger, load_json_or_none

    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    out = dict(payload)
    out.setdefault("bench", name)
    ops = _drain_ops()
    if ops and "ops" not in out:
        out["ops"] = ops
    out.setdefault("unix_time", time.time())
    out.setdefault("python", platform.python_version())
    try:
        import os

        out.setdefault("cpus", len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        pass
    path = BENCH_OUT / f"BENCH_{name}.json"
    prior = load_json_or_none(path, get_logger("bench.emit"))
    if isinstance(prior, dict):
        # Headline numbers only: the per-run ``ops`` block is bulky and
        # reproducible from the run's own artifact.
        history = [{k: v for k, v in prior.items()
                    if k not in ("history", "ops")}]
        history += list(prior.get("history", []))
        out["history"] = history[:BENCH_HISTORY]
    atomic_json_dump(out, path)
    return path
