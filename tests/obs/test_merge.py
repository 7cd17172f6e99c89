"""Folding worker metrics snapshots: histograms merge exactly.

The fleet's ``/metrics`` and the ``repro dataset --jobs`` trace merge
fold each worker's histograms into one registry.  A fold adds the
count, total and max and pools the retained samples, so as long as each
part stays under the reservoir the folded percentiles are those of one
histogram fed the whole stream.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.obs.merge import fold_metrics_snapshot
from repro.obs.metrics import MetricsRegistry


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_folded_parts_equal_one_registry_fed_the_whole_stream(seed):
    rng = random.Random(seed)
    whole, parts = MetricsRegistry(), (MetricsRegistry(), MetricsRegistry())
    for _ in range(3000):
        value = rng.lognormvariate(1.0, 0.8)   # skewed: p50 != mean
        whole.histogram("serve.latency_ms").observe(value)
        rng.choice(parts).histogram("serve.latency_ms").observe(value)
    merged = MetricsRegistry()
    for part in parts:
        fold_metrics_snapshot(merged, part.snapshot(samples=True))
    got = merged.snapshot()["serve.latency_ms"]
    want = whole.snapshot()["serve.latency_ms"]
    for key in ("count", "max", "p50", "p95"):
        assert got[key] == want[key], key
    # The parts' totals add in another order than the whole stream's.
    assert got["total"] == pytest.approx(want["total"], rel=1e-12)
    assert got["p50"] != pytest.approx(got["mean"], rel=1e-3)


def test_a_fold_costs_its_samples_not_its_count():
    snapshot = {"h": {"count": 10 ** 9, "total": 2.5e9, "mean": 2.5,
                      "p50": 2.0, "p95": 4.0, "max": 9.0,
                      "samples": [1.0, 2.0, 4.0]}}
    merged = MetricsRegistry()
    start = time.perf_counter()
    fold_metrics_snapshot(merged, snapshot)
    assert time.perf_counter() - start < 1.0
    summary = merged.snapshot()["h"]
    assert (summary["count"], summary["total"], summary["max"]) == (
        10 ** 9, 2.5e9, 9.0)
    assert (summary["p50"], summary["p95"]) == (2.0, 4.0)


def test_snapshot_keeps_its_shape_unless_samples_are_asked_for():
    registry = MetricsRegistry()
    registry.histogram("h").observe(1.0)
    assert "samples" not in registry.snapshot()["h"]
    assert registry.snapshot(samples=True)["h"]["samples"] == [1.0]


def test_parts_past_the_reservoir_keep_shares_in_proportion_to_counts():
    # Each part retains a full reservoir; pooled they overflow it.  The
    # later part must not overwrite the earlier, and each keeps a share
    # of the reservoir that matches the observations it stands for.
    rng = random.Random(3)
    fast, slow = MetricsRegistry(), MetricsRegistry()
    for _ in range(12000):
        fast.histogram("serve.latency_ms").observe(rng.uniform(0.0, 1.0))
    for _ in range(6000):
        slow.histogram("serve.latency_ms").observe(rng.uniform(10.0, 11.0))
    merged = MetricsRegistry()
    for part in (fast, slow):
        fold_metrics_snapshot(merged, part.snapshot(samples=True))
    got = merged.snapshot(samples=True)["serve.latency_ms"]
    reservoir = merged.histogram("serve.latency_ms").max_samples
    assert got["count"] == 18000
    assert len(got["samples"]) == reservoir
    assert sum(v >= 10.0 for v in got["samples"]) == round(reservoir / 3)
    # Two thirds of the requests were fast: the median is one of them.
    assert got["p50"] < 1.0 < 10.0 < got["p95"]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_equal_parts_past_the_reservoir_share_it_evenly(order):
    parts = [MetricsRegistry() for _ in range(3)]
    for i, part in enumerate(parts):
        for j in range(5000):
            part.histogram("h").observe(100.0 * i + j * 1e-3)
    merged = MetricsRegistry()
    for i in order:
        fold_metrics_snapshot(merged, parts[i].snapshot(samples=True))
    samples = merged.snapshot(samples=True)["h"]["samples"]
    shares = [sum(100.0 * i <= v < 100.0 * (i + 1) for v in samples)
              for i in range(3)]
    assert sum(shares) == merged.histogram("h").max_samples
    assert max(shares) - min(shares) <= 1
