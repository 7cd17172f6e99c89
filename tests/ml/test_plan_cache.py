"""PackPlanCache: LRU behavior and release-on-teardown."""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import numpy as np

from repro.ml.batch import PackedBatch
from repro.ml.plancache import PLAN_CACHE, PackPlanCache


def _fake_sample(n_nodes: int = 8, seed: int = 0) -> SimpleNamespace:
    """A stub sample whose topology differs per seed."""
    rng = np.random.default_rng(seed)
    plan = SimpleNamespace(
        net_nodes=rng.integers(0, n_nodes, 4),
        net_drivers=rng.integers(0, n_nodes, 4),
        cell_nodes=rng.integers(0, n_nodes, 4),
        cell_preds=rng.integers(0, n_nodes, (4, 2)))
    return SimpleNamespace(
        n_nodes=n_nodes,
        level=rng.integers(0, 3, n_nodes),
        source_nodes=rng.integers(0, n_nodes, 2),
        endpoint_nodes=rng.integers(0, n_nodes, 3),
        endpoint_pins=rng.integers(0, 99, 3),
        plans=[plan])


def test_memo_hit_returns_same_topology_object():
    cache = PackPlanCache(capacity=4)
    s = _fake_sample()
    builds = []

    def build(samples):
        builds.append(len(samples))
        return {"n": len(samples)}

    t1 = cache.topology([s], build)
    t2 = cache.topology([s], build)
    assert t1 is t2
    assert builds == [1]
    assert cache.describe()["hits"] == 1


def test_lru_keeps_the_hot_key():
    cache = PackPlanCache(capacity=2)
    a, b, c = _fake_sample(seed=1), _fake_sample(seed=2), _fake_sample(seed=3)
    build = lambda samples: {"id": id(samples[0].plans)}  # noqa: E731

    ta = cache.topology([a], build)
    cache.topology([b], build)
    cache.topology([a], build)      # touch a: now the hot key
    cache.topology([c], build)      # evicts b (LRU), not a
    assert cache.topology([a], build) is ta
    assert cache.describe()["entries"] == 2
    tb2 = cache.topology([b], build)
    assert tb2 is not ta  # b was rebuilt after eviction


def test_release_makes_dropped_sample_arrays_collectable():
    """Regression for the pre-PR leak: the merge memo kept strong refs
    to every pack's plans forever, so a closed session's topology never
    became collectable."""
    cache = PackPlanCache(capacity=8)
    arr = np.arange(4096, dtype=np.float64)
    sample = SimpleNamespace(plans=[arr])
    ref = weakref.ref(arr)
    cache.topology([sample], lambda ss: {"ok": True})
    del arr
    gc.collect()
    assert ref() is not None, "cache entry must pin the keyed plans"

    released = cache.release(sample)
    assert released == 1
    del sample
    gc.collect()
    assert ref() is None, (
        "released sample's plan arrays must become collectable")


def test_without_release_the_entry_pins_until_clear():
    cache = PackPlanCache(capacity=8)
    arr = np.arange(128, dtype=np.float64)
    sample = SimpleNamespace(plans=[arr])
    ref = weakref.ref(arr)
    cache.topology([sample], lambda ss: {})
    del arr, sample
    gc.collect()
    assert ref() is not None  # entry still pins the plans list
    cache.clear()
    gc.collect()
    assert ref() is None


def test_release_drops_multi_sample_packs_too():
    cache = PackPlanCache(capacity=8)
    a, b = _fake_sample(seed=4), _fake_sample(seed=5)
    build = lambda samples: {"n": len(samples)}  # noqa: E731
    cache.topology([a], build)
    cache.topology([a, b], build)
    cache.topology([b], build)
    assert cache.release(a) == 2      # [a] and [a, b]
    assert cache.describe()["entries"] == 1


def test_packed_batch_pack_goes_through_the_global_cache(tiny_samples):
    PLAN_CACHE.clear()
    before = PLAN_CACHE.describe()
    b1 = PackedBatch.pack(tiny_samples)
    b2 = PackedBatch.pack(tiny_samples)
    after = PLAN_CACHE.describe()
    assert after["hits"] == before["hits"] + 1
    # Topology arrays are shared between repeat packs (the whole point)…
    assert b1.node_offsets is b2.node_offsets
    assert b1.plans is b2.plans
    # …while feature arrays are re-gathered per pack (what-if edits
    # mutate features in place and must stay visible).
    assert b1.x_cell is not b2.x_cell
    np.testing.assert_array_equal(b1.x_cell, b2.x_cell)
    for s in tiny_samples:
        PLAN_CACHE.release(s)
