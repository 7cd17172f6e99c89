"""Differential battery: partitioned execution is fp64 bit-identical.

Every preset is built small and run through both schedules — whole-graph
featurization and the training GNN forward vs. chunk-streamed
featurization and the streamed inference forward (many chunks and one
chunk) — and the outputs are compared *bitwise* (``np.array_equal`` on
fp64, no tolerances).  The serve-level test proves the same through a live
session, and the subprocess test pins the ``large``-preset peak-RSS
ceiling the whole tentpole exists for.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.core.gnn import EndpointGNN
from repro.flow import FlowConfig, run_flow
from repro.ml import build_level_plans, node_features
from repro.ml.batch import PackedBatch
from repro.ml.features import CELL_FEATURE_DIM, NET_FEATURE_DIM
from repro.netlist import DESIGN_PRESETS
from repro.netlist.generator import generate_netlist
from repro.nn import inference_mode
from repro.placement import PlacerConfig, build_die, place
from repro.serve import DesignSession, Edit
from repro.timing import build_stream_plan, build_timing_graph, stream_plan_for

PINS = 64          # small enough that every preset splits into many chunks
HIDDEN = 24


@pytest.fixture(scope="module", params=sorted(DESIGN_PRESETS))
def built(request):
    """(netlist, placement, graph) for one preset, scaled tiny."""
    spec = DESIGN_PRESETS[request.param].scaled(0.05)
    nl = generate_netlist(spec, 0)
    die = build_die(nl, spec, 0)
    placement = place(nl, die, PlacerConfig(n_iterations=2, seed=0))
    return nl, placement, build_timing_graph(nl)


def _gnn_sample(graph, x_cell, x_net):
    return SimpleNamespace(
        name="t", n_nodes=graph.n_nodes, level=graph.level,
        plans=build_level_plans(graph), x_cell=x_cell, x_net=x_net,
        endpoint_nodes=graph.endpoints,
        source_nodes=np.where(graph.level == 0)[0])


# ----------------------------------------------------------------------
# Featurization: chunked == monolithic, bit for bit, on every preset.
# ----------------------------------------------------------------------

def test_chunked_features_bit_identical(built):
    nl, placement, graph = built
    ref_cell, ref_net = node_features(nl, placement, graph)
    for partition in (PINS, 256, 10**9):
        x_cell, x_net = node_features(nl, placement, graph,
                                      partition=partition)
        assert np.array_equal(x_cell, ref_cell)
        assert np.array_equal(x_net, ref_net)


# ----------------------------------------------------------------------
# GNN forward: streamed == training forward, bit for bit, on every preset.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("residual", [False, True])
def test_forward_stream_bit_identical(built, residual):
    nl, placement, graph = built
    x_cell, x_net = node_features(nl, placement, graph)
    sample = _gnn_sample(graph, x_cell, x_net)
    gnn = EndpointGNN(HIDDEN, CELL_FEATURE_DIM, NET_FEATURE_DIM,
                      np.random.default_rng(0), residual=residual)
    ref = gnn.forward(sample)[sample.endpoint_nodes]
    gnn.drain_caches()
    # Values, not bytes: the training ReLU ``pre * mask`` gives -0.0
    # where the streamed ``maximum(pre, 0)`` gives +0.0.
    for pins in (PINS, None):            # many chunks / one chunk
        sample.partition_pins = pins
        with inference_mode():
            got = gnn.forward_stream(sample, stream_plan_for(sample))
        assert got.dtype == np.float64
        assert np.array_equal(got, ref), \
            f"stream diverged at pins={pins} (residual={residual})"


def test_stream_plan_and_forward_are_deterministic(built):
    nl, placement, graph = built
    x_cell, x_net = node_features(nl, placement, graph)
    sample = _gnn_sample(graph, x_cell, x_net)
    a = build_stream_plan(sample, PINS)
    b = build_stream_plan(sample, PINS)
    assert len(a.chunks) == len(b.chunks)
    assert (a.max_rows, a.max_live) == (b.max_rows, b.max_live)
    for ca, cb in zip(a.chunks, b.chunks):
        assert (ca.n_halo, ca.n_nodes) == (cb.n_halo, cb.n_nodes)
        assert np.array_equal(ca.cell_order, cb.cell_order)
        assert np.array_equal(ca.net_order, cb.net_order)
        assert np.array_equal(ca.keep_new, cb.keep_new)
        assert np.array_equal(ca.live_order, cb.live_order)
    gnn = EndpointGNN(HIDDEN, CELL_FEATURE_DIM, NET_FEATURE_DIM,
                      np.random.default_rng(1), residual=False)
    with inference_mode():
        r1 = gnn.forward_stream(sample, a)
        r2 = gnn.forward_stream(sample, b)   # fresh plan, fresh arena
        r3 = gnn.forward_stream(sample, a)   # reused arena
    assert r1.tobytes() == r2.tobytes() == r3.tobytes()


# ----------------------------------------------------------------------
# Full predictor / serve session round trips.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def exec_predictor(tiny_sample):
    predictor = TimingPredictor(
        model_config=ModelConfig(map_bins=32),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit([tiny_sample])
    return predictor


def _fresh(sample, pins):
    """A shallow copy with its own (empty) stream-plan memo."""
    clone = copy.copy(sample)
    clone.__dict__.pop("_stream_cache", None)
    clone.partition_pins = pins
    return clone


# ----------------------------------------------------------------------
# One inference path: no partition hint means the one-chunk stream.
# ----------------------------------------------------------------------

def test_unpartitioned_sample_gets_a_memoized_one_chunk_plan(tiny_sample):
    sample = _fresh(tiny_sample, None)
    plan = stream_plan_for(sample)
    assert plan.partition_pins is None
    assert len(plan.chunks) == 1
    (chunk,) = plan.chunks
    assert chunk.n_halo == 0 and plan.max_live == 0
    assert chunk.n_nodes == int((sample.level > 0).sum())
    assert stream_plan_for(sample) is plan
    assert stream_plan_for(PackedBatch.pack([sample])) is plan


@pytest.mark.parametrize("pins", [None, PINS])
def test_inference_never_runs_the_training_forward(exec_predictor,
                                                   tiny_sample, monkeypatch,
                                                   pins):
    model = exec_predictor.model
    calls = []
    train_forward = EndpointGNN.forward

    def spy(self, sample):
        calls.append(sample)
        return train_forward(self, sample)

    monkeypatch.setattr(EndpointGNN, "forward", spy)
    batch = PackedBatch.pack([_fresh(tiny_sample, pins)])
    pred = model.forward_batch(batch, training=False)
    model.drain_caches()
    assert calls == []
    # The spy does see the training forward, and the two agree.
    ref = model.forward_batch(batch)
    model.drain_caches()
    assert len(calls) == 1
    assert np.array_equal(pred, ref)


def test_predictor_partition_hint_is_bit_identical(exec_predictor,
                                                   tiny_sample):
    ref = exec_predictor.predict_array(tiny_sample)
    # A shallow copy keeps the shared fixture's partition stamp clean.
    clone = copy.copy(tiny_sample)
    exec_predictor.set_partition(PINS)
    try:
        assert np.array_equal(exec_predictor.predict_array(clone), ref)
        assert exec_predictor.predict(clone) == \
            exec_predictor.predict(tiny_sample)
    finally:
        exec_predictor.set_partition(None)


def test_partitioned_session_serves_identical_whatifs(exec_predictor):
    flow = run_flow("xgate", FlowConfig(scale=0.25, base_seed=0))
    plain = DesignSession(flow, exec_predictor, seed=0)
    part = DesignSession(copy.deepcopy(flow), exec_predictor, seed=0,
                         partition_pins=PINS)
    assert part.sample.partition_pins == PINS
    assert plain.predict() == part.predict()

    die = plain.placement.die
    cell = next(iter(plain.netlist.cells))
    edits = [Edit(op="move", cell=cell,
                  x=die.width * 0.3, y=die.height * 0.6)]

    def stable(body):
        return {k: v for k, v in body.items() if k != "latency_ms"}

    # Uncommitted what-if, then a committed one: the partitioned session
    # re-featurizes only the touched chunk yet must match bit for bit.
    assert stable(plain.whatif(edits, commit=False)) == \
        stable(part.whatif(edits, commit=False))
    assert stable(plain.whatif(edits, commit=True)) == \
        stable(part.whatif(edits, commit=True))
    for k in ("x_cell", "x_net"):
        assert np.array_equal(getattr(plain.sample, k),
                              getattr(part.sample, k))
    assert plain.predict() == part.predict()


# ----------------------------------------------------------------------
# The tentpole claim, in-suite: 'large' runs under a peak-RSS ceiling
# the monolithic path exceeds.  Subprocesses because ru_maxrss is a
# process-lifetime high-water mark (see benchmarks/bench_partition.py,
# whose child driver this reuses).
# ----------------------------------------------------------------------

def test_large_preset_peak_memory_ceiling():
    from benchmarks.bench_partition import (HIDDEN as BENCH_HIDDEN,
                                            _mem_available_kb, _run_child)

    if _mem_available_kb() < (1 << 21):  # 2 GB
        pytest.skip("not enough available RAM for the full-mode child")
    stream = _run_child("stream", None)
    full = _run_child("full", None)
    assert full["n_nodes"] >= 100_000
    assert stream["checksum"] == full["checksum"]
    ceiling_kb = (full["n_nodes"] + 1) * BENCH_HIDDEN * 8 // 2 // 1024
    assert stream["forward_delta_kb"] <= ceiling_kb
    assert full["forward_delta_kb"] > ceiling_kb
