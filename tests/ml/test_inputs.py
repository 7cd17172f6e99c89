"""``build_inputs`` is the model-input half of ``build_sample``.

Serving featurizes a label-free :class:`~repro.flow.PreRouteDesign`
with :func:`repro.ml.build_inputs`; training featurizes the whole flow
with :func:`repro.ml.build_sample`.  Both go through one featurization
path, so every field the model reads must be equal between them — on
the end-to-end benchmark's four presets, on a three-corner flow and on
an ECO scenario flow.  The labels and the baseline data are what
``build_sample`` adds, and ``build_inputs`` leaves them unset.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ModelConfig, TimingPredictor, TrainerConfig
from repro.flow import FlowConfig, PreRouteDesign, run_flow, run_scenario_flow
from repro.ml import PackedBatch, build_inputs, build_sample

SCALE = 0.35
BINS = 32
#: The end-to-end benchmark's designs (benchmarks/e2e/workloads.py).
PRESETS = ("xgate", "steelcore", "arm9", "chacha")

ARRAYS = ("kind", "level", "pin_ids", "source_nodes", "x_cell", "x_net",
          "endpoint_nodes", "endpoint_pins", "layout_stack", "masks")
SCALARS = ("name", "split", "clock_period", "n_nodes", "corner",
           "corner_index", "scenario", "partition_pins")


def _flow(case: str):
    if case == "mmmc":
        return run_flow("xgate", FlowConfig(
            scale=SCALE, corners=("base", "slow", "fast")))
    if case == "eco":
        return run_scenario_flow("steelcore", FlowConfig(scale=SCALE),
                                 scenario="clock_frac0.8+eco1")
    return run_flow(case, FlowConfig(scale=SCALE))


@pytest.fixture(scope="module", params=PRESETS + ("mmmc", "eco"))
def flow(request):
    return _flow(request.param)


def assert_same_inputs(inputs, sample) -> None:
    """Every model-input field of *inputs* equals *sample*'s, exactly."""
    for name in ARRAYS:
        a, b = getattr(inputs, name), getattr(sample, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in SCALARS:
        assert getattr(inputs, name) == getattr(sample, name), name
    assert inputs.node_of == sample.node_of
    assert len(inputs.plans) == len(sample.plans)
    for i, (pa, pb) in enumerate(zip(inputs.plans, sample.plans)):
        for f in dataclasses.fields(pa):
            a, b = getattr(pa, f.name), getattr(pb, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (i, f.name)


def test_pre_route_inputs_equal_the_labeled_sample(flow):
    pre = flow.pre_route()
    assert isinstance(pre, PreRouteDesign)
    assert pre.name == flow.name and pre.corner_names == flow.corner_names
    sample = build_sample(flow, map_bins=BINS)
    inputs = build_inputs(pre, map_bins=BINS)
    assert_same_inputs(inputs, sample)
    # The label step is all build_sample adds.
    assert inputs.y is None and sample.y is not None
    assert inputs.pre_route_arrival is None
    assert inputs.pre_route_slew is None
    assert not inputs.signoff_arrival_by_pin and not inputs.local_net_delay
    assert inputs.aux_arrival is None and inputs.stage_features_basic is None


def test_a_full_flow_reads_the_same_inputs(flow):
    assert_same_inputs(build_inputs(flow, map_bins=BINS, seed=3),
                       build_inputs(flow.pre_route(), map_bins=BINS, seed=3))


def test_pre_route_shares_the_flows_inputs(flow):
    pre = flow.pre_route()
    assert pre.input_netlist is flow.input_netlist
    assert pre.input_placement is flow.input_placement
    assert pre.input_maps is flow.input_maps
    assert pre.scenario == flow.scenario
    assert pre.clock_period == flow.clock_period


def test_partitioned_inputs_equal_monolithic():
    flow = _flow("xgate")
    assert_same_inputs(
        dataclasses.replace(build_inputs(flow.pre_route(), map_bins=BINS,
                                         partition_pins=64),
                            partition_pins=None),
        build_sample(flow, map_bins=BINS))


def test_unlabeled_predictions_equal_labeled_ones():
    flow = _flow("xgate")
    sample = build_sample(flow, map_bins=BINS)
    inputs = build_inputs(flow.pre_route(), map_bins=BINS)
    predictor = TimingPredictor(ModelConfig(map_bins=BINS),
                                TrainerConfig(epochs=1))
    predictor.fit([sample])
    assert np.array_equal(predictor.predict_array(inputs),
                          predictor.predict_array(sample))
    assert PackedBatch.pack([inputs]).y is None
    assert PackedBatch.pack([inputs, sample]).y is None
    assert np.array_equal(PackedBatch.pack([sample, sample]).y,
                          np.concatenate([sample.y, sample.y]))


def test_training_on_an_unlabeled_sample_is_one_value_error():
    flow = _flow("xgate")
    predictor = TimingPredictor(ModelConfig(map_bins=BINS),
                                TrainerConfig(epochs=1))
    with pytest.raises(ValueError, match="unlabeled sample.*xgate"):
        predictor.fit([build_inputs(flow.pre_route(), map_bins=BINS)])
