"""Parallel dataset builds: differential equality, fault tolerance, traces.

The central promises of :mod:`repro.ml.parallel` under test:

* serial and parallel builds produce element-wise identical samples,
* a failing or crashing worker costs one retry, not the batch,
* permanent failures surface in the :class:`BuildReport` (and as a
  ``RuntimeError`` from :func:`build_dataset`) without losing the other
  designs, and
* worker spans are merged back into the parent tracer so profiling a
  parallel run drops nothing, and
* each worker runs BLAS on its share of the CPUs, and the parent gets
  its own thread count back once the pool has exited.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.flow import FlowConfig
from repro.ml import build_dataset, build_dataset_report
from repro.ml.parallel import run_design_tasks
from repro.obs import get_tracer
from repro.obs.profile import aggregate_trace
from repro.utils.blas import blas_threads, limit_blas_threads

CFG = FlowConfig(scale=0.15)
DESIGNS = ["xgate", "steelcore"]
BINS = 32

ARRAY_FIELDS = [
    "kind", "level", "pin_ids", "source_nodes", "x_cell", "x_net",
    "endpoint_nodes", "endpoint_pins", "y", "layout_stack", "masks",
    "pre_route_arrival", "pre_route_slew", "aux_arrival", "aux_slew",
    "aux_net_delay", "aux_cell_delay", "stage_features_basic",
    "stage_features_lookahead", "stage_sink_nodes",
]
DICT_FIELDS = [
    "node_of", "local_net_delay", "local_cell_delay",
    "signoff_arrival_by_pin", "signoff_slew_by_pin", "stage_label_by_sink",
]


def assert_samples_equal(a, b) -> None:
    """Element-wise equality over every deterministic sample field."""
    assert a.name == b.name and a.split == b.split
    assert a.clock_period == b.clock_period
    assert a.n_nodes == b.n_nodes
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)
    for name in DICT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.plans) == len(b.plans)
    for pa, pb in zip(a.plans, b.plans):
        np.testing.assert_array_equal(pa.net_nodes, pb.net_nodes)
        np.testing.assert_array_equal(pa.net_drivers, pb.net_drivers)
        np.testing.assert_array_equal(pa.cell_nodes, pb.cell_nodes)
        np.testing.assert_array_equal(pa.cell_preds, pb.cell_preds)


@pytest.fixture
def clean_tracer():
    tracer = get_tracer()
    tracer.reset()
    was_enabled = tracer.enabled
    yield tracer
    tracer.reset()
    if not was_enabled:
        tracer.disable()


def test_parallel_equals_serial_differential():
    """jobs=4 and jobs=None yield element-wise equal samples (2 presets)."""
    serial = build_dataset(DESIGNS, flow_config=CFG, map_bins=BINS)
    parallel = build_dataset(DESIGNS, flow_config=CFG, map_bins=BINS,
                             jobs=4)
    assert [s.name for s in parallel] == DESIGNS
    for a, b in zip(serial, parallel):
        assert_samples_equal(a, b)


def test_parallel_uses_and_fills_cache(tmp_path):
    first, rep1 = build_dataset_report(DESIGNS, flow_config=CFG,
                                       map_bins=BINS, cache_dir=tmp_path,
                                       jobs=2)
    assert [s.status for s in rep1.statuses] == ["built", "built"]
    assert len(list(tmp_path.glob("*.pkl"))) == 2
    assert not list(tmp_path.glob("*.tmp")), "atomic writes leave no temps"
    second, rep2 = build_dataset_report(DESIGNS, flow_config=CFG,
                                        map_bins=BINS, cache_dir=tmp_path,
                                        jobs=2)
    assert [s.status for s in rep2.statuses] == ["cached", "cached"]
    for a, b in zip(first, second):
        assert_samples_equal(a, b)


def test_worker_exception_is_retried_once():
    samples, report = build_dataset_report(
        DESIGNS, flow_config=CFG, map_bins=BINS, jobs=2,
        _fail_once={"xgate": "raise"})
    assert report.ok
    by_design = {s.design: s for s in report.statuses}
    assert by_design["xgate"].attempts == 2
    assert by_design["steelcore"].attempts == 1
    assert all(s is not None for s in samples)


def test_worker_crash_breaks_pool_but_not_batch():
    """A hard worker death (os._exit) is survived: pool is recreated and
    the design retried; the batch completes with all samples."""
    samples, report = build_dataset_report(
        DESIGNS, flow_config=CFG, map_bins=BINS, jobs=2,
        _fail_once={"steelcore": "crash"})
    assert report.ok, report.format()
    by_design = {s.design: s for s in report.statuses}
    assert by_design["steelcore"].attempts == 2
    assert all(s is not None for s in samples)


def test_permanent_failure_reported_not_fatal():
    samples, report = build_dataset_report(
        ["xgate", "definitely-not-a-design"], flow_config=CFG,
        map_bins=BINS, jobs=2)
    assert [s.design for s in report.failed] == ["definitely-not-a-design"]
    assert report.failed[0].attempts == 2
    assert "unknown design" in report.failed[0].error
    assert samples[0] is not None and samples[1] is None
    # The strict entry point refuses partial datasets.
    with pytest.raises(RuntimeError, match="definitely-not-a-design"):
        build_dataset(["xgate", "definitely-not-a-design"],
                      flow_config=CFG, map_bins=BINS, jobs=2)


def test_worker_spans_merged_into_parent_trace(clean_tracer):
    clean_tracer.enable()
    _, report = build_dataset_report(DESIGNS, flow_config=CFG,
                                     map_bins=BINS, jobs=2)
    assert report.merged_events > 0
    profile = aggregate_trace(clean_tracer.events())
    # Every flow stage of every design must survive the merge.
    for stage in ("flow.place", "flow.opt", "flow.route", "flow.sta",
                  "model.pre"):
        assert stage in profile.stages, stage
        for design in DESIGNS:
            assert profile.designs[design].get(stage, 0.0) > 0.0, \
                f"{design}/{stage} dropped in merge"
    rows = {r["design"]: r for r in profile.table3_rows()}
    assert set(DESIGNS) <= set(rows)


def _report_blas(design):
    return blas_threads(), "built"


@pytest.mark.skipif(blas_threads() is None,
                    reason="numpy bundles no scipy_openblas here")
def test_pool_caps_blas_threads_and_restores_the_parent():
    """Each forked worker runs BLAS on its share of the CPUs (no N x cpus
    thread oversubscription), and the parent gets its own count back
    for whatever runs after the pool (the bootstrap fit)."""
    before = blas_threads()
    # A parent count above any cap, so a restore is told from a cap.
    limit_blas_threads(3)
    try:
        values, report = run_design_tasks(_report_blas, ["a", "b"], (),
                                          jobs=2, span="test.blas")
        assert report.ok and report.jobs == 2
        cap = max(1, len(os.sched_getaffinity(0)) // 2)
        assert values == [cap, cap]
        assert blas_threads() == 3
    finally:
        limit_blas_threads(before)
