"""Partitioner invariants: coverage, halo discipline, determinism.

The streaming execution battery (bit-identity of the partitioned GNN
forward against the whole-graph training forward) lives in
``tests/ml/test_partition_exec.py``; this file pins down the graph-level
partitioner itself.
"""

import numpy as np
import pytest

from repro.netlist import generate_preset
from repro.timing import build_timing_graph, partition_graph
from repro.timing.partition import _greedy_ranges, resolve_pins


@pytest.fixture(scope="module")
def graph():
    return build_timing_graph(generate_preset("steelcore", scale=0.4))


# ----------------------------------------------------------------------
# Config / knob resolution.
# ----------------------------------------------------------------------

def test_resolve_pins_accepts_all_knob_forms():
    assert resolve_pins(None) is None
    assert resolve_pins(1234) == 1234
    with pytest.raises(ValueError):
        resolve_pins(-3)


def test_greedy_ranges_respect_budget_and_cover():
    sizes = [10, 20, 5, 100, 3, 3]
    ranges = _greedy_ranges(sizes, 30)
    # Contiguous, ascending, covering every level exactly once.
    assert ranges[0][0] == 0 and ranges[-1][1] == len(sizes)
    for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
        assert b0 == a1 and a0 < b0
    # An oversized level becomes its own chunk; others stay under budget.
    for a, b in ranges:
        total = sum(sizes[a:b])
        assert total <= 30 or b - a == 1


# ----------------------------------------------------------------------
# Graph partition invariants.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pins", [64, 500, 10**9])
def test_chunks_cover_all_nonsource_nodes_exactly_once(graph, pins):
    chunks = partition_graph(graph, pins)
    level = np.asarray(graph.level)
    covered = np.concatenate([c.nodes for c in chunks])
    expected = np.where(level > 0)[0]
    # Ascending within each chunk, chunks in ascending level order -> the
    # concatenation of a level-respecting partition is itself sorted
    # within each chunk and chunk-disjoint.
    assert len(covered) == len(np.unique(covered))
    assert np.array_equal(np.sort(covered), expected)
    for i, c in enumerate(chunks):
        assert c.index == i
        assert np.all(np.diff(c.nodes) > 0)
        assert c.n_pins == len(c.nodes)
    # Level ranges are contiguous and ascending.
    assert chunks[0].level_start == 1
    assert chunks[-1].level_stop == graph.n_levels
    for c0, c1 in zip(chunks, chunks[1:]):
        assert c0.level_stop == c1.level_start


def test_halo_nodes_come_from_strictly_earlier_chunks(graph):
    chunks = partition_graph(graph, 300)
    assert len(chunks) > 2, "budget too large to exercise halos"
    level = np.asarray(graph.level)
    chunk_of = np.full(graph.n_nodes, -1, dtype=np.int64)
    for c in chunks:
        chunk_of[c.nodes] = c.index
    pred_ptr = np.asarray(graph.pred_ptr)
    pred_idx = np.asarray(graph.pred_idx)
    saw_halo = False
    for c in chunks:
        assert np.all(np.diff(c.halo) > 0)          # id-sorted
        assert np.all(level[c.halo] > 0)            # level-0 is never halo
        assert not np.intersect1d(c.halo, c.nodes).size
        assert np.all(chunk_of[c.halo] < c.index)   # strictly earlier
        assert np.all(chunk_of[c.halo] >= 0)
        saw_halo = saw_halo or len(c.halo) > 0
        # Every read of the chunk resolves inside chunk ∪ halo ∪ level-0.
        reads = np.concatenate([pred_idx[pred_ptr[n]:pred_ptr[n + 1]]
                                for n in c.nodes])
        external = reads[(level[reads] > 0) & (chunk_of[reads] != c.index)]
        assert np.isin(external, c.halo).all()
    assert saw_halo, "multi-chunk partition produced no halo at all"


def test_huge_budget_collapses_to_one_haloless_chunk(graph):
    (chunk,) = partition_graph(graph, 10**9)
    assert chunk.level_start == 1 and chunk.level_stop == graph.n_levels
    assert len(chunk.halo) == 0


def test_unit_budget_gives_one_chunk_per_level(graph):
    chunks = partition_graph(graph, 1)
    assert len(chunks) == graph.n_levels - 1
    for c in chunks:
        assert c.level_stop == c.level_start + 1


def test_partition_is_deterministic(graph):
    a = partition_graph(graph, 250)
    b = partition_graph(graph, 250)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert (ca.index, ca.level_start, ca.level_stop) == \
               (cb.index, cb.level_start, cb.level_stop)
        assert np.array_equal(ca.nodes, cb.nodes)
        assert np.array_equal(ca.halo, cb.halo)


def test_disabled_partition_is_rejected(graph):
    with pytest.raises(ValueError, match="enabled partition"):
        partition_graph(graph, None)
