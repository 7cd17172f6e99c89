"""Order-preserving, level-respecting partition of the timing graph.

Whole-graph execution materializes an ``(n+1, hidden)`` propagation
buffer plus level-ordered feature blocks, which caps design size well
below the paper's 20k–1.3M pins.  This module splits the level schedule
into **chunks**: consecutive runs of whole topological levels whose
combined pin count fits a budget.  Because a chunk boundary never splits
a level, executing chunks in ascending order replays the exact per-level
arithmetic of the whole-graph schedule, so results are **fp64
bit-identical** at any chunk size.  (BLAS results depend on the row
count it blocks over, so "same rows" alone is not enough for the hoisted
feature branches — every forward runs them in fixed absolute tiles, see
``repro.core.gnn.FEAT_TILE``; the invariant is enforced by the
differential test battery.)  GNN inference always runs a
:class:`StreamPlan`: without a budget the whole graph is one chunk.

Terminology:

* **chunk nodes** — the nodes computed by a chunk (all non-source nodes
  of its level range), in ascending node order.
* **halo** — nodes *read* by a chunk but computed by an **earlier** chunk
  (level-respecting order makes "earlier" an invariant, asserted at build
  time).  Level-0 reads are not halo: every level-0 row of the
  propagation buffer holds the shared source embedding, so one local
  source row serves them all.
* **frontier / live store** — after a chunk executes, only embeddings
  still referenced by a later chunk are carried forward, as a dense
  id-sorted block.  Everything else is dropped, which is what bounds
  peak memory.

Import discipline: this module sits in ``repro.timing`` but must serve
``repro.ml`` (featurization) and ``repro.core`` (the GNN), so at import
time it depends only on numpy and ``repro.utils``; ``LevelPlan`` is
imported inside a function to avoid a package cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils import require

_EMPTY = np.empty(0, dtype=np.int64)


def resolve_pins(partition: Any) -> Optional[int]:
    """Normalize an int / ``None`` chunk-size knob to pins."""
    if partition is None:
        return None
    pins = int(partition)
    require(pins > 0, "partition_pins must be positive")
    return pins


def _greedy_ranges(sizes: Sequence[int],
                   pins: Optional[int]) -> List[Tuple[int, int]]:
    """Split a level-size sequence into contiguous ranges of ≲ *pins* nodes.

    Whole levels only: a level larger than the budget becomes its own
    chunk (correctness never depends on the budget being achievable).
    ``pins=None`` is no budget: one range covering every level.
    Deterministic: a pure function of the sizes and the budget.
    """
    if pins is None:
        return [(0, len(sizes))] if len(sizes) else []
    ranges: List[Tuple[int, int]] = []
    start, acc = 0, 0
    for i, size in enumerate(sizes):
        if acc and acc + size > pins:
            ranges.append((start, i))
            start, acc = i, 0
        acc += size
    if start < len(sizes):
        ranges.append((start, len(sizes)))
    return ranges


@dataclass(frozen=True)
class GraphChunk:
    """One partition chunk in graph-node terms (featurization + tests)."""

    index: int
    level_start: int           # first topological level (inclusive, >= 1)
    level_stop: int            # last topological level (exclusive)
    nodes: np.ndarray          # computed nodes, ascending
    halo: np.ndarray           # read-only inputs from earlier chunks, ascending

    @property
    def n_pins(self) -> int:
        return len(self.nodes)


def partition_graph(graph: Any, partition: Any) -> List[GraphChunk]:
    """Partition a :class:`~repro.timing.graph.TimingGraph` by levels.

    Chunks cover every node of level >= 1 exactly once, in ascending
    (deterministic) level order; halos are computed from the predecessor
    CSR and exclude level-0 nodes (served by the shared source row).
    """
    pins = resolve_pins(partition)
    require(pins is not None, "partition_graph needs an enabled partition")
    levels = graph.levels
    level = np.asarray(graph.level)
    n = graph.n_nodes
    sizes = [len(levels[l]) for l in range(1, len(levels))]
    ranges = _greedy_ranges(sizes, pins)

    chunk_of = np.full(n, -1, dtype=np.int64)
    node_lists: List[np.ndarray] = []
    for ci, (a, b) in enumerate(ranges):
        parts = [levels[l] for l in range(1 + a, 1 + b)]
        nodes = np.sort(np.concatenate(parts)) if parts else _EMPTY
        node_lists.append(nodes)
        chunk_of[nodes] = ci

    # Vectorized halo scan: expand the predecessor CSR to (edge -> dst).
    pred_ptr = np.asarray(graph.pred_ptr)
    pred_idx = np.asarray(graph.pred_idx)
    dst_of_edge = np.repeat(np.arange(n, dtype=np.int64), np.diff(pred_ptr))

    chunks: List[GraphChunk] = []
    for ci, (a, b) in enumerate(ranges):
        nodes = node_lists[ci]
        in_chunk = np.zeros(n, dtype=bool)
        in_chunk[nodes] = True
        preds = pred_idx[in_chunk[dst_of_edge]]
        halo = np.unique(preds[(level[preds] > 0) & ~in_chunk[preds]])
        require(bool(np.all(chunk_of[halo] >= 0))
                and bool(np.all(chunk_of[halo] < ci)),
                "level-respecting partition produced a forward halo reference")
        chunks.append(GraphChunk(index=ci, level_start=1 + a, level_stop=1 + b,
                                 nodes=nodes, halo=halo))
    return chunks


# ----------------------------------------------------------------------
# Streaming execution plan over LevelPlans (what the GNN consumes).
# ----------------------------------------------------------------------

@dataclass
class ChunkExec:
    """Executable form of one chunk, in **local buffer coordinates**.

    The chunk's propagation buffer has ``n_halo + n_nodes + 2`` rows laid
    out as ``[halo (id-sorted) | shared source row | chunk nodes
    (id-sorted) | -inf sentinel]``; ``-1`` predecessor padding indexes the
    last row, exactly like the whole-graph buffer's sentinel.
    """

    plans: List[Any]               # LevelPlans remapped to local rows
    n_halo: int
    n_nodes: int
    cell_order: np.ndarray         # global rows into x_cell, level order
    net_order: np.ndarray          # global rows into x_net, level order
    halo_from_live: np.ndarray     # halo rows within the previous live store
    endpoint_pos: np.ndarray       # positions on the sample endpoint axis
    endpoint_local: np.ndarray     # matching local buffer rows
    keep_prev: np.ndarray          # surviving rows of the previous live store
    keep_new: np.ndarray           # surviving local buffer rows
    live_order: np.ndarray         # argsort restoring id order after concat

    @property
    def n_rows(self) -> int:
        return self.n_halo + self.n_nodes + 2

    @property
    def source_row(self) -> int:
        return self.n_halo


@dataclass
class StreamPlan:
    """Deterministic chunk schedule for one sample (or packed batch)."""

    partition_pins: Optional[int]  # None: the whole graph is one chunk
    chunks: List[ChunkExec]
    max_rows: int                  # widest chunk buffer
    max_live: int                  # widest frontier carried between chunks
    _slabs: Dict[Tuple[int, str], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    def slabs(self, hidden: int,
              dtype: Any) -> Tuple[np.ndarray, np.ndarray]:
        """The plan's two padded ``(max_rows, hidden)`` scratch slabs.

        The propagation buffer and the max-reduction destination; every
        chunk slices them down, so chunk *k+1* (and every later request
        on this plan) reuses chunk *k*'s slabs.  Padding is what makes
        the reuse real: per-chunk true shapes differ, and keeping those
        would hold every chunk's buffers at once.  One pair per dtype,
        so a precision switch adds a pair instead of reallocating.
        """
        key = (hidden, np.dtype(dtype).str)
        pair = self._slabs.get(key)
        if pair is None:
            shape = (self.max_rows, hidden)
            pair = self._slabs[key] = (np.empty(shape, dtype=dtype),
                                       np.empty(shape, dtype=dtype))
        return pair


def build_stream_plan(sample: Any, partition: Any) -> StreamPlan:
    """Compile a sample-shaped object into a :class:`StreamPlan`.

    *sample* is anything with the node-level interface the GNN consumes
    (``n_nodes``, ``level``, ``plans``, ``endpoint_nodes``) — a
    ``DesignSample`` or a ``PackedBatch``.  Plan *i* covers topological
    level ``i + 1``; chunks are contiguous plan ranges, so the per-level
    row sets (and hence the arithmetic) match the whole-graph schedule
    exactly.  ``partition=None`` compiles the whole graph as one chunk.
    """
    from repro.ml.sample import LevelPlan

    pins = resolve_pins(partition)
    plans = sample.plans
    level = np.asarray(sample.level)
    n = sample.n_nodes
    endpoint_nodes = np.asarray(sample.endpoint_nodes)

    sizes = [len(p.net_nodes) + len(p.cell_nodes) for p in plans]
    ranges = _greedy_ranges(sizes, pins)

    chunk_of = np.full(n, -1, dtype=np.int64)
    node_lists: List[np.ndarray] = []
    for ci, (a, b) in enumerate(ranges):
        parts: List[np.ndarray] = []
        for p in plans[a:b]:
            parts.append(p.net_nodes)
            parts.append(p.cell_nodes)
        nodes = np.sort(np.concatenate(parts)) if parts else _EMPTY
        node_lists.append(nodes)
        chunk_of[nodes] = ci

    # Last chunk that reads each node — everything past it is dropped
    # from the live store.
    last_ref = np.full(n, -1, dtype=np.int64)
    for ci, (a, b) in enumerate(ranges):
        for p in plans[a:b]:
            if len(p.net_drivers):
                last_ref[p.net_drivers] = ci
            cp = p.cell_preds
            if cp.size:
                last_ref[cp[cp >= 0]] = ci

    chunks: List[ChunkExec] = []
    live = _EMPTY                      # node ids in the live store, sorted
    max_rows = 0
    max_live = 0
    for ci, (a, b) in enumerate(ranges):
        nodes = node_lists[ci]

        # Halo = external, non-level-0 reads of this chunk's plans.
        refs: List[np.ndarray] = []
        for p in plans[a:b]:
            if len(p.net_drivers):
                refs.append(p.net_drivers)
            cp = p.cell_preds
            if cp.size:
                refs.append(cp[cp >= 0].ravel())
        ref_ids = np.unique(np.concatenate(refs)) if refs else _EMPTY
        halo = ref_ids[(level[ref_ids] > 0) & (chunk_of[ref_ids] != ci)]
        require(bool(np.all(chunk_of[halo] >= 0))
                and bool(np.all(chunk_of[halo] < ci)),
                "level-respecting partition produced a forward halo reference")
        H = len(halo)
        C = len(nodes)
        base = H + 1                   # rows: [halo | source | nodes | sentinel]

        halo_from_live = np.searchsorted(live, halo)
        require(H == 0 or (halo_from_live.max(initial=-1) < len(live)
                           and bool(np.array_equal(live[halo_from_live],
                                                   halo))),
                "halo node missing from the live store")

        def _remap(arr: np.ndarray) -> np.ndarray:
            """Global node ids (-1 padded) -> local buffer rows."""
            # -1 fancy-indexes the last buffer row — the -inf sentinel —
            # exactly like the whole-graph path's padding idiom.
            out = np.full(arr.shape, -1, dtype=np.int64)
            mask = arr >= 0
            vals = arr[mask]
            loc = np.empty(len(vals), dtype=np.int64)
            is0 = level[vals] == 0
            loc[is0] = H                                 # shared source row
            rest = vals[~is0]
            inside = chunk_of[rest] == ci
            sub = np.empty(len(rest), dtype=np.int64)
            sub[inside] = base + np.searchsorted(nodes, rest[inside])
            sub[~inside] = np.searchsorted(halo, rest[~inside])
            loc[~is0] = sub
            out[mask] = loc
            return out

        local_plans: List[LevelPlan] = []
        cell_parts: List[np.ndarray] = []
        net_parts: List[np.ndarray] = []
        for p in plans[a:b]:
            local_plans.append(LevelPlan(
                net_nodes=base + np.searchsorted(nodes, p.net_nodes),
                net_drivers=_remap(p.net_drivers),
                cell_nodes=base + np.searchsorted(nodes, p.cell_nodes),
                cell_preds=_remap(p.cell_preds),
            ))
            if len(p.cell_nodes):
                cell_parts.append(p.cell_nodes)
            if len(p.net_nodes):
                net_parts.append(p.net_nodes)
        cell_order = (np.concatenate(cell_parts) if cell_parts else _EMPTY)
        net_order = (np.concatenate(net_parts) if net_parts else _EMPTY)

        ep_mask = chunk_of[endpoint_nodes] == ci
        endpoint_pos = np.where(ep_mask)[0]
        endpoint_local = base + np.searchsorted(nodes,
                                                endpoint_nodes[ep_mask])

        keep_prev = (np.where(last_ref[live] > ci)[0] if len(live)
                     else _EMPTY)
        new_mask = last_ref[nodes] > ci
        keep_new = base + np.where(new_mask)[0]
        merged = np.concatenate([live[keep_prev], nodes[new_mask]])
        live_order = np.argsort(merged, kind="stable")
        live = merged[live_order]

        chunks.append(ChunkExec(
            plans=local_plans, n_halo=H, n_nodes=C,
            cell_order=cell_order, net_order=net_order,
            halo_from_live=halo_from_live,
            endpoint_pos=endpoint_pos, endpoint_local=endpoint_local,
            keep_prev=keep_prev, keep_new=keep_new, live_order=live_order,
        ))
        max_rows = max(max_rows, H + C + 2)
        max_live = max(max_live, len(live))

    require(len(live) == 0, "live store not drained after the last chunk")
    return StreamPlan(partition_pins=pins, chunks=chunks,
                      max_rows=max_rows, max_live=max_live)


def stream_plan_for(sample: Any) -> StreamPlan:
    """The memoized :class:`StreamPlan` for a sample-shaped object.

    Chunks hold ≲ ``partition_pins`` pins; an object without that hint
    gets the one-chunk plan.  Plans are cached in the object's
    ``_stream_cache`` dict, which packed batches share with their
    plan-cache topology entry, so repeated packs of the same designs
    reuse one plan.
    """
    pins = getattr(sample, "partition_pins", None)
    cache = getattr(sample, "_stream_cache", None)
    if cache is None:
        cache = sample._stream_cache = {}
    plan = cache.get(pins)
    if plan is None:
        plan = cache[pins] = build_stream_plan(sample, pins)
    return plan
