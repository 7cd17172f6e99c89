"""The customized endpoint-embedding GNN (paper Section IV-B, Eq. (3)).

Message passing runs once, level by level in topological order (Fig. 3):

* **cell nodes** aggregate their predecessors with an elementwise **max**
  (delay at an output pin is set by the latest input), transformed by MLP
  ``f_c1``, plus MLP ``f_c2`` of the cell features;
* **net nodes** receive their single driver's embedding directly, plus MLP
  ``f_n`` of the net features;

followed by a ReLU.  Because each MLP is applied once per level, the layer
cache stacks (see :mod:`repro.nn.module`) unwind naturally when
``backward`` sweeps the levels in reverse, routing max-gradients through
the cached argmax winners.

The forward/backward passes are **batch-shaped**: they consume anything
presenting the node-level sample interface — a single
:class:`~repro.ml.sample.DesignSample` or a
:class:`~repro.ml.batch.PackedBatch` (the disjoint union of several
designs).  Level-wise message passing over a pack is the same loop with
wider levels: the merged :class:`~repro.ml.sample.LevelPlan`\\ s carry the
offset node ids, and the ``-1`` predecessor padding keeps pointing at the
single shared sentinel row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.ml.batch import plan_orders
from repro.ml.sample import DesignSample
from repro.nn import (
    Module,
    Parameter,
    inference_mode,
    mlp,
    workspace,
    ws_empty,
)
from repro.timing.partition import StreamPlan
from repro.utils import require

if TYPE_CHECKING:  # import cycle guard: repro.ml.batch imports repro.core
    from repro.ml.batch import PackedBatch

#: Anything with the node-level sample interface the GNN consumes.
SampleLike = Union[DesignSample, "PackedBatch"]

#: The feature branches run in fixed tiles of the level-ordered row block,
#: at *absolute* row offsets.  BLAS blocks a GEMM on the row count, so
#: slicing rows out of a different-m call is not ulp-stable — tiling both
#: execution paths at the same absolute boundaries means every feature row
#: comes from an identical call no matter how the level schedule is
#: chunked, which is what makes streamed execution bit-identical.
FEAT_TILE = 4096


def _feat_rows(branch: Module, x: np.ndarray, order: np.ndarray,
               begin: int, end: int) -> np.ndarray:
    """Rows ``[begin:end)`` of ``branch(x[order])``, in absolute tiles.

    A caller that needs a sub-range (a stream chunk) recomputes at most
    one boundary tile on each side — the price of exactness, bounded by
    ``2 * FEAT_TILE`` rows per chunk.
    """
    if begin >= end:
        return np.zeros((0, 0))
    n = len(order)
    parts = []
    tb = (begin // FEAT_TILE) * FEAT_TILE
    while tb < end:
        te = min(tb + FEAT_TILE, n)
        rows = branch.forward(np.take(x, order[tb:te], axis=0))
        parts.append(rows[max(begin, tb) - tb:min(end, te) - tb])
        tb += FEAT_TILE
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


class EndpointGNN(Module):
    """Level-wise heterograph GNN producing one embedding per node."""

    def __init__(self, hidden: int, cell_feat_dim: int, net_feat_dim: int,
                 rng: np.random.Generator, n_layers: int = 3,
                 residual: bool = True) -> None:
        """``residual=True`` adds an identity path through the cell update:
        ``h = relu(max_pred + f_c1(max_pred) + f_c2(x))``.  Eq. (3) of the
        paper has no identity term, but endpoint cones here are up to ~60
        cell stages deep and the plain form must push every embedding
        through ~60 stacked MLPs — numerically untrainable at our scale.
        The net-node update is already residual in the paper (``h_d`` enters
        unchanged), so this extends the same idea to cell nodes; the
        ablation benchmark compares both forms.
        """
        require(n_layers >= 2, "paper uses 3-layer MLPs; need at least 2")
        self.hidden = hidden
        self.residual = residual
        init_scale = 0.0 if residual else 1.0
        sizes_h = [hidden] + [hidden] * (n_layers - 1) + [hidden]
        self.f_c1 = mlp(sizes_h, rng)
        self.f_c2 = mlp([cell_feat_dim] + [hidden] * (n_layers - 1) + [hidden],
                        rng)
        self.f_n = mlp([net_feat_dim] + [hidden] * (n_layers - 1) + [hidden],
                       rng)
        if residual:
            # Zero-init the output layer of every branch MLP: at t=0 the
            # network is a pure identity propagation and training grows the
            # per-stage contributions from zero — the standard recipe for
            # very deep residual stacks (here: one stack level per
            # topological level, up to ~120).
            for branch in (self.f_c1, self.f_c2, self.f_n):
                last = branch.layers[-1]
                last.weight.data[...] = 0.0
                if last.bias is not None:
                    last.bias.data[...] = 0.0
        self.source_emb = Parameter(rng.normal(0.0, 0.1, hidden))
        self._cache: List[dict] = []
        self._sample: Optional[SampleLike] = None

    def _drain_cache(self) -> None:
        self._cache.clear()
        self._sample = None

    # ------------------------------------------------------------------
    def forward(self, sample: SampleLike) -> np.ndarray:
        """Training forward: all levels; returns the (n, hidden) embeddings.

        *sample* may be a single design or a :class:`PackedBatch`; a pack
        runs the identical per-level arithmetic on the union graph, so
        the result rows equal the per-design rows up to fp round-off.
        Records the argmax winners and ReLU masks :meth:`backward`
        unwinds.  Inference runs :meth:`forward_stream` instead.
        """
        n = sample.n_nodes
        # Sentinel row at index -1 carries -inf so padded predecessor slots
        # never win the max.
        cell_order, net_order, level0 = plan_orders(sample)
        big = np.full((n + 1, self.hidden), -np.inf)
        big[sample.source_nodes] = self.source_emb.data
        # Unreachable isolated nodes would poison downstream levels; give
        # every level-0 node the source embedding.
        big[level0] = self.source_emb.data

        # The feature branches f_c2/f_n see only node features, never the
        # propagated state, so they run hoisted over the level-ordered
        # rows — in FEAT_TILE-row tiles (not one whole-block call, see
        # :func:`_feat_rows`) so the streamed path can reproduce any
        # chunk's rows bit for bit.  The level loop then just slices the
        # precomputed rows.
        feat_c = _feat_rows(self.f_c2, sample.x_cell, cell_order,
                            0, len(cell_order))
        feat_n = _feat_rows(self.f_n, sample.x_net, net_order,
                            0, len(net_order))

        caches: List[dict] = []
        c_off = n_off = 0
        for plan in sample.plans:
            entry: dict = {}
            mc = len(plan.cell_nodes)
            if mc:
                gathered = big[plan.cell_preds]          # (m, K, h)
                arg = gathered.argmax(axis=1)            # (m, h)
                maxv = np.take_along_axis(gathered, arg[:, None, :],
                                          axis=1)[:, 0]
                pre = self.f_c1.forward(maxv) + feat_c[c_off:c_off + mc]
                if self.residual:
                    pre = pre + maxv
                mask = pre > 0
                big[plan.cell_nodes] = pre * mask
                entry["cell_mask"] = mask
                entry["cell_winner"] = np.take_along_axis(
                    plan.cell_preds, arg, axis=1)        # (m, h) node ids
                c_off += mc
            mn = len(plan.net_nodes)
            if mn:
                pre = big[plan.net_drivers] + feat_n[n_off:n_off + mn]
                mask = pre > 0
                big[plan.net_nodes] = pre * mask
                entry["net_mask"] = mask
                n_off += mn
            caches.append(entry)
        self._cache.append(caches)
        self._sample = sample
        return big[:n]

    # ------------------------------------------------------------------
    def forward_stream(self, sample: SampleLike,
                       stream: StreamPlan) -> np.ndarray:
        """The inference forward, streamed chunk-by-chunk; endpoint rows only.

        Whole-graph inference is the one-chunk plan
        (``build_stream_plan(sample, None)``).  Executes the level
        schedule in :class:`StreamPlan` chunk order, holding one
        chunk-local propagation buffer at a time and carrying
        only frontier activations between chunks — never the ``(n+1, h)``
        whole-graph buffer.  Chunks are whole-level-aligned, so every
        per-level op sees the identical row sets as :meth:`forward`; the
        hoisted ``f_c2``/``f_n`` feature branches re-run the same
        absolute ``FEAT_TILE`` tiles of the level-ordered block (see
        :func:`_feat_rows` for why same-rows is not enough).  Result
        equals ``forward(sample)[sample.endpoint_nodes]`` at any chunk
        size (ReLU here is ``maximum(pre, 0)``, so a zero is ``+0.0``
        where the training ``pre * mask`` may give ``-0.0``), without
        ever materializing the ``(n, h)`` table.

        Per-chunk buffers come from the plan's dedicated byte-capped
        workspace (entered anew each chunk, so cursors rewind and chunk
        *k+1* reuses chunk *k*'s arena); only the endpoint output and the
        frontier live store are plain allocations that survive the arena
        rewind.  The slabs are per plan, so one thread runs a given plan
        at a time.
        """
        require(not self._cache, "forward_stream is inference-only")
        h = self.hidden
        dt = np.float64 if self.precision == "fp64" else np.float32
        endpoint_nodes = sample.endpoint_nodes
        out = ws_empty((len(endpoint_nodes), h), dt)
        src = np.empty(h, dtype=dt)
        src[...] = self.source_emb.data
        # Level-0 endpoints (degenerate but legal) never pass through a
        # chunk buffer; they take the source embedding directly, exactly
        # like the whole-graph buffer's level-0 rows.
        lvl0_ep = np.asarray(sample.level)[endpoint_nodes] == 0
        if lvl0_ep.any():
            out[lvl0_ep] = src

        # The per-plan scratch arena holds exactly two *padded* slabs —
        # the propagation buffer and the max-reduction destination, both
        # (max_rows, h) and sliced down per chunk/level — so every chunk
        # (and every later request on the same plan) borrows the same
        # two allocations.  Everything else per chunk (feature-branch
        # MLP intermediates, predecessor gathers) deliberately runs with
        # NO active arena: those shapes differ chunk to chunk, so a pool
        # would retain every chunk's set and the working set would creep
        # back toward whole-graph scale; as plain allocations they are
        # freed the moment the chunk (or level) drops them.
        # inference_mode is part of the memory contract, not an
        # optimization: without it every Linear caches its input
        # activations for a backward that will never come, and the
        # retained caches grow right back to whole-graph scale.
        scratch = stream.scratch_workspace(h)
        live = np.empty((0, h), dtype=dt)
        cell_order_all, net_order_all, _ = plan_orders(sample)
        c_base = n_base = 0
        with inference_mode():
            for chunk in stream.chunks:
                with workspace(scratch):
                    buf = ws_empty((stream.max_rows, h), dt)[:chunk.n_rows]
                    maxv_slab = ws_empty((stream.max_rows, h), dt)
                buf.fill(-np.inf)
                buf[chunk.source_row] = src
                if chunk.n_halo:
                    buf[:chunk.n_halo] = live[chunk.halo_from_live]
                with workspace(None):
                    # Chunk rows are a contiguous [base, base+len) slice
                    # of the global level-ordered block; _feat_rows
                    # re-runs the same absolute tiles the training
                    # forward runs, so the rows match it bit for bit.
                    feat_c = _feat_rows(self.f_c2, sample.x_cell,
                                        cell_order_all, c_base,
                                        c_base + len(chunk.cell_order))
                    feat_n = _feat_rows(self.f_n, sample.x_net,
                                        net_order_all, n_base,
                                        n_base + len(chunk.net_order))
                    c_base += len(chunk.cell_order)
                    n_base += len(chunk.net_order)
                    c_off = n_off = 0
                    for plan in chunk.plans:
                        mc = len(plan.cell_nodes)
                        if mc:
                            gathered = np.take(buf, plan.cell_preds, axis=0)
                            maxv = gathered.max(axis=1, out=maxv_slab[:mc])
                            pre = self.f_c1.forward(maxv)
                            pre += feat_c[c_off:c_off + mc]
                            if self.residual:
                                pre += maxv
                            buf[plan.cell_nodes] = np.maximum(pre, 0.0,
                                                              out=pre)
                            c_off += mc
                        mn = len(plan.net_nodes)
                        if mn:
                            pre = np.take(buf, plan.net_drivers, axis=0)
                            pre += feat_n[n_off:n_off + mn]
                            buf[plan.net_nodes] = np.maximum(pre, 0.0,
                                                             out=pre)
                            n_off += mn
                if len(chunk.endpoint_pos):
                    out[chunk.endpoint_pos] = buf[chunk.endpoint_local]
                # Frontier carry: plain allocations on purpose — the
                # next chunk's workspace entry rewinds the arena the
                # slabs live in, so nothing borrowed may cross the
                # chunk boundary.
                merged = np.concatenate([live[chunk.keep_prev],
                                         buf[chunk.keep_new]], axis=0)
                live = merged[chunk.live_order]
        return out

    # ------------------------------------------------------------------
    def backward(self, grad_h: np.ndarray) -> None:
        """Backpropagate a (n, hidden) gradient w.r.t. the embeddings.

        Feature gradients are discarded (features are inputs); parameter
        gradients accumulate into the MLPs and the source embedding.
        """
        sample = self._sample
        caches = self._cache.pop()
        dh = np.zeros((sample.n_nodes, self.hidden))
        dh += grad_h
        # Mirror of the forward's hoisting: collect the per-level f_c2/f_n
        # input gradients into level-ordered buffers, then run each branch
        # backward tile by tile.  dh[nodes of level L] is final by the
        # time the reverse sweep reaches level L, so the collected rows
        # equal the per-level calls'.
        cell_order, net_order, level0 = plan_orders(sample)
        gc_all = np.zeros((len(cell_order), self.hidden))
        gn_all = np.zeros((len(net_order), self.hidden))
        c_off, n_off = len(cell_order), len(net_order)
        for plan, entry in zip(reversed(sample.plans), reversed(caches)):
            # Net nodes were written after cell nodes in forward, so their
            # gradient must resolve first.
            mn = len(plan.net_nodes)
            if mn:
                g = dh[plan.net_nodes] * entry["net_mask"]
                n_off -= mn
                gn_all[n_off:n_off + mn] = g
                np.add.at(dh, plan.net_drivers, g)
            mc = len(plan.cell_nodes)
            if mc:
                g = dh[plan.cell_nodes] * entry["cell_mask"]
                c_off -= mc
                gc_all[c_off:c_off + mc] = g
                ga = self.f_c1.backward(g)               # grad w.r.t. maxv
                if self.residual:
                    ga = ga + g                          # identity path
                winner = entry["cell_winner"]            # (m, h) node ids
                dims = np.broadcast_to(np.arange(self.hidden), winner.shape)
                np.add.at(dh, (winner.ravel(), dims.ravel()), ga.ravel())
        # The forward ran each branch once per FEAT_TILE-row tile, pushing
        # one cache entry per tile — unwind them LIFO.
        for tb in reversed(range(0, len(gc_all), FEAT_TILE)):
            self.f_c2.backward(gc_all[tb:tb + FEAT_TILE])
        for tb in reversed(range(0, len(gn_all), FEAT_TILE)):
            self.f_n.backward(gn_all[tb:tb + FEAT_TILE])
        self.source_emb.grad += dh[level0].sum(axis=0)
        self._sample = None
