"""The multimodal endpoint-embedding model (paper Fig. 2, Section III).

Per endpoint *e*:

* netlist embedding ``v_n``: the customized GNN's embedding at the
  endpoint node (Section IV);
* layout embedding ``v_l``: the CNN's global layout map, masked by the
  endpoint's critical region (``M^e ⊙ M^L``, Eq. (6)) and passed through a
  shared fully connected layer (Section V);
* final embedding: concatenation, consumed by an MLP regressor that
  predicts the sign-off arrival time, trained with MSE (Eq. (2)).

``variant`` selects the ablations of Table II: ``"full"``, ``"gnn"``
(netlist-only, paper's "our GNN-only") and ``"cnn"`` (layout-only).

The native execution shape is a :class:`~repro.ml.batch.PackedBatch` —
N designs disjoint-unioned into one graph, their layout stacks batched
through one CNN pass, and every endpoint's mask applied to *its* design's
global map via the pack's endpoint→sample index.  ``forward(sample)`` /
``backward(grad)`` remain the one-design API and simply run a pack of
one, so baselines, tests and existing callers keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.cnn import LayoutEncoder
from repro.core.gnn import EndpointGNN
from repro.ml.batch import PackedBatch
from repro.ml.features import CELL_FEATURE_DIM, NET_FEATURE_DIM
from repro.ml.sample import DesignSample
from repro.nn import (
    Embedding,
    Linear,
    Module,
    ReLU,
    Sequential,
    inference_mode,
    mlp,
)
from repro.timing.partition import stream_plan_for
from repro.utils import require, spawn_rng

VARIANTS = ("full", "gnn", "cnn")


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters (paper values in Section VI-A; scaled defaults)."""

    variant: str = "full"
    hidden: int = 64            # GNN embedding width (paper: 128, MLPs 256)
    layout_embed: int = 64      # layout embedding width (paper: 128)
    regressor_hidden: int = 128  # regressor MLP width (paper: 512)
    map_bins: int = 64          # layout map M = N (paper: 512)
    mlp_layers: int = 3
    #: Residual identity path in the GNN cell update (see EndpointGNN).
    gnn_residual: bool = True
    seed: int = 0
    #: Sign-off corners the model is conditioned on, in embedding-index
    #: order.  A single corner (the legacy implicit one) creates no
    #: embedding at all — parameters, rng stream and outputs are
    #: bit-identical to a pre-MMMC model.
    corner_names: Tuple[str, ...] = ("base",)
    corner_embed: int = 8            # corner embedding width

    def __post_init__(self) -> None:
        require(self.variant in VARIANTS,
                f"variant must be one of {VARIANTS}")
        if not isinstance(self.corner_names, tuple):
            object.__setattr__(self, "corner_names",
                               tuple(self.corner_names))
        require(len(self.corner_names) >= 1, "need at least one corner")
        require(len(set(self.corner_names)) == len(self.corner_names),
                f"duplicate corner names: {self.corner_names}")
        require(self.corner_embed > 0, "corner_embed must be positive")

    @property
    def n_corners(self) -> int:
        return len(self.corner_names)


class RestructureTolerantModel(Module):
    """End-to-end endpoint arrival-time predictor."""

    def __init__(self, config: Optional[ModelConfig] = None) -> None:
        config = config or ModelConfig()
        self.config = config
        rng = spawn_rng(f"model/{config.variant}", config.seed)
        map_flat = (config.map_bins // 4) ** 2

        self.gnn: Optional[EndpointGNN] = None
        self.cnn: Optional[LayoutEncoder] = None
        self.layout_fc: Optional[Sequential] = None
        reg_in = 0
        if config.variant in ("full", "gnn"):
            self.gnn = EndpointGNN(config.hidden, CELL_FEATURE_DIM,
                                   NET_FEATURE_DIM, rng,
                                   n_layers=config.mlp_layers,
                                   residual=config.gnn_residual)
            reg_in += config.hidden
        if config.variant in ("full", "cnn"):
            self.cnn = LayoutEncoder(rng)
            self.layout_fc = Sequential(
                Linear(map_flat, config.layout_embed, rng=rng), ReLU())
            reg_in += config.layout_embed

        # MMMC conditioning: one learned row per corner, concatenated
        # into the fusion head.  Created ONLY for multi-corner configs so
        # the single-corner parameter list and rng stream stay exactly
        # the pre-MMMC ones (bit-identity for existing artifacts).
        self.corner_embedding: Optional[Embedding] = None
        if config.n_corners > 1:
            self.corner_embedding = Embedding(config.n_corners,
                                              config.corner_embed, rng=rng)
            reg_in += config.corner_embed

        sizes = ([reg_in]
                 + [config.regressor_hidden] * (config.mlp_layers - 1) + [1])
        self.regressor = mlp(sizes, rng)
        self._cache = None

    # ------------------------------------------------------------------
    def forward_batch(self, batch: PackedBatch,
                      training: bool = True) -> np.ndarray:
        """Predict normalized arrival for every endpoint of *batch*.

        One GNN pass over the union graph, one CNN pass over the stacked
        layout maps; returns the packed ``(E,)`` prediction vector in the
        batch's endpoint order.  ``training=False`` runs the GNN's
        streamed inference forward, which keeps no backward bookkeeping
        (same output, no backward afterwards).
        """
        require(batch.masks.shape[1] == (self.config.map_bins // 4) ** 2
                or self.cnn is None,
                "batch mask resolution does not match the model config")
        if not training:
            with inference_mode():
                return self._forward_batch(batch, training=False)
        return self._forward_batch(batch, training=True)

    def _forward_batch(self, batch: PackedBatch,
                       training: bool) -> np.ndarray:
        inference = not training
        parts = []
        if self.gnn is not None:
            if inference:
                # Chunk-streamed level execution (the whole graph is one
                # chunk when the batch carries no partition_pins); it
                # returns the endpoint rows directly.
                parts.append(self.gnn.forward_stream(
                    batch, stream_plan_for(batch)))
            else:
                parts.append(self.gnn.forward(batch)[batch.endpoint_nodes])
        masks = None
        if self.cnn is not None:
            global_maps = self.cnn.forward_batch(batch.layout_stacks)
            # (E, P4): each endpoint masks ITS design's map, Eq. (6).
            if inference:
                # float * bool equals bool.astype(float) * float bit for
                # bit; skipping the astype drops an (E, P4) allocation.
                masked = np.take(global_maps, batch.endpoint_sample,
                                 axis=0)
                masked *= batch.masks
            else:
                masks = batch.masks.astype(float)
                masked = masks * global_maps[batch.endpoint_sample]
            parts.append(self.layout_fc.forward(masked))
        if self.corner_embedding is not None:
            parts.append(self.corner_embedding.forward(
                batch.endpoint_corner))
        z = np.concatenate(parts, axis=1)
        pred = self.regressor.forward(z).ravel()
        if training:
            self._cache = (batch, masks)
        return pred

    def backward_batch(self, grad_pred: np.ndarray) -> None:
        """Backprop d(loss)/d(pred) of shape (E,) through the pack."""
        batch, masks = self._cache
        gz = self.regressor.backward(grad_pred[:, None])
        offset = 0
        if self.gnn is not None:
            gn = gz[:, offset:offset + self.config.hidden]
            offset += self.config.hidden
            grad_h = np.zeros((batch.n_nodes, self.config.hidden))
            grad_h[batch.endpoint_nodes] = gn
            self.gnn.backward(grad_h)
        if self.cnn is not None:
            gl = gz[:, offset:offset + self.config.layout_embed]
            offset += self.config.layout_embed
            gm = self.layout_fc.backward(gl) * masks    # (E, P4)
            # Per-design map gradients: endpoints are grouped contiguously
            # by sample, so the segment sum reduces straight to (B, P4).
            if np.all(batch.endpoints_per_sample > 0):
                gmaps = np.add.reduceat(gm, batch.endpoint_offsets[:-1],
                                        axis=0)
            else:  # reduceat mishandles empty segments
                gmaps = np.zeros((batch.n_samples, gm.shape[1]))
                np.add.at(gmaps, batch.endpoint_sample, gm)
            self.cnn.backward_batch(gmaps)
        if self.corner_embedding is not None:
            self.corner_embedding.backward(gz[:, offset:])
        self._cache = None

    # ------------------------------------------------------------------
    def forward(self, sample: DesignSample) -> np.ndarray:
        """Predict normalized arrival for every endpoint of *sample*.

        The one-design API: runs :meth:`forward_batch` on a pack of one
        (array reuse makes the wrapping free).
        """
        return self.forward_batch(PackedBatch.pack([sample]))

    def backward(self, grad_pred: np.ndarray) -> None:
        """Backprop d(loss)/d(pred) of shape (E,)."""
        self.backward_batch(grad_pred)
