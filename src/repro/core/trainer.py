"""Training loop for the multimodal model (paper Section VI-A).

The paper trains with MSE on endpoint arrival time, Adam, lr = 1e-3, on
batches of **1024 endpoints**.  We do the same: the training designs are
disjoint-unioned into one :class:`~repro.ml.batch.PackedBatch` and each
epoch walks seeded, shuffled **cross-design endpoint mini-batches**
(:class:`~repro.ml.batch.EndpointBatchSampler`, default 1024) — one
packed forward/backward and one Adam step per mini-batch.  Labels are
z-scored over the training set so one normalization serves all designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import RestructureTolerantModel
from repro.ml.batch import DEFAULT_ENDPOINT_BATCH, EndpointBatchSampler, PackedBatch
from repro.ml.sample import DesignSample
from repro.nn import Adam, mse_loss
from repro.obs import get_metrics, get_tracer
from repro.utils import get_logger, require, spawn_rng

logger = get_logger("core.trainer")


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization hyper-parameters."""

    epochs: int = 60
    lr: float = 1e-3
    seed: int = 0
    log_every: int = 10
    #: Endpoints per cross-design mini-batch (paper Section VI-A: 1024).
    endpoint_batch: int = DEFAULT_ENDPOINT_BATCH


@dataclass
class LabelNorm:
    """Clock-relative label normalization.

    Designs differ in logic depth and clock period by large factors, so raw
    arrival times do not share a scale across designs.  The clock period is
    a *known constraint* at inference time, so we regress the ratio
    ``arrival / clock_period`` (z-scored over the training set) — the model
    stays identical, only the target's units change.
    """

    mean: float
    std: float

    @classmethod
    def fit(cls, samples: List[DesignSample]) -> "LabelNorm":
        r = np.concatenate([s.y / s.clock_period for s in samples])
        return cls(mean=float(r.mean()), std=float(max(r.std(), 1e-9)))

    def normalize(self, y: np.ndarray, clock_period: float) -> np.ndarray:
        return (y / clock_period - self.mean) / self.std

    def denormalize(self, z: np.ndarray, clock_period: float) -> np.ndarray:
        return (z * self.std + self.mean) * clock_period

    def normalize_packed(self, batch: PackedBatch) -> np.ndarray:
        """Normalized targets along the packed endpoint axis."""
        return ((batch.y / batch.endpoint_clock_periods - self.mean)
                / self.std)

    def denormalize_packed(self, z: np.ndarray,
                           batch: PackedBatch) -> np.ndarray:
        """Invert :meth:`normalize_packed` (per-endpoint clock periods).

        Preserves ``z``'s dtype: the fp32 inference tier must not be
        silently upcast by the fp64 clock-period vector on its way out
        (for fp64 ``z`` the cast is a no-op on the same array).
        """
        cp = batch.endpoint_clock_periods.astype(z.dtype, copy=False)
        return (z * self.std + self.mean) * cp


class Trainer:
    """Fits a :class:`RestructureTolerantModel` on design samples."""

    def __init__(self, model: RestructureTolerantModel,
                 config: Optional[TrainerConfig] = None) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self.norm: Optional[LabelNorm] = None
        self.history: List[float] = []

    def fit(self, train_samples: List[DesignSample]
            ) -> Dict[Tuple[str, int], float]:
        """Train on the given samples.

        Returns the final-epoch loss per sample, keyed by ``(design name,
        position in train_samples)`` — augmented datasets may contain
        several placements of the same named design, so the name alone
        would collide and silently drop losses.
        """
        require(len(train_samples) > 0, "need at least one training sample")
        unlabeled = [s.name for s in train_samples if s.y is None]
        require(not unlabeled,
                f"cannot train on unlabeled sample(s) {unlabeled}: build "
                "training samples with build_sample, not build_inputs")
        self.norm = LabelNorm.fit(train_samples)
        optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        rng = spawn_rng("trainer", self.config.seed)

        batch = PackedBatch.pack(train_samples)
        targets = self.norm.normalize_packed(batch)
        # ``endpoint_batch`` caps the mini-batch; the effective size also
        # guarantees at least one optimizer step per packed design each
        # epoch, so packing N tiny designs never takes *fewer* Adam steps
        # than the per-design full-batch loop it replaced.
        effective_batch = min(self.config.endpoint_batch,
                              -(-batch.n_endpoints // batch.n_samples))
        sampler = EndpointBatchSampler(batch.n_endpoints, effective_batch)
        metrics = get_metrics()
        metrics.gauge("trainer.endpoint_batch").set(sampler.batch_size)
        metrics.gauge("trainer.packed_designs").set(batch.n_samples)
        per_sample = np.zeros(batch.n_samples)
        for epoch in range(self.config.epochs):
            with get_tracer().span("trainer.epoch", epoch=epoch) as sp:
                sq_sum = np.zeros(batch.n_samples)
                for idx in sampler.batches(rng):
                    pred = self.model.forward_batch(batch)
                    loss, grad_sel = mse_loss(pred[idx], targets[idx])
                    grad = np.zeros(batch.n_endpoints)
                    grad[idx] = grad_sel
                    optimizer.zero_grad()
                    self.model.backward_batch(grad)
                    optimizer.step()
                    err = pred[idx] - targets[idx]
                    np.add.at(sq_sum, batch.endpoint_sample[idx], err * err)
                    metrics.histogram("trainer.batch_endpoints").observe(
                        len(idx))
                    metrics.histogram("trainer.batch_loss").observe(loss)
                per_sample = sq_sum / np.maximum(
                    batch.endpoints_per_sample, 1)
                self.history.append(float(sq_sum.sum()
                                          / batch.n_endpoints))
                sp.set(loss=self.history[-1])
            metrics.counter("trainer.steps").inc(sampler.n_batches)
            if sp.duration > 0:
                metrics.gauge("trainer.endpoints_per_s").set(
                    sampler.n_batches * len(targets) / sp.duration)
            metrics.gauge("trainer.epoch_loss").set(self.history[-1])
            metrics.histogram("trainer.epoch_loss_hist").observe(
                self.history[-1])
            if (epoch + 1) % self.config.log_every == 0:
                logger.info("epoch %d: mean loss %.4f", epoch + 1,
                            self.history[-1])
        return {(s.name, i): float(per_sample[i])
                for i, s in enumerate(train_samples)}

    def predict(self, sample: DesignSample) -> np.ndarray:
        """Predicted sign-off endpoint arrival times in ps."""
        require(self.norm is not None, "call fit() before predict()")
        pred = self.model.forward_batch(PackedBatch.pack([sample]),
                                        training=False)
        return self.norm.denormalize(pred, sample.clock_period)

    def predict_packed(self, batch: PackedBatch) -> List[np.ndarray]:
        """One packed forward over *batch*; per-sample arrival arrays (ps)."""
        require(self.norm is not None, "call fit() before predict()")
        pred = self.model.forward_batch(batch, training=False)
        return batch.split_endpoint_array(
            self.norm.denormalize_packed(pred, batch))

    def predict_batch(self, samples: Sequence[DesignSample]
                      ) -> List[np.ndarray]:
        """Predict several designs in one packed forward pass."""
        return self.predict_packed(PackedBatch.pack(samples))
