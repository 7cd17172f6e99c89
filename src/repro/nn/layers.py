"""Dense layers and activations with explicit backward passes."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.init import kaiming_uniform
from repro.nn.module import Module, Parameter, is_inference
from repro.utils import require


def _cast_input(x: np.ndarray, dtype) -> np.ndarray:
    """Dtype cast for the inference path (no-op when dtypes already match)."""
    if x.dtype == dtype:
        return x
    out = np.empty(x.shape, dtype)
    np.copyto(out, x)
    return out


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` for inputs of shape (N, in)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 bias: bool = True) -> None:
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(kaiming_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._cache: List[np.ndarray] = []
        # Effective inference weights for non-fp64 tiers; the fp64
        # master Parameter is never modified, so tiers are reversible.
        self._w_eff: Optional[np.ndarray] = None
        self._b_eff: Optional[np.ndarray] = None

    def _set_precision(self, mode: str) -> None:
        self._precision = mode
        if mode == "fp64":
            self._w_eff = self._b_eff = None
            return
        self._w_eff = self.weight.data.astype(np.float32)
        self._b_eff = (self.bias.data.astype(np.float32)
                       if self.bias is not None else None)

    def forward(self, x: np.ndarray) -> np.ndarray:
        require(x.ndim == 2 and x.shape[1] == self.weight.shape[1],
                f"Linear expects (N, {self.weight.shape[1]}), got {x.shape}")
        if is_inference():
            w = self._w_eff if self._w_eff is not None else self.weight.data
            x = _cast_input(x, w.dtype)
            out = np.empty((x.shape[0], w.shape[0]), w.dtype)
            np.matmul(x, w.T, out=out)
            if self.bias is not None:
                out += (self._b_eff if self._b_eff is not None
                        else self.bias.data)
            return out
        require(self.precision == "fp64",
                f"training requires fp64 precision, not {self.precision!r}")
        self._cache.append(x)
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._cache.pop()
        self.weight.grad += grad_output.T @ x
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data


class Embedding(Module):
    """Row-gather lookup table ``y = W[ids]`` for integer id arrays.

    Backward scatter-adds the output gradient into the selected rows.
    Used for the MMMC corner embedding: each packed sample carries a
    corner index, and the gathered row is concatenated into the fusion
    head (see :mod:`repro.core.fusion`).
    """

    def __init__(self, n_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        require(n_embeddings > 0 and dim > 0,
                "Embedding needs positive table dimensions")
        rng = rng or np.random.default_rng(0)
        # Small-normal init: the rows start near zero so a freshly added
        # corner axis perturbs the fused representation only mildly.
        self.weight = Parameter(rng.normal(0.0, 0.1, (n_embeddings, dim)))
        self._cache: List[np.ndarray] = []
        self._w_eff: Optional[np.ndarray] = None

    def _set_precision(self, mode: str) -> None:
        self._precision = mode
        # The table is tiny (corners × dim); the fp32 tier just keeps a
        # single-precision copy so gathered rows match the pipeline dtype.
        self._w_eff = (None if mode == "fp64"
                       else self.weight.data.astype(np.float32))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        require(np.issubdtype(np.asarray(ids).dtype, np.integer),
                "Embedding expects integer ids")
        if is_inference():
            w = self._w_eff if self._w_eff is not None else self.weight.data
            return np.take(w, ids, axis=0,
                           out=np.empty((len(ids), w.shape[1]), w.dtype))
        require(self.precision == "fp64",
                f"training requires fp64 precision, not {self.precision!r}")
        self._cache.append(np.asarray(ids))
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        ids = self._cache.pop()
        np.add.at(self.weight.grad, ids, grad_output)
        return None  # ids are not differentiable


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._cache: List[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            return np.maximum(x, 0.0, out=np.empty(x.shape, x.dtype))
        mask = x > 0
        self._cache.append(mask)
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._cache.pop()
        return grad_output * mask


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        self._cache: List[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            return np.tanh(x, out=np.empty(x.shape, x.dtype))
        out = np.tanh(x)
        self._cache.append(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._cache.pop()
        return grad_output * (1.0 - out * out)


class Flatten(Module):
    """Flatten all but the leading (batch) dimension."""

    def __init__(self) -> None:
        self._cache: List[tuple] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not is_inference():
            self._cache.append(x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self._cache.pop()
        return grad_output.reshape(shape)


def mlp(sizes: List[int], rng: np.random.Generator,
        activate_last: bool = False) -> "Sequential":
    """Build an MLP ``Linear → ReLU → … → Linear`` from layer sizes.

    The paper uses 3-layer MLPs throughout (Section VI-A); this helper
    builds them with shared deterministic initialization.
    """
    from repro.nn.module import Sequential

    require(len(sizes) >= 2, "mlp needs at least input and output sizes")
    layers: List[Module] = []
    for i in range(len(sizes) - 1):
        layers.append(Linear(sizes[i], sizes[i + 1], rng=rng))
        if i < len(sizes) - 2 or activate_last:
            layers.append(ReLU())
    return Sequential(*layers)
