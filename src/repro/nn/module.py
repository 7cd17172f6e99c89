"""Module/Parameter core of the numpy neural-network framework.

PyTorch and DGL are not available in this environment (documented
substitution in DESIGN.md), so the paper's models are built on this small
framework: layers own :class:`Parameter` objects, cache their inputs on a
LIFO stack during ``forward`` and consume it in ``backward``.  The stack
(rather than a single slot) matters for the GNN, which applies the same MLP
once per topological level before any backward runs; backward then unwinds
the levels in reverse order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.utils import require

_INFERENCE = threading.local()

#: Inference precision tiers (see DESIGN.md "Precision & plan-cache tiers").
#: ``fp64`` is the bit-exact default; ``fp32`` runs the whole forward in
#: single precision.
PRECISIONS = ("fp64", "fp32")


def is_inference() -> bool:
    """True inside an :func:`inference_mode` block (this thread only)."""
    return getattr(_INFERENCE, "on", False)


@contextmanager
def inference_mode():
    """Skip backward bookkeeping for forwards run inside the block.

    Layers that cache inputs/masks/argmaxes solely for ``backward`` check
    :func:`is_inference` and skip that work — outputs are unchanged, but
    ``backward`` afterwards is invalid (there is nothing to unwind).  The
    flag is thread-local, so a serving worker running inference does not
    disturb a concurrent training thread.
    """
    prev = getattr(_INFERENCE, "on", False)
    _INFERENCE.on = True
    try:
        yield
    finally:
        _INFERENCE.on = prev


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class: parameter discovery, gradient reset, cache management."""

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its sub-modules (depth-first)."""
        params: List[Parameter] = []
        for value in self.__dict__.values():
            params.extend(_collect(value))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in self.__dict__.values():
            for child in _collect_modules(value):
                yield from child.modules()

    def drain_caches(self) -> None:
        """Clear per-forward cache state on this module and its children.

        Call after a training-mode ``forward`` that no ``backward`` will
        unwind, so the next pass starts from clean caches and captured
        inputs can be garbage-collected.  A forward under
        :func:`inference_mode` caches nothing and needs no drain.  This
        is the public replacement for reaching into a module's
        ``_cache`` directly.
        """
        for module in self.modules():
            module._drain_cache()

    def _drain_cache(self) -> None:
        """Per-module hook for :meth:`drain_caches` (override to extend)."""
        cache = self.__dict__.get("_cache")
        if isinstance(cache, list):
            cache.clear()
        elif cache is not None:
            self._cache = None

    def set_inference_precision(self, mode: str) -> None:
        """Switch this module tree's inference tier (``PRECISIONS``).

        ``fp64`` restores the exact default path; ``fp32`` precomputes
        per-layer effective weights.  Training requires
        ``fp64`` — layers raise from ``forward`` otherwise.  The master
        fp64 parameters are never modified, so switching back is
        lossless.
        """
        require(mode in PRECISIONS,
                f"unknown precision {mode!r} (expected one of {PRECISIONS})")
        for module in self.modules():
            module._set_precision(mode)

    @property
    def precision(self) -> str:
        """This module's active inference precision tier."""
        return self.__dict__.get("_precision", "fp64")

    def _set_precision(self, mode: str) -> None:
        """Per-module hook for :meth:`set_inference_precision`."""
        self._precision = mode

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _collect(value) -> List[Parameter]:
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: List[Parameter] = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


def _collect_modules(value) -> List["Module"]:
    if isinstance(value, Module):
        return [value]
    if isinstance(value, (list, tuple)):
        out: List[Module] = []
        for item in value:
            out.extend(_collect_modules(item))
        return out
    return []


class Sequential(Module):
    """Chain of modules; backward unwinds them in reverse."""

    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


def state_dict(module: Module) -> List[np.ndarray]:
    """Flat copy of all parameter arrays (save/load helper)."""
    return [p.data.copy() for p in module.parameters()]


def load_state_dict(module: Module, state: List[np.ndarray]) -> None:
    """Restore parameters saved by :func:`state_dict` (copied in)."""
    params = module.parameters()
    require(len(params) == len(state), "state size mismatch")
    for p, arr in zip(params, state):
        require(p.data.shape == tuple(np.shape(arr)),
                f"parameter shape mismatch: {p.data.shape} vs {np.shape(arr)}")
        p.data[...] = arr
