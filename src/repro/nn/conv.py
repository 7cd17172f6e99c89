"""2-D convolution and pooling layers (NCHW) via im2col."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.init import kaiming_uniform
from repro.nn.module import Module, Parameter, is_inference
from repro.utils import require


def _im2col(x: np.ndarray, kh: int, kw: int,
            pad: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """(N, C, H, W) → (N, C*kh*kw, H_out*W_out) patch matrix (stride 1)."""
    n, c, h, w = x.shape
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    h_out = h + 2 * pad - kh + 1
    w_out = w + 2 * pad - kw + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, h_out, w_out),
        strides=(s0, s1, s2, s3, s2, s3), writeable=False)
    cols = np.empty((n, c * kh * kw, h_out * w_out), x.dtype)
    np.copyto(cols.reshape(n, c, kh, kw, h_out, w_out), patches)
    return cols, (n, c, h, w, h_out, w_out)


def _col2im(cols: np.ndarray, meta: Tuple[int, ...], kh: int, kw: int,
            pad: int) -> np.ndarray:
    """Adjoint of :func:`_im2col` — scatter patch grads back to the image."""
    n, c, h, w, h_out, w_out = meta
    x_grad = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    for i in range(kh):
        for j in range(kw):
            x_grad[:, :, i:i + h_out, j:j + w_out] += cols[:, :, i, j]
    if pad:
        x_grad = x_grad[:, :, pad:-pad, pad:-pad]
    return x_grad


class Conv2d(Module):
    """Stride-1 2-D convolution with symmetric zero padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(kaiming_uniform(
            rng, (out_channels, in_channels, kernel_size, kernel_size)))
        self.bias = Parameter(np.zeros(out_channels))
        self._cache: List[tuple] = []
        # Flat (O, C*k*k) effective weights for non-fp64 inference tiers.
        self._w_eff: Optional[np.ndarray] = None
        self._b_eff: Optional[np.ndarray] = None

    def _set_precision(self, mode: str) -> None:
        self._precision = mode
        if mode == "fp64":
            self._w_eff = self._b_eff = None
            return
        self._w_eff = self.weight.data.astype(np.float32).reshape(
            self.weight.shape[0], -1)
        self._b_eff = self.bias.data.astype(np.float32)

    def forward(self, x: np.ndarray) -> np.ndarray:
        require(x.ndim == 4 and x.shape[1] == self.weight.shape[1],
                f"Conv2d expects (N, {self.weight.shape[1]}, H, W), "
                f"got {x.shape}")
        k = self.kernel_size
        if is_inference():
            if self._w_eff is not None:
                w_flat, bias = self._w_eff, self._b_eff
                if x.dtype != w_flat.dtype:
                    cast = np.empty(x.shape, w_flat.dtype)
                    np.copyto(cast, x)
                    x = cast
            else:
                w_flat = self.weight.data.reshape(self.weight.shape[0], -1)
                bias = self.bias.data
            cols, meta = _im2col(x, k, k, self.padding)
            n, _, _, _, h_out, w_out = meta
            out = np.empty((n, w_flat.shape[0], cols.shape[2]), w_flat.dtype)
            np.matmul(w_flat, cols, out=out)
            out += bias[None, :, None]
            return out.reshape(n, self.weight.shape[0], h_out, w_out)
        require(self.precision == "fp64",
                f"training requires fp64 precision, not {self.precision!r}")
        cols, meta = _im2col(x, k, k, self.padding)
        n, _, _, _, h_out, w_out = meta
        w_flat = self.weight.data.reshape(self.weight.shape[0], -1)
        # matmul broadcasts over the batch and hits BLAS; einsum here
        # would fall back to the slow non-BLAS contraction loop.
        out = np.matmul(w_flat, cols)                    # (n, o, p)
        out += self.bias.data[None, :, None]
        self._cache.append((cols, meta))
        return out.reshape(n, self.weight.shape[0], h_out, w_out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cols, meta = self._cache.pop()
        n, _, _, _, h_out, w_out = meta
        k = self.kernel_size
        g = grad_output.reshape(n, self.weight.shape[0], h_out * w_out)
        w_flat = self.weight.data.reshape(self.weight.shape[0], -1)
        self.weight.grad += np.tensordot(
            g, cols, axes=([0, 2], [0, 2])).reshape(self.weight.shape)
        self.bias.grad += g.sum(axis=(0, 2))
        cols_grad = np.matmul(w_flat.T, g)               # (n, f, p)
        return _col2im(cols_grad, meta, k, k, self.padding)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel = stride)."""

    def __init__(self, kernel_size: int = 2) -> None:
        self.kernel_size = kernel_size
        self._cache: List[tuple] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = x.shape
        require(h % k == 0 and w % k == 0,
                f"MaxPool2d({k}) needs H, W divisible by {k}, got {x.shape}")
        if is_inference():
            if k == 2:
                # Three elementwise maxima over strided views beat a
                # ufunc reduce whose reduction axis has length 2 (the
                # reduce pays its per-output overhead on 2 elements).
                half = (n, c, h // 2, w // 2)
                a = np.maximum(x[:, :, ::2, ::2], x[:, :, ::2, 1::2],
                               out=np.empty(half, x.dtype))
                b = np.maximum(x[:, :, 1::2, ::2], x[:, :, 1::2, 1::2],
                               out=np.empty(half, x.dtype))
                return np.maximum(a, b, out=a)
            blocks = x.reshape(n, c, h // k, k, w // k, k)
            return blocks.max(axis=5).max(axis=3)
        blocks = x.reshape(n, c, h // k, k, w // k, k)
        flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h // k, w // k, k * k)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        self._cache.append((arg, x.shape))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        arg, shape = self._cache.pop()
        k = self.kernel_size
        n, c, h, w = shape
        flat_grad = np.zeros((n, c, h // k, w // k, k * k))
        np.put_along_axis(flat_grad, arg[..., None],
                          grad_output[..., None], axis=-1)
        blocks = flat_grad.reshape(n, c, h // k, w // k, k, k)
        return blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
