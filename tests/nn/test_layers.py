"""Gradient and behaviour tests for dense layers."""

import numpy as np
import pytest

from repro.nn import (
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Tanh,
    mlp,
)
from repro.nn.gradcheck import check_layer_gradients


def test_linear_forward_shape(rng):
    layer = Linear(4, 6, rng=rng)
    out = layer.forward(rng.normal(size=(3, 4)))
    assert out.shape == (3, 6)


def test_linear_rejects_bad_shape(rng):
    layer = Linear(4, 6, rng=rng)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(3, 5)))


def test_linear_gradcheck(rng):
    check_layer_gradients(Linear(5, 3, rng=rng), rng.normal(size=(4, 5)))


def test_linear_no_bias(rng):
    layer = Linear(3, 2, rng=rng, bias=False)
    assert layer.bias is None
    check_layer_gradients(layer, rng.normal(size=(4, 3)))


def test_relu_gradcheck(rng):
    check_layer_gradients(ReLU(), rng.normal(size=(6, 4)) + 0.1)


def test_tanh_gradcheck(rng):
    check_layer_gradients(Tanh(), rng.normal(size=(6, 4)))


def test_flatten_roundtrip(rng):
    layer = Flatten()
    x = rng.normal(size=(2, 3, 4))
    out = layer.forward(x)
    assert out.shape == (2, 12)
    back = layer.backward(out)
    assert back.shape == x.shape


def test_sequential_gradcheck(rng):
    net = Sequential(Linear(5, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    check_layer_gradients(net, rng.normal(size=(3, 5)))


def test_mlp_builder_structure(rng):
    net = mlp([4, 16, 16, 1], rng)
    linears = [l for l in net.layers if isinstance(l, Linear)]
    assert len(linears) == 3
    assert linears[0].weight.shape == (16, 4)
    assert linears[-1].weight.shape == (1, 16)


def test_lifo_cache_supports_multiple_forwards(rng):
    """A layer applied twice must backprop in reverse call order."""
    layer = Linear(3, 3, rng=rng)
    x1 = rng.normal(size=(2, 3))
    x2 = rng.normal(size=(2, 3))
    out1 = layer.forward(x1)
    out2 = layer.forward(x2)
    g2 = layer.backward(np.ones_like(out2))
    g1 = layer.backward(np.ones_like(out1))
    # dx = g @ W in both cases; cache order must not mix x1/x2 for dW.
    expected_dw = np.ones_like(out1).T @ x2 + np.ones_like(out1).T @ x1
    np.testing.assert_allclose(layer.weight.grad, expected_dw)
    np.testing.assert_allclose(g1, g2)  # same upstream grad, same W


def test_zero_grad(rng):
    layer = Linear(3, 3, rng=rng)
    out = layer.forward(rng.normal(size=(2, 3)))
    layer.backward(out)
    assert np.abs(layer.weight.grad).sum() > 0
    layer.zero_grad()
    assert np.abs(layer.weight.grad).sum() == 0
