"""Gradient and behaviour tests for conv/pool layers."""

import numpy as np
import pytest

from repro.nn import Conv2d, MaxPool2d
from repro.nn.gradcheck import check_layer_gradients


def test_conv_output_shape(rng):
    conv = Conv2d(3, 5, 3, padding=1, rng=rng)
    out = conv.forward(rng.normal(size=(2, 3, 8, 8)))
    assert out.shape == (2, 5, 8, 8)


def test_conv_no_padding_shrinks(rng):
    conv = Conv2d(1, 1, 3, padding=0, rng=rng)
    out = conv.forward(rng.normal(size=(1, 1, 8, 8)))
    assert out.shape == (1, 1, 6, 6)


def test_conv_rejects_wrong_channels(rng):
    conv = Conv2d(3, 5, 3, rng=rng)
    with pytest.raises(ValueError):
        conv.forward(rng.normal(size=(1, 2, 8, 8)))


def test_conv_gradcheck(rng):
    check_layer_gradients(Conv2d(2, 3, 3, padding=1, rng=rng),
                          rng.normal(size=(2, 2, 5, 5)))


def test_conv_1x1_gradcheck(rng):
    check_layer_gradients(Conv2d(4, 1, 1, rng=rng),
                          rng.normal(size=(1, 4, 6, 6)))


def test_conv_matches_manual_convolution(rng):
    """One output pixel checked against a hand-rolled dot product."""
    conv = Conv2d(2, 1, 3, padding=0, rng=rng)
    x = rng.normal(size=(1, 2, 5, 5))
    out = conv.forward(x)
    manual = (conv.weight.data[0] * x[0, :, 1:4, 2:5]).sum() \
        + conv.bias.data[0]
    assert out[0, 0, 1, 2] == pytest.approx(manual)


def test_maxpool_forward(rng):
    pool = MaxPool2d(2)
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = pool.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradcheck(rng):
    check_layer_gradients(MaxPool2d(2), rng.normal(size=(2, 2, 4, 4)))


def test_maxpool_requires_divisible(rng):
    with pytest.raises(ValueError):
        MaxPool2d(2).forward(rng.normal(size=(1, 1, 5, 4)))


def test_maxpool_routes_gradient_to_argmax():
    pool = MaxPool2d(2)
    x = np.zeros((1, 1, 2, 2))
    x[0, 0, 1, 1] = 5.0
    pool.forward(x)
    grad = pool.backward(np.ones((1, 1, 1, 1)))
    assert grad[0, 0, 1, 1] == 1.0
    assert grad.sum() == 1.0
