"""Tests for the gradient-checking utilities themselves."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.nn.gradcheck import check_layer_gradients, numerical_grad


def test_numerical_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])

    def fn():
        return float((x ** 2).sum())

    grad = numerical_grad(fn, x)
    np.testing.assert_allclose(grad, 2 * x, atol=1e-5)
    # The array itself is restored.
    np.testing.assert_allclose(x, [1.0, -2.0, 3.0])


def test_numerical_grad_2d():
    w = np.arange(6.0).reshape(2, 3)

    def fn():
        return float((w * w).sum() / 2)

    np.testing.assert_allclose(numerical_grad(fn, w), w, atol=1e-5)


def test_check_layer_gradients_catches_broken_backward(rng):
    class Broken(Linear):
        def backward(self, grad_output):
            out = super().backward(grad_output)
            return out * 1.5  # wrong input gradient

    with pytest.raises(AssertionError):
        check_layer_gradients(Broken(3, 2, rng=rng),
                              rng.normal(size=(4, 3)))


def test_check_layer_gradients_accepts_correct_layer(rng):
    check_layer_gradients(Linear(3, 2, rng=rng), rng.normal(size=(4, 3)))
