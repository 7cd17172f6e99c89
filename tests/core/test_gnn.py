"""Tests for the customized level-wise GNN, including full gradient checks."""

import numpy as np
import pytest

from repro.core.gnn import EndpointGNN
from repro.ml import CELL_FEATURE_DIM, NET_FEATURE_DIM
from repro.nn.gradcheck import numerical_grad


@pytest.fixture(scope="module")
def gnn_and_sample(tiny_samples):
    sample = tiny_samples[0]
    rng = np.random.default_rng(0)
    gnn = EndpointGNN(hidden=8, cell_feat_dim=CELL_FEATURE_DIM,
                      net_feat_dim=NET_FEATURE_DIM, rng=rng)
    # Perturb all parameters off the zero-init so the gradcheck does not
    # probe exactly at ReLU kinks (non-differentiable points).
    for p in gnn.parameters():
        p.data += rng.normal(0.0, 0.05, size=p.data.shape)
    return gnn, sample


def test_forward_shape_and_finiteness(gnn_and_sample):
    gnn, sample = gnn_and_sample
    h = gnn.forward(sample)
    gnn._cache.pop()
    assert h.shape == (sample.n_nodes, 8)
    assert np.isfinite(h).all()


def test_forward_deterministic(gnn_and_sample):
    gnn, sample = gnn_and_sample
    a = gnn.forward(sample)
    gnn._cache.pop()
    b = gnn.forward(sample)
    gnn._cache.pop()
    np.testing.assert_array_equal(a, b)


def test_source_nodes_get_source_embedding(gnn_and_sample):
    gnn, sample = gnn_and_sample
    h = gnn.forward(sample)
    gnn._cache.pop()
    for node in sample.source_nodes[:5]:
        np.testing.assert_allclose(h[node], gnn.source_emb.data)


def test_backward_runs_and_populates_grads(gnn_and_sample):
    gnn, sample = gnn_and_sample
    h = gnn.forward(sample)
    grad_h = np.zeros_like(h)
    grad_h[sample.endpoint_nodes] = 1.0
    gnn.zero_grad()
    gnn.backward(grad_h)
    total = sum(float(np.abs(p.grad).sum()) for p in gnn.parameters())
    assert total > 0


def test_gnn_gradcheck_endpoint_loss(gnn_and_sample):
    """Full-model numerical gradient check on a few parameters.

    Uses loss = 0.5 * sum(h[endpoints]²); checks random entries of each
    parameter tensor against central differences.
    """
    gnn, sample = gnn_and_sample
    rng = np.random.default_rng(42)

    def loss_value() -> float:
        h = gnn.forward(sample)
        gnn._cache.pop()
        gnn._sample = None
        e = h[sample.endpoint_nodes]
        return 0.5 * float((e * e).sum())

    # Analytic gradients.
    h = gnn.forward(sample)
    grad_h = np.zeros_like(h)
    grad_h[sample.endpoint_nodes] = h[sample.endpoint_nodes]
    gnn.zero_grad()
    gnn.backward(grad_h)

    for p in gnn.parameters():
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in idxs:
            eps = 1e-6
            old = flat[i]
            flat[i] = old + eps
            plus = loss_value()
            flat[i] = old - eps
            minus = loss_value()
            flat[i] = old
            num = (plus - minus) / (2 * eps)
            assert gflat[i] == pytest.approx(num, rel=1e-4, abs=1e-6)


def test_max_aggregation_routes_per_dimension(tiny_samples):
    """Increasing the strongest predecessor embedding must affect the cell
    node; the GNN uses elementwise max over predecessors."""
    sample = tiny_samples[0]
    rng = np.random.default_rng(1)
    gnn = EndpointGNN(hidden=4, cell_feat_dim=CELL_FEATURE_DIM,
                      net_feat_dim=NET_FEATURE_DIM, rng=rng)
    # Use a plan with a multi-predecessor cell node.
    plan = next(p for p in sample.plans
                if len(p.cell_nodes) and p.cell_preds.shape[1] >= 2)
    h = gnn.forward(sample)
    gnn._cache.pop()
    node = int(plan.cell_nodes[0])
    preds = plan.cell_preds[0]
    valid = preds[preds >= 0]
    maxv = h[valid].max(axis=0)
    # Reconstruct the pre-activation manually through f_c1/f_c2
    # (+ the residual identity path of the cell update).
    a = gnn.f_c1.forward(maxv[None, :])
    b = gnn.f_c2.forward(sample.x_cell[[node]])
    expect = np.maximum(a + b + maxv[None, :], 0.0)[0]
    for seq in (gnn.f_c1, gnn.f_c2):
        for layer in seq.layers:
            if hasattr(layer, "_cache"):
                layer._cache.clear()
    np.testing.assert_allclose(h[node], expect)
