"""Tests for the packed-batch execution engine (repro.ml.batch).

The contract under test: packing is pure bookkeeping.  A packed forward
must agree with the per-design loop to floating-point round-off, in any
packing order, and the packed backward must produce the same parameter
gradients as summing per-design backwards — verified both differentially
and against numerical gradients.
"""

import numpy as np
import pytest

from repro.core import (
    ModelConfig,
    RestructureTolerantModel,
    TimingPredictor,
    Trainer,
    TrainerConfig,
)
from repro.ml import EndpointBatchSampler, PackedBatch


def _small_model(variant="full", seed=0):
    return RestructureTolerantModel(
        ModelConfig(variant=variant, hidden=8, layout_embed=8,
                    regressor_hidden=16, map_bins=32, seed=seed))


def _jitter(model, rng):
    """Break the residual branches' zero-init so gradients flow everywhere."""
    for p in model.parameters():
        p.data += rng.normal(0.0, 0.05, p.shape)


# ---------------------------------------------------------------------------
# pack structure


def test_pack_structure(tiny_samples):
    s1, s2 = tiny_samples
    batch = PackedBatch.pack([s1, s2])

    assert batch.n_samples == 2
    assert batch.n_nodes == s1.n_nodes + s2.n_nodes
    np.testing.assert_array_equal(batch.node_offsets,
                                  [0, s1.n_nodes, s1.n_nodes + s2.n_nodes])
    np.testing.assert_array_equal(batch.level,
                                  np.concatenate([s1.level, s2.level]))
    assert batch.x_cell.shape == (batch.n_nodes, s1.x_cell.shape[1])

    assert batch.n_endpoints == s1.n_endpoints + s2.n_endpoints
    np.testing.assert_array_equal(
        batch.endpoint_nodes,
        np.concatenate([s1.endpoint_nodes, s2.endpoint_nodes + s1.n_nodes]))
    np.testing.assert_array_equal(
        batch.endpoint_sample,
        np.concatenate([np.zeros(s1.n_endpoints, dtype=np.int64),
                        np.ones(s2.n_endpoints, dtype=np.int64)]))
    np.testing.assert_array_equal(batch.endpoints_per_sample,
                                  [s1.n_endpoints, s2.n_endpoints])
    np.testing.assert_array_equal(
        batch.y, np.concatenate([s1.y, s2.y]))

    assert batch.layout_stacks.shape == (2,) + s1.layout_stack.shape
    assert batch.masks.shape[0] == batch.n_endpoints
    assert len(batch.plans) == max(len(s1.plans), len(s2.plans))


def test_pack_merged_plans_remap_nodes(tiny_samples):
    s1, s2 = tiny_samples
    batch = PackedBatch.pack([s1, s2])
    for lvl, plan in enumerate(batch.plans):
        expect_cells = sum(
            len(s.plans[lvl].cell_nodes) for s in (s1, s2)
            if lvl < len(s.plans))
        assert len(plan.cell_nodes) == expect_cells
        # Real predecessor entries stay in range; -1 padding survives.
        if plan.cell_preds.size:
            real = plan.cell_preds[plan.cell_preds >= 0]
            if len(real):
                assert real.max() < batch.n_nodes
            assert plan.cell_preds.min() >= -1


def test_pack_of_one_reuses_arrays(tiny_sample):
    batch = PackedBatch.pack([tiny_sample])
    assert batch.x_cell is tiny_sample.x_cell
    assert batch.x_net is tiny_sample.x_net
    assert batch.level is tiny_sample.level
    assert batch.plans is tiny_sample.plans
    assert batch.endpoint_nodes is tiny_sample.endpoint_nodes
    assert batch.n_nodes == tiny_sample.n_nodes


def test_pack_empty_rejected():
    with pytest.raises(ValueError):
        PackedBatch.pack([])


def test_split_endpoint_array_roundtrip(tiny_samples):
    batch = PackedBatch.pack(tiny_samples)
    values = np.arange(batch.n_endpoints, dtype=float)
    parts = batch.split_endpoint_array(values)
    assert [len(p) for p in parts] == [s.n_endpoints for s in tiny_samples]
    np.testing.assert_array_equal(np.concatenate(parts), values)
    with pytest.raises(ValueError):
        batch.split_endpoint_array(values[:-1])


# ---------------------------------------------------------------------------
# fp-equivalence: packed == per-design, in any order


@pytest.mark.parametrize("variant", ["full", "gnn", "cnn"])
def test_packed_forward_equals_per_design(variant, tiny_samples, rng):
    model = _small_model(variant)
    _jitter(model, rng)

    singles = []
    for s in tiny_samples:
        singles.append(model.forward(s))
        model.drain_caches()

    batch = PackedBatch.pack(tiny_samples)
    packed = model.forward_batch(batch)
    model.drain_caches()

    for single, part in zip(singles, batch.split_endpoint_array(packed)):
        np.testing.assert_allclose(part, single, rtol=1e-9, atol=0.0)


def test_packing_order_invariance(tiny_samples, rng):
    model = _small_model()
    _jitter(model, rng)
    fwd = PackedBatch.pack(tiny_samples)
    rev = PackedBatch.pack(tiny_samples[::-1])
    p_fwd = fwd.split_endpoint_array(model.forward_batch(fwd))
    model.drain_caches()
    p_rev = rev.split_endpoint_array(model.forward_batch(rev))
    model.drain_caches()
    for a, b in zip(p_fwd, p_rev[::-1]):
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=0.0)


def test_inference_forward_matches_training_forward(tiny_samples, rng):
    """The streamed inference forward (training=False) must equal the
    training forward bit for bit, not just closely."""
    model = _small_model()
    _jitter(model, rng)
    batch = PackedBatch.pack(tiny_samples)
    a = model.forward_batch(batch, training=True)
    model.drain_caches()
    b = model.forward_batch(batch, training=False)
    model.drain_caches()
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# gradients


def test_packed_gradients_equal_summed_per_design(tiny_samples, rng):
    """Packed backward == sum of per-design backwards, parameter by
    parameter (the loss gradient is split along the endpoint axis, so the
    two accumulation orders compute the same sums)."""
    model = _small_model()
    _jitter(model, rng)
    batch = PackedBatch.pack(tiny_samples)

    grad = rng.normal(size=batch.n_endpoints)

    model.zero_grad()
    model.backward_batch(_forward_grad(model, batch, grad))
    packed_grads = [p.grad.copy() for p in model.parameters()]

    model.zero_grad()
    for s, g in zip(tiny_samples, batch.split_endpoint_array(grad)):
        model.forward(s)
        model.backward(g)
    for packed_g, p in zip(packed_grads, model.parameters()):
        np.testing.assert_allclose(packed_g, p.grad, rtol=1e-7, atol=1e-10)


def _forward_grad(model, batch, grad):
    model.forward_batch(batch)
    return grad


def test_packed_backward_gradcheck(tiny_samples, rng):
    """Analytic packed gradients vs central differences, spot-checked on a
    few entries of GNN, CNN and regressor parameters (a full numerical
    sweep would run two forwards per scalar)."""
    model = _small_model()
    _jitter(model, rng)
    batch = PackedBatch.pack(tiny_samples)

    def loss():
        out = model.forward_batch(batch, training=False)
        return 0.5 * float((out * out).sum())

    pred = model.forward_batch(batch)
    model.zero_grad()
    model.backward_batch(pred.copy())

    checked = {
        "gnn.f_c1[0].weight": model.gnn.f_c1.layers[0].weight,
        "gnn.source_emb": model.gnn.source_emb,
        "cnn.conv0.weight": model.cnn.net.layers[0].weight,
        "layout_fc[0].weight": model.layout_fc.layers[0].weight,
        "regressor[0].weight": model.regressor.layers[0].weight,
    }
    eps = 1e-6
    for name, param in checked.items():
        flat = param.data.ravel()
        gflat = param.grad.ravel()
        idxs = np.linspace(0, flat.size - 1, num=min(4, flat.size),
                           dtype=int)
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            plus = loss()
            flat[i] = old - eps
            minus = loss()
            flat[i] = old
            numeric = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(
                gflat[i], numeric, rtol=1e-4, atol=1e-5,
                err_msg=f"{name}[{i}] analytic vs numerical")


# ---------------------------------------------------------------------------
# endpoint mini-batch sampler


def test_sampler_covers_every_endpoint_once():
    sampler = EndpointBatchSampler(103, batch_size=25)
    assert sampler.n_batches == 5
    rng = np.random.default_rng(7)
    batches = list(sampler.batches(rng))
    assert [len(b) for b in batches] == [25, 25, 25, 25, 3]
    seen = np.concatenate(batches)
    np.testing.assert_array_equal(np.sort(seen), np.arange(103))


def test_sampler_is_seed_deterministic_and_shuffled():
    sampler = EndpointBatchSampler(64, batch_size=16)
    a = np.concatenate(list(sampler.batches(np.random.default_rng(3))))
    b = np.concatenate(list(sampler.batches(np.random.default_rng(3))))
    c = np.concatenate(list(sampler.batches(np.random.default_rng(4))))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, np.arange(64))  # actually shuffled


def test_sampler_validation():
    with pytest.raises(ValueError):
        EndpointBatchSampler(0)
    with pytest.raises(ValueError):
        EndpointBatchSampler(10, batch_size=0)


# ---------------------------------------------------------------------------
# trainer + predictor integration


def test_trainer_cross_design_minibatches(tiny_samples):
    model = _small_model()
    trainer = Trainer(model, TrainerConfig(epochs=3, endpoint_batch=64))
    losses = trainer.fit(tiny_samples)
    assert set(losses) == {(s.name, i) for i, s in enumerate(tiny_samples)}
    assert all(np.isfinite(v) for v in losses.values())
    assert len(trainer.history) == 3
    # Seeded training is reproducible.
    model2 = _small_model()
    trainer2 = Trainer(model2, TrainerConfig(epochs=3, endpoint_batch=64))
    trainer2.fit(tiny_samples)
    np.testing.assert_allclose(trainer2.history, trainer.history)


def test_predict_batch_matches_predict(tiny_samples):
    predictor = TimingPredictor(
        model_config=ModelConfig(hidden=8, layout_embed=8,
                                 regressor_hidden=16, map_bins=32),
        trainer_config=TrainerConfig(epochs=2))
    predictor.fit(tiny_samples)

    batched = predictor.predict_batch(tiny_samples)
    for s, got in zip(tiny_samples, batched):
        single = predictor.predict(s)
        assert set(got) == set(single)
        for pin, value in single.items():
            np.testing.assert_allclose(got[pin], value, rtol=1e-9)

    arrays = predictor.predict_batch_arrays(tiny_samples)
    for s, arr in zip(tiny_samples, arrays):
        assert arr.shape == (s.n_endpoints,)
        np.testing.assert_allclose(arr, predictor.predict_array(s),
                                   rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# multi-corner packing: corners are just extra samples in the pack


def _corner_model(seed=0):
    return RestructureTolerantModel(
        ModelConfig(variant="full", hidden=8, layout_embed=8,
                    regressor_hidden=16, map_bins=32, seed=seed,
                    corner_names=("fast", "typ", "slow")))


def _corner_views(sample, names):
    return [sample.corner_view(name, idx, y=sample.y)
            for idx, name in enumerate(names)]


def test_multi_corner_packed_equals_per_corner_loop(tiny_samples, rng):
    """One packed forward over every (design, corner) pair must agree
    with the per-corner loop — the contract the serve path's all-corner
    what-if relies on."""
    model = _corner_model()
    _jitter(model, rng)
    names = ("fast", "typ", "slow")
    views = [v for s in tiny_samples for v in _corner_views(s, names)]

    singles = []
    for v in views:
        singles.append(
            PackedBatch.pack([v]).split_endpoint_array(
                model.forward_batch(PackedBatch.pack([v])))[0])
        model.drain_caches()

    batch = PackedBatch.pack(views)
    assert batch.corner_ids.tolist() == [0, 1, 2, 0, 1, 2]
    packed = batch.split_endpoint_array(model.forward_batch(batch))
    model.drain_caches()
    for single, part in zip(singles, packed):
        np.testing.assert_allclose(part, single, rtol=1e-9, atol=0.0)


def test_corner_embedding_conditions_the_output(tiny_sample, rng):
    """Same features, different corner id -> different predictions (the
    embedding rows are distinct), while a single-corner model has no
    embedding at all and is corner-blind."""
    model = _corner_model()
    _jitter(model, rng)
    views = _corner_views(tiny_sample, ("fast", "typ", "slow"))
    batch = PackedBatch.pack(views)
    parts = batch.split_endpoint_array(model.forward_batch(batch))
    model.drain_caches()
    assert not np.allclose(parts[0], parts[1])
    assert not np.allclose(parts[1], parts[2])

    base_model = _small_model()
    assert base_model.corner_embedding is None
    n_corner_params = len(model.parameters()) - len(base_model.parameters())
    assert n_corner_params == 1  # exactly the embedding table
