import dataclasses
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ternhash.network as network
from ternhash import (
    ActivationConfig,
    ContinuationSchedule,
    Network,
    NetworkConfig,
    TrainConfig,
    TrainState,
    backward,
    cosine_lr,
    cross_entropy,
    forward,
    hard_ternary,
    hash_features,
    load_checkpoint,
    quantization_error,
    save_checkpoint,
    sgd_momentum_step,
    smooth_ternary,
    smooth_ternary_grad,
    pack_matrix,
    train,
)
from ternhash.harness import encode_dataset

SMALL = NetworkConfig(input_dim=3, hidden_dims=(5,), code_dim=4, num_classes=3, seed=11)
DEEP = NetworkConfig(input_dim=3, hidden_dims=(12, 10), code_dim=5, num_classes=3, seed=7)


def from_layers(cfg, weights, biases):
    """A Network whose flat vector is W0, b0, W1, b1, ... concatenated."""
    return Network(config=cfg, flat=np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)]))


def zero_network(cfg):
    dims = cfg.layer_dims
    return from_layers(cfg, [np.zeros((a, b)) for a, b in zip(dims, dims[1:])], [np.zeros(b) for b in dims[1:]])


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=0)
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=4, hidden_dims=(8, 0))
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=4, code_dim=-1)
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=4, seed=-3)
    cfg = NetworkConfig(input_dim=4, hidden_dims=[8, 6], code_dim=2, num_classes=5)
    assert cfg.layer_dims == (4, 8, 6, 2, 5)
    assert isinstance(cfg.hidden_dims, tuple)
    # a bool or a float is not an integer field; numpy integers are stored as ints
    for fields, message in (
        (dict(input_dim=True, seed=False), "input_dim must be an integer in [1, 2**32), got True"),
        (dict(input_dim=4, hidden_dims=(8, np.bool_(True))),
         "hidden_dims[1] must be an integer in [1, 2**32), got np.True_"),
        (dict(input_dim=4, code_dim=2.0), "code_dim must be an integer in [1, 2**32), got 2.0"),
        (dict(input_dim=4, num_classes=False), "num_classes must be an integer in [1, 2**32), got False"),
        (dict(input_dim=4, seed=True), "seed must be an integer in [0, 2**64), got True"),
        (dict(input_dim=4, seed=1.0), "seed must be an integer in [0, 2**64), got 1.0"),
    ):
        with pytest.raises(ValueError) as exc:
            NetworkConfig(**fields)
        assert str(exc.value) == message
    numpy_cfg = NetworkConfig(input_dim=np.int64(4), hidden_dims=(np.int32(8), np.uint16(6)), code_dim=np.int8(2),
                              num_classes=np.int64(5), seed=np.uint64(2**64 - 1))
    assert repr(numpy_cfg) == repr(dataclasses.replace(cfg, seed=2**64 - 1))
    assert all(type(v) is int for v in (*numpy_cfg.layer_dims, numpy_cfg.seed))


def test_initialize_shapes_and_determinism():
    net = Network.initialize(SMALL)
    dims = SMALL.layer_dims
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        assert w.shape == (dims[i], dims[i + 1])
        assert b.shape == (dims[i + 1],)
        assert np.all(b == 0.0)
        lim = math.sqrt(6.0 / (dims[i] + dims[i + 1]))
        assert np.all(np.abs(w) <= lim)
    again = Network.initialize(SMALL)
    for a, b in zip(net.params(), again.params()):
        assert np.array_equal(a, b)
    other = Network.initialize(NetworkConfig(**{**SMALL.__dict__, "seed": 12}))
    assert not np.array_equal(net.weights[0], other.weights[0])


def test_network_validation():
    flat = zero_network(SMALL).flat
    Network(config=SMALL, flat=flat)
    for bad in (flat[:-1], np.zeros(flat.size + 1), flat.reshape(1, -1)):
        with pytest.raises(ValueError, match="parameters"):
            Network(config=SMALL, flat=bad)
    nan = flat.copy()
    nan[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Network(config=SMALL, flat=nan)


def with_dtype(net, dtype):
    return Network(config=net.config, flat=net.flat.astype(dtype))


def test_network_parameters_share_one_float_dtype():
    # one flat vector holds one dtype, so a net mixing float32 and float64 layers cannot be built
    net = Network.initialize(SMALL)
    assert net.dtype == np.float64
    assert with_dtype(net, np.float32).dtype == np.float32
    for dtype in (np.float16, np.int64):
        with pytest.raises(ValueError, match="dtype"):
            with_dtype(net, dtype)


def test_forward_zero_network():
    net = zero_network(SMALL)
    hash_pre, hash_act, logits = forward(net, np.ones((2, 3)), 3)
    assert np.all(hash_pre == 0.0)
    assert np.all(hash_act == 0.0)
    assert np.all(logits == 0.0)


def test_forward_hand_chain():
    # one input, no hidden layers: s = 2x + 0.5, then tanh, ternary, linear
    cfg = NetworkConfig(input_dim=1, hidden_dims=(), code_dim=1, num_classes=2)
    net = from_layers(cfg, [np.array([[2.0]]), np.array([[1.0, -1.0]])], [np.array([0.5]), np.array([0.25, -0.25])])
    hash_pre, hash_act, logits = forward(net, [[0.3]], 3)
    p = math.tanh(2.0 * 0.3 + 0.5)
    f = math.tanh((p / 0.5) ** 3)
    assert hash_pre[0, 0] == pytest.approx(p, rel=1e-12)
    assert hash_act[0, 0] == pytest.approx(f, rel=1e-12)
    assert logits[0] == pytest.approx([f + 0.25, -f - 0.25], rel=1e-12)
    # k=None leaves the squashed features untouched
    _, ident, _ = forward(net, [[0.3]], None)
    assert ident[0, 0] == hash_pre[0, 0]


def test_forward_shapes():
    cfg = NetworkConfig(input_dim=4, hidden_dims=(8, 6), code_dim=3, num_classes=2, seed=0)
    net = Network.initialize(cfg)
    hash_pre, hash_act, logits = forward(net, np.zeros((5, 4)), 5)
    assert hash_pre.shape == (5, 3)
    assert hash_act.shape == (5, 3)
    assert logits.shape == (5, 2)
    assert np.all(np.abs(hash_pre) < 1.0)


def test_forward_validation():
    net = Network.initialize(SMALL)
    with pytest.raises(ValueError):
        forward(net, np.zeros((0, 3)), 3)
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 4)), 3)
    with pytest.raises(ValueError):
        forward(net, np.zeros(3), 3)
    with pytest.raises(ValueError):
        forward(net, [[np.inf, 0.0, 0.0]], 3)


def test_cross_entropy_uniform():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 9, 5])
    assert cross_entropy(logits, labels) == math.log(10)


def test_cross_entropy_confident():
    logits = np.full((3, 4), -1e6)
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 1e6
    assert cross_entropy(logits, labels) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(3, 4))
    labels = np.array([2, 0, 3])
    direct = float(np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(3), labels]))
    assert cross_entropy(logits, labels) == pytest.approx(direct, rel=1e-12)


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((0, 3)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


@pytest.mark.parametrize("k", [3, 11, None])
def test_backward_matches_finite_differences(k):
    rng = np.random.default_rng(17)
    net = Network.initialize(SMALL)
    batch = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    grads = backward(net, batch, labels, k)
    params = net.params()
    h = 1e-4
    for g, p in zip(grads, params):
        flat_g = g.ravel()
        flat_p = p.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            up = cross_entropy(forward(net, batch, k)[2], labels)
            flat_p[j] = orig - h
            down = cross_entropy(forward(net, batch, k)[2], labels)
            flat_p[j] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(flat_g[j] - fd) / max(1.0, abs(flat_g[j]))
            assert rel < 1e-3


def test_backward_classifier_bias_is_mean_residual():
    rng = np.random.default_rng(23)
    net = Network.initialize(SMALL)
    batch = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    _, _, logits = forward(net, batch, 3)
    shifted = logits - logits.max(axis=1, keepdims=True)
    softmax = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(softmax)
    onehot[np.arange(5), labels] = 1.0
    (grad,) = backward(net, batch, labels, 3)
    _, grad_biases = network._layer_views(SMALL.layer_dims, grad)
    assert grad_biases[-1] == pytest.approx((softmax - onehot).mean(axis=0), rel=1e-12)


def test_backward_zero_network_only_moves_classifier_bias():
    net = zero_network(SMALL)
    (grad,) = backward(net, np.ones((4, 3)), np.array([0, 1, 2, 0]), 3)
    grad_weights, grad_biases = network._layer_views(SMALL.layer_dims, grad)
    for g in grad_weights + grad_biases[:-1]:
        assert np.all(g == 0.0)
    assert np.any(grad_biases[-1] != 0.0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(epochs=200, schedule=ContinuationSchedule(total_epochs=150))
    TrainConfig(lr0=0.0)  # zero learning rate is a legitimate no-op run
    one_epoch = ContinuationSchedule(total_epochs=1)
    for fields, message in (
        (dict(epochs=True, batch_size=True, schedule=one_epoch), "epochs must be an integer in [1, inf), got True"),
        (dict(batch_size=np.bool_(True)), "batch_size must be an integer in [1, inf), got np.True_"),
        (dict(epochs=150.0), "epochs must be an integer in [1, inf), got 150.0"),
        (dict(batch_size=0), "batch_size must be an integer in [1, inf), got 0"),
    ):
        with pytest.raises(ValueError) as exc:
            TrainConfig(**fields)
        assert str(exc.value) == message
    numpy_cfg = TrainConfig(epochs=np.int64(150), batch_size=np.int32(64))
    assert repr(numpy_cfg) == repr(TrainConfig()) and type(numpy_cfg.epochs) is type(numpy_cfg.batch_size) is int


def test_cosine_lr():
    cfg = TrainConfig(epochs=150, lr0=1e-3, schedule=ContinuationSchedule(total_epochs=150))
    assert cosine_lr(0, cfg) == 1e-3
    assert cosine_lr(75, cfg) == pytest.approx(5e-4, rel=1e-12)
    assert cosine_lr(149, cfg) == pytest.approx(1.0965826257725769e-07, rel=1e-12)
    assert cosine_lr(np.int64(75), cfg) == cosine_lr(75, cfg)
    for epoch in (-1, 150, True, 75.0):
        with pytest.raises(ValueError, match=re.escape(f"epoch must be an integer in [0, 150), got {epoch!r}")):
            cosine_lr(epoch, cfg)


def test_sgd_plain_step():
    net = Network.initialize(SMALL)
    before = [p.copy() for p in net.params()]
    grads = [np.full_like(p, 0.5) for p in net.params()]
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
    sgd_momentum_step(net, state, grads, 0.1, 0.0, 0.0)
    for p, b in zip(net.params(), before):
        assert np.array_equal(p, b - 0.1 * 0.5)


def test_sgd_momentum_accumulates():
    net = zero_network(SMALL)
    grads = [np.ones_like(p) for p in net.params()]
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
    sgd_momentum_step(net, state, grads, 0.1, 0.9, 0.0)
    sgd_momentum_step(net, state, grads, 0.1, 0.9, 0.0)
    # velocities 1 then 1.9: total displacement 0.29
    for p in net.params():
        assert p == pytest.approx(np.full_like(p, -0.29), rel=1e-12)


def test_sgd_weight_decay_shrinks_parameters():
    net = Network.initialize(SMALL)
    before = [p.copy() for p in net.params()]
    grads = [np.zeros_like(p) for p in net.params()]
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
    sgd_momentum_step(net, state, grads, 0.1, 0.0, 1e-4)
    for p, b in zip(net.params(), before):
        assert p == pytest.approx(b * (1.0 - 0.1 * 1e-4), rel=1e-12)


def test_sgd_validation():
    net = Network.initialize(SMALL)
    before = [p.copy() for p in net.params()]
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
    zeros = [np.zeros_like(p) for p in net.params()]
    for grads, velocity in ((zeros * 2, state.velocity), (zeros, []), ([], state.velocity)):
        with pytest.raises(ValueError, match="^gradient/velocity lists do not match the parameter list$"):
            sgd_momentum_step(net, TrainState(velocity=velocity), grads, 0.1, 0.0, 1e-4)
        for p, b in zip(net.params(), before):
            assert np.array_equal(p, b)
    with pytest.raises(ValueError):
        sgd_momentum_step(net, state, [np.zeros(1)], 0.1, 0.0, 0.0)
    bad = [np.zeros_like(p) for p in net.params()]
    bad[0] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        sgd_momentum_step(net, state, bad, 0.1, 0.0, 0.0)


def test_sgd_rejects_a_dtype_mismatch_before_updating():
    net = with_dtype(Network.initialize(SMALL), np.float32)
    before = [p.copy() for p in net.params()]

    def zeros():
        return [np.zeros_like(p) for p in net.params()]

    late_f64_grad = zeros()[:-1] + [np.ones(net.params()[-1].shape)]
    f64_velocity = [v.astype(np.float64) for v in zeros()]
    for grads, velocity in ((late_f64_grad, zeros()), (zeros(), f64_velocity)):
        with pytest.raises(ValueError, match="dtype"):
            sgd_momentum_step(net, TrainState(velocity=velocity), grads, 0.1, 0.9, 1e-4)
        for p, b in zip(net.params(), before):
            assert np.array_equal(p, b)


def small_problem():
    rng = np.random.default_rng(29)
    feats = rng.normal(size=(48, 3)).astype(np.float64)
    labels = rng.integers(0, 3, size=48)
    return feats, labels


def quick_train_cfg(**over):
    base = dict(
        epochs=6,
        batch_size=16,
        lr0=0.05,
        momentum=0.9,
        weight_decay=1e-4,
        schedule=ContinuationSchedule(k_start=3, k_end=5, stride_epochs=3, total_epochs=6),
    )
    base.update(over)
    return TrainConfig(**base)


def test_train_zero_lr_is_identity():
    feats, labels = small_problem()
    net, logs = train(SMALL, quick_train_cfg(lr0=0.0, epochs=1), feats, labels)
    init = Network.initialize(SMALL)
    for p, q in zip(net.params(), init.params()):
        assert np.array_equal(p, q.astype(np.float32))
    assert len(logs) == 1


def test_train_is_deterministic():
    feats, labels = small_problem()
    net1, logs1 = train(SMALL, quick_train_cfg(), feats, labels)
    net2, logs2 = train(SMALL, quick_train_cfg(), feats, labels)
    for p, q in zip(net1.params(), net2.params()):
        assert np.array_equal(p, q)
    assert logs1 == logs2


def test_train_reduces_loss():
    feats, labels = small_problem()
    _, logs = train(SMALL, quick_train_cfg(), feats, labels)
    assert logs[-1].loss < logs[0].loss
    assert [e.epoch for e in logs] == list(range(6))
    assert [e.k for e in logs] == [3, 3, 3, 5, 5, 5]
    assert all(e.lr <= 0.05 for e in logs)


def test_train_identity_head_logs_none_k():
    feats, labels = small_problem()
    net, logs = train(SMALL, quick_train_cfg(epochs=2), feats, labels, ternary=False)
    assert all(e.k is None for e in logs)
    pre = hash_features(net, feats)
    assert np.all(np.abs(pre) < 1.0)


def test_train_epoch_hook_sees_every_epoch():
    feats, labels = small_problem()
    seen = []
    train(SMALL, quick_train_cfg(epochs=3), feats, labels, epoch_hook=lambda net, e: seen.append(e.epoch))
    assert seen == [0, 1, 2]


def test_train_validation():
    feats, labels = small_problem()
    with pytest.raises(ValueError):
        train(SMALL, quick_train_cfg(), feats[:, :2], labels)
    with pytest.raises(ValueError):
        train(SMALL, quick_train_cfg(), feats, labels[:-1])
    with pytest.raises(ValueError):
        train(SMALL, quick_train_cfg(), np.zeros((0, 3)), np.array([], dtype=int))


@pytest.mark.parametrize("ternary", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_features_before_stepping(monkeypatch, ternary, bad):
    feats, labels = small_problem()
    feats[7, 1] = bad
    steps = []
    monkeypatch.setattr(network, "sgd_momentum_step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="finite"):
        train(SMALL, quick_train_cfg(), feats, labels, ternary=ternary)
    assert steps == []


@pytest.mark.parametrize("ternary", [True, False])
def test_train_rejects_features_past_the_float32_range(monkeypatch, ternary):
    feats, labels = small_problem()
    feats[7, 1] = 1e39  # finite in float64, inf once cast to float32
    steps = []
    monkeypatch.setattr(network, "sgd_momentum_step", lambda *args: steps.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            train(SMALL, quick_train_cfg(), feats, labels, ternary=ternary)
    assert steps == []


@pytest.mark.parametrize("k", [3, None])
def test_float32_net_computes_in_float32(k):
    feats, labels = small_problem()
    net, _ = train(SMALL, quick_train_cfg(epochs=1), feats, labels, ternary=k is not None)
    assert [p.dtype for p in net.params()] == [np.float32] * len(net.params())
    loss, _ = loss_and_grad(net, feats.astype(np.float32), labels, k)
    assert type(loss) is float
    assert [g.dtype for g in backward(net, feats, labels, k)] == [np.float32]
    assert [a.dtype for a in forward(net, feats, k)] == [np.float32] * 3
    # a float64 net keeps float64, whatever the batch's dtype
    fresh = Network.initialize(SMALL)
    assert [a.dtype for a in forward(fresh, feats.astype(np.float32), k)] == [np.float64] * 3


@pytest.mark.parametrize("ternary", [True, False])
def test_train_makes_no_full_set_forward_pass(monkeypatch, ternary):
    def refuse(*args):
        raise AssertionError("train() must not forward the whole feature set")

    feats, labels = small_problem()
    _, expected = train(SMALL, quick_train_cfg(), feats, labels, ternary=ternary)
    monkeypatch.setattr(network, "quantization_error", refuse)
    monkeypatch.setattr(network, "forward", refuse)
    monkeypatch.setattr(network, "hash_features", refuse)
    _, logs = train(SMALL, quick_train_cfg(), feats, labels, ternary=ternary)
    assert logs == expected


@pytest.mark.parametrize("k", [3, 11, None])
def test_training_loss_equals_cross_entropy(k):
    # on a float64 Network.initialize net and on a float32 net as train() returns it
    feats, labels = small_problem()
    for net in (Network.initialize(SMALL), train(SMALL, quick_train_cfg(epochs=1), feats, labels)[0]):
        rng = np.random.default_rng(5)
        for size in (1, 7, 48):
            batch = rng.normal(size=(size, 3)).astype(net.dtype)
            batch_labels = rng.integers(0, 3, size=size)
            loss, _ = loss_and_grad(net, batch, batch_labels, k)
            assert loss == cross_entropy(forward(net, batch, k)[2], batch_labels)


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return shifted - np.log(total), exp / total


def loss_and_grad(net, batch, labels, k):
    """(loss, gradient vector) of _loss_and_grads, filling a fresh vector."""
    grad = np.empty_like(net.flat)
    return network._loss_and_grads(net, batch, labels, k, *network._layer_views(net.config.layer_dims, grad)), grad


def reference_loss_and_grads(net, batch, labels, k, grad_w, grad_b):
    """The training step as composed before it was fused: the public activation
    functions, a copied softmax and fresh arrays throughout, apart from the
    gradient views grad_w and grad_b it fills. Returns the loss."""
    n_hidden = len(net.config.hidden_dims)
    h, hidden_in, pre_relu = batch, [], []
    for i in range(n_hidden):
        hidden_in.append(h)
        z = h @ net.weights[i] + net.biases[i]
        pre_relu.append(z)
        h = np.maximum(z, 0.0)
    hash_pre = np.tanh(h @ net.weights[n_hidden] + net.biases[n_hidden])
    act = None if k is None else ActivationConfig(net.config.activation.alpha, k)
    hash_act = hash_pre if k is None else smooth_ternary(hash_pre, act)
    logits = hash_act @ net.weights[n_hidden + 1] + net.biases[n_hidden + 1]
    rows = np.arange(batch.shape[0])
    log_probs, softmax = log_softmax(logits)
    loss = float(-log_probs[rows, labels].mean())
    dlogits = softmax.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= batch.shape[0]
    np.matmul(hash_act.T, dlogits, out=grad_w[n_hidden + 1])
    dlogits.sum(axis=0, out=grad_b[n_hidden + 1])
    d_pre = dlogits @ net.weights[n_hidden + 1].T
    if k is not None:
        d_pre = d_pre * smooth_ternary_grad(hash_pre, act)
    d_s = d_pre * (1.0 - hash_pre**2)
    np.matmul(h.T, d_s, out=grad_w[n_hidden])
    d_s.sum(axis=0, out=grad_b[n_hidden])
    d_h = d_s @ net.weights[n_hidden].T
    for i in reversed(range(n_hidden)):
        d_z = d_h * (pre_relu[i] > 0.0)
        np.matmul(hidden_in[i].T, d_z, out=grad_w[i])
        d_z.sum(axis=0, out=grad_b[i])
        if i:
            d_h = d_z @ net.weights[i].T
    return loss


def step_test_net(kind, cfg):
    """cfg's net as train() returns it (float32), as Network.initialize gives it (float64), all
    zeros (every hash unit exactly 0), or with a hash layer scaled until tanh saturates."""
    dtype = np.float32 if kind.startswith("f32") else np.float64
    if kind == "f32-trained":
        feats, labels = small_problem()
        return train(cfg, quick_train_cfg(epochs=2), feats, labels)[0]
    if kind.endswith("zero"):
        return with_dtype(zero_network(cfg), dtype)
    net = with_dtype(Network.initialize(cfg), dtype)
    if kind.endswith("saturated"):
        net.weights[len(cfg.hidden_dims)] *= 1000
    return net


# DEEP (two hidden layers) keeps its cases' ids; the ids at 0, 1 and 3 hidden layers end in hidden0, hidden1, hidden3
@pytest.mark.parametrize("cfg", [pytest.param(DEEP, id=pytest.HIDDEN_PARAM)] + [
    pytest.param(dataclasses.replace(DEEP, hidden_dims=dims), id=f"hidden{len(dims)}")
    for dims in ((), (12,), (12, 10, 8))])
@pytest.mark.parametrize("kind", ["f32-trained", "f64-initialized", "f32-zero", "f64-zero",
                                  "f32-saturated", "f64-saturated"])
@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, None])
def test_fused_step_is_bit_equal_to_the_reference_step(kind, k, cfg):
    net = step_test_net(kind, cfg)
    before = net.flat.copy()
    rng = np.random.default_rng(13)
    grad, want = np.empty_like(net.flat), np.empty_like(net.flat)
    grad_views, want_views = network._layer_views(cfg.layer_dims, grad), network._layer_views(cfg.layer_dims, want)
    for size in (1, 7, 64):
        batch = (rng.normal(size=(size, 3)) * 3).astype(net.dtype)
        labels = rng.integers(0, 3, size=size)
        want_loss = reference_loss_and_grads(net, batch, labels, k, *want_views)
        hash_pre = forward(net, batch, k)[0]
        if kind.endswith("zero"):
            assert not hash_pre.any()
        if kind.endswith("saturated") and k is not None and k >= 5:
            assert not smooth_ternary_grad(hash_pre, ActivationConfig(0.5, k)).any()
        # train's path fills one reused vector; backward's fills a fresh one
        assert network._loss_and_grads(net, batch, labels, k, *grad_views) == want_loss
        assert grad.tobytes() == want.tobytes()
        [fresh] = backward(net, batch, labels, k)
        assert fresh.dtype == net.dtype
        assert fresh.tobytes() == want.tobytes()
    assert np.array_equal(net.flat, before)


@pytest.mark.parametrize("ternary", [True, False])
def test_train_on_the_reference_step_gives_the_same_run(monkeypatch, ternary):
    feats, labels = small_problem()
    cfg = quick_train_cfg(batch_size=20, schedule=ContinuationSchedule(k_start=3, k_end=11, stride_epochs=1,
                                                                        total_epochs=6))
    net, logs = train(DEEP, cfg, feats, labels, ternary=ternary)
    monkeypatch.setattr(network, "_loss_and_grads", reference_loss_and_grads)
    ref_net, ref_logs = train(DEEP, cfg, feats, labels, ternary=ternary)
    assert logs == ref_logs
    assert np.array_equal(net.flat, ref_net.flat)


@pytest.mark.parametrize("batch_size, epochs", [(16, 6), (20, 6), (48, 2), (64, 3), (1, 1)])
def test_train_steps_once_per_batch(monkeypatch, batch_size, epochs):
    # one sgd_momentum_step per batch, the last short one included, looked up on the module
    feats, labels = small_problem()
    calls = []
    real = network.sgd_momentum_step
    monkeypatch.setattr(network, "sgd_momentum_step", lambda *args: calls.append(1) or real(*args))
    train(SMALL, quick_train_cfg(batch_size=batch_size, epochs=epochs), feats, labels)
    assert len(calls) == math.ceil(feats.shape[0] / batch_size) * epochs


@pytest.mark.parametrize("ternary", [True, False])
def test_diverging_run_raises_floating_point_error_without_warnings(ternary):
    feats, labels = small_problem()
    hook = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^non-finite training loss at epoch"):
            train(DEEP, quick_train_cfg(lr0=1e8), feats, labels, ternary=ternary,
                  epoch_hook=lambda net, e: hook.append(quantization_error(net, feats, e.k)))
    assert hook


@pytest.mark.parametrize("ternary", [True, False])
def test_divergence_in_an_epochs_last_step_raises_before_the_hook(ternary):
    # 15 rows make one batch per epoch, so the step that diverges is the epoch's last
    feats, labels = small_problem()
    hook = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the epoch's loss is finite: the step after it left inf parameters
        with pytest.raises(FloatingPointError, match=r"^non-finite training loss at epoch 0: EpochLog\(.*loss=\d"):
            train(SMALL, quick_train_cfg(lr0=1e308, batch_size=64), feats[:15], labels[:15], ternary=ternary,
                  epoch_hook=lambda net, e: hook.append(quantization_error(net, feats, e.k)))
    assert hook == []


@pytest.mark.parametrize("trained", [False, True])
def test_benchmark_isolated_step_sequence(trained):
    # the call sequence benchmarks/workloads.py times in isolation, on both kinds of net it can meet
    feats, labels = small_problem()
    net = train(SMALL, quick_train_cfg(epochs=1), feats, labels)[0] if trained else Network.initialize(SMALL)
    grads = backward(net, feats[:16], labels[:16], 7)
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
    w0 = net.weights[0]
    before = w0.copy()
    sgd_momentum_step(net, state, grads, 1e-3, 0.9, 1e-4)
    assert net.weights[0] is w0 and np.shares_memory(w0, net.flat)
    assert not np.array_equal(w0, before)


def test_quantization_error_bounds():
    feats, labels = small_problem()
    net, _ = train(SMALL, quick_train_cfg(epochs=2), feats, labels)
    err = quantization_error(net, feats, 3)
    assert 0.0 <= err <= 2.0
    # sharper exponent never reads worse than the hook reports at the same params
    assert quantization_error(net, feats, 11) <= err + 1e-12


WIDE = NetworkConfig(input_dim=64, hidden_dims=(256, 256), code_dim=16, num_classes=10, seed=2)
R = network._ROW_BLOCK


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hash_features_is_the_forward_hash_layer(dtype):
    # bit-equal at every block split: one block, near-equal blocks, and the counts around them
    net = with_dtype(Network.initialize(WIDE), dtype)
    feats = np.random.default_rng(4).normal(size=(5 * R + 3, 64)).astype(dtype)
    for n in (1, 2, R - 1, R, R + 1, 2 * R - 1, 2 * R, 2 * R + 1, 5 * R + 3):
        got, want = hash_features(net, feats[:n]), forward(net, feats[:n], None)[0]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), n


def test_row_blocks_are_near_equal():
    for n in (1, R - 1, R, 2 * R - 1, 2 * R, 2 * R + 1, 5 * R + 3, 40 * R - 1):
        sizes = [stop - start for start, stop in network._row_blocks(n)]
        assert sum(sizes) == n
        if n < 2 * R:
            assert sizes == [n]
        else:
            assert R <= min(sizes) and max(sizes) < 2 * R


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wide_rows():
    """A float32 WIDE net and 20,000 float32 rows for it."""
    feats = np.random.default_rng(6).normal(size=(20_000, 64)).astype(np.float32)
    return with_dtype(Network.initialize(WIDE), np.float32), feats


def test_hash_features_keeps_no_layer_caches():
    net, feats = wide_rows()
    out, peak = traced_peak(hash_features, net, feats)
    # the cached training forward peaks near 85 MB here
    assert peak < 16e6
    # besides the output, two 256-wide float32 blocks of R to 2R-1 rows and the hash block are alive
    # at once: about 0.60 MB at R = 256 and 2.19 MB at R = 1024
    assert peak - out.nbytes < 1e6


def test_quantization_error_streams_its_blocks():
    net, feats = wide_rows()
    _, peak = traced_peak(quantization_error, net, feats, 7)
    # one [n, d] error array plus per-block temporaries: about 0.62 MB over it; whole-set
    # hash layer, activation and difference arrays take 5.12 MB over it
    assert peak - feats.shape[0] * WIDE.code_dim * 4 < 1.5e6


def test_encode_dataset_streams_its_blocks():
    net, feats = wide_rows()
    codes, peak = traced_peak(encode_dataset, net, feats)
    # the planes plus per-block temporaries and the plane check: about 0.60 MB over them;
    # whole-set floats, trits and bit array take 3.15 MB over them
    assert peak - codes.planes.nbytes < 1.5e6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_encode_dataset_is_the_packed_hash_layer_at_every_block_split(dtype):
    # 0.7 and 1/3 are not exact in float32; the reference thresholds the hash layer in float64
    feats = np.random.default_rng(4).normal(size=(5 * R + 3, 64)).astype(dtype)
    for alpha in (0.5, 0.7, 1 / 3):
        cfg = dataclasses.replace(WIDE, activation=ActivationConfig(alpha=alpha))
        net = with_dtype(Network.initialize(cfg), dtype)
        for n in (1, R - 1, R, R + 1, 2 * R + 1, 5 * R + 3):
            got = encode_dataset(net, feats[:n])
            want = pack_matrix(hard_ternary(hash_features(net, feats[:n]).astype(np.float64), alpha))
            assert got.planes.tobytes() == want.planes.tobytes(), (alpha, n)
        assert got.pos.any() and got.neg.any()


def test_inference_forward_checks_every_block_for_finiteness():
    net = with_dtype(Network.initialize(WIDE), np.float32)
    for bad in (np.nan, np.inf, 1e39):  # 1e39 is past float32's range: inf after the cast
        feats = np.zeros((3 * R, 64))
        feats[-1, 5] = bad
        for fn in (hash_features, lambda n, x: quantization_error(n, x, 3), encode_dataset):
            with pytest.raises(ValueError, match="^batch must be finite$"):
                fn(net, feats)


def test_inference_overflow_is_one_error_naming_the_first_bad_row():
    # finite float32 features whose layers overflow: no numpy warning, one ValueError for the row in the third block
    net = with_dtype(Network.initialize(WIDE), np.float32)
    feats = np.zeros((3 * R, 64), dtype=np.float32)
    feats[[2 * R + 5, 2 * R + 9]] = 3e38
    message = f"^the hash layer of row {2 * R + 5} is not finite: its features overflow the network$"
    for fn in (hash_features, lambda n, x: quantization_error(n, x, 3), lambda n, x: quantization_error(n, x, None),
               encode_dataset):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                fn(net, feats)
        assert caught == []


def forward_quantization_error(net, feats, k):
    """quantization_error as it was computed from the cached training forward."""
    hash_pre, hash_act, _ = forward(net, feats, k)
    return float(np.abs(hash_act - hard_ternary(hash_pre, net.config.activation.alpha)).mean())


@pytest.mark.parametrize("k", [3, 11, None])
def test_quantization_error_equals_the_forward_expression(k):
    cfg = NetworkConfig(input_dim=16, hidden_dims=(32,), code_dim=8, num_classes=3, seed=8)
    rng = np.random.default_rng(9)
    train_feats = rng.normal(size=(60, 16))
    trained, _ = train(cfg, quick_train_cfg(epochs=2), train_feats, rng.integers(0, 3, size=60))
    feats = rng.normal(size=(5 * R + 3, 16))
    for net in (Network.initialize(cfg), trained):
        for n in (R - 1, R, R + 1, 2 * R + 1, 5 * R + 3):
            assert quantization_error(net, feats[:n], k) == forward_quantization_error(net, feats[:n], k)


def test_checkpoint_roundtrip(tmp_path):
    feats, labels = small_problem()
    net, _ = train(SMALL, quick_train_cfg(epochs=2), feats, labels)
    sched = quick_train_cfg().schedule
    path = tmp_path / "model.tnh"
    save_checkpoint(path, net, sched)
    loaded, loaded_sched = load_checkpoint(path)
    assert loaded.config == net.config
    assert loaded_sched == sched
    for p, q in zip(net.params(), loaded.params()):
        assert np.array_equal(q, p.astype("<f4").astype(np.float64))
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.tnh"
    save_checkpoint(path2, loaded, loaded_sched)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_payload_is_the_flat_vector_in_layer_order(tmp_path):
    feats, labels = small_problem()
    for net in (Network.initialize(SMALL), train(SMALL, quick_train_cfg(epochs=1), feats, labels)[0]):
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.flat)
        path = tmp_path / "model.tnh"
        save_checkpoint(path, net, quick_train_cfg().schedule)
        raw = path.read_bytes()
        header = 4 + 8 + 4 * len(SMALL.hidden_dims) + 16 + 28
        layers = b"".join(a.astype("<f4").tobytes() for w, b in zip(net.weights, net.biases) for a in (w, b))
        assert raw[header:] == layers
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="truncated parameter payload"):
            load_checkpoint(path)


def test_load_checkpoint_returns_the_parameters_it_returned_before(tmp_path):
    # one read into the array: same dtype, shape, bytes and a writable vector, as the frombuffer copy gave
    path = tmp_path / "model.tnh"
    for cfg in (SMALL, DEEP, WIDE):
        save_checkpoint(path, Network.initialize(cfg), quick_train_cfg().schedule)
        raw = path.read_bytes()
        flat = load_checkpoint(path)[0].flat
        want = np.frombuffer(raw[-4 * flat.size :], dtype="<f4").astype(np.float32)
        assert (flat.dtype, flat.shape, flat.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert flat.flags.writeable
    for blob, message in ((raw[:-3], f"truncated parameter payload: needs {want.nbytes} bytes, {want.nbytes - 3} left"),
                          (raw + b"\0", "trailing bytes after parameter payload")):
        path.write_bytes(blob)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == message


def test_every_network_config_that_constructs_fits_a_checkpoint(tmp_path):
    # each field's width minus one constructs, and the width is refused
    dims = "must be an integer in [1, 2**32), got 4294967296"
    for key, fits, too_wide, message in (
        ("seed", 2**64 - 1, 2**64, "seed must be an integer in [0, 2**64), got 18446744073709551616"),
        ("input_dim", 2**32 - 1, 2**32, f"input_dim {dims}"),
        ("hidden_dims", (5, 2**32 - 1), (5, 2**32), f"hidden_dims[1] {dims}"),
        ("code_dim", 2**32 - 1, 2**32, f"code_dim {dims}"),
        ("num_classes", 2**32 - 1, 2**32, f"num_classes {dims}"),
        # k is odd, so the first k past the width is 2**32 + 1
        ("activation", ActivationConfig(k=2**32 - 1), ActivationConfig(k=2**32 + 1),
         "activation k must be an integer in [3, 2**32), got 4294967297"),
    ):
        assert getattr(dataclasses.replace(SMALL, **{key: fits}), key) == fits
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(SMALL, **{key: too_wide})
        assert str(exc.value) == message
    # a checkpoint with every field the net's size allows at its maximum round-trips byte-exactly
    cfg = dataclasses.replace(SMALL, seed=2**64 - 1, activation=ActivationConfig(k=2**32 - 1))
    most = 2**32 - 1
    schedule = ContinuationSchedule(k_start=most, k_end=most, stride_epochs=most, total_epochs=most)
    path, again = tmp_path / "model.tnh", tmp_path / "again.tnh"
    save_checkpoint(path, Network.initialize(cfg), schedule)
    net, loaded_schedule = load_checkpoint(path)
    assert (net.config, loaded_schedule) == (cfg, schedule)
    save_checkpoint(again, net, loaded_schedule)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_errors(tmp_path):
    feats, labels = small_problem()
    net, _ = train(SMALL, quick_train_cfg(epochs=1), feats, labels)
    path = tmp_path / "model.tnh"
    save_checkpoint(path, net, quick_train_cfg().schedule)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.tnh"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_checkpoint(bad_magic)
    truncated = tmp_path / "short.tnh"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(ValueError):
        load_checkpoint(truncated)
    padded = tmp_path / "long.tnh"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(padded)
    # a cut header, and a header claiming 2**31 hidden layers, fail before any allocation
    for name, blob in (("header.tnh", raw[:8]), ("huge.tnh", raw[:8] + struct.pack("<I", 1 << 31) + raw[12:])):
        (tmp_path / name).write_bytes(blob)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / name)


def valid_tnh(tmp_dir) -> bytes:
    path = tmp_dir / "valid.tnh"
    save_checkpoint(path, Network.initialize(SMALL), quick_train_cfg().schedule)
    return path.read_bytes()


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_corruption_loads_exactly_or_raises_value_error(tmp_path, data):
    raw = valid_tnh(tmp_path)
    if data.draw(st.booleans(), label="truncate"):
        blob = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        blob = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path = tmp_path / "corrupt.tnh"
    path.write_bytes(blob)
    try:
        net, schedule = load_checkpoint(path)
    except ValueError:
        return
    save_checkpoint(tmp_path / "resaved.tnh", net, schedule)
    assert (tmp_path / "resaved.tnh").read_bytes() == blob
