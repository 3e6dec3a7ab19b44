import math
import struct
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
    hash_features,
    load_checkpoint,
    quantization_error,
    save_checkpoint,
    sgd_momentum_step,
    train,
)

SMALL = NetworkConfig(input_dim=3, hidden_dims=(5,), code_dim=4, num_classes=3, seed=11)


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


def test_cosine_lr():
    cfg = TrainConfig(epochs=150, lr0=1e-3, schedule=ContinuationSchedule(total_epochs=150))
    assert cosine_lr(0, cfg) == 1e-3
    assert cosine_lr(75, cfg) == pytest.approx(5e-4, rel=1e-12)
    assert cosine_lr(149, cfg) == pytest.approx(1.0965826257725769e-07, rel=1e-12)
    with pytest.raises(ValueError):
        cosine_lr(-1, cfg)
    with pytest.raises(ValueError):
        cosine_lr(150, cfg)


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
    state = TrainState(velocity=[np.zeros_like(p) for p in net.params()])
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
    loss, grads = network._loss_and_grads(net, feats.astype(np.float32), labels, k)
    assert type(loss) is float
    assert [g.dtype for g in grads] == [np.float32] * len(grads)
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
            loss, _ = network._loss_and_grads(net, batch, batch_labels, k)
            assert loss == cross_entropy(forward(net, batch, k)[2], batch_labels)


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
