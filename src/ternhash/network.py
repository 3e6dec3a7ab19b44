"""Dense feature network with a ternary hash head, trained by SGD with momentum.

Layout: input -> hidden dense layers with max(0, .) -> hash layer of width d,
squashed onto (-1, 1) by tanh so the ternary activation's premise holds ->
smoothed ternary activation -> linear classifier. Cross-entropy is applied to
the classifier output; the sharpness exponent k steps up between epochs.

Every computation runs in the dtype of the network's parameters (float32 or
float64) on the CPU and is bit-deterministic for a fixed seed. Network.initialize
gives float64 parameters; train() and load_checkpoint give float32, the dtype
checkpoints store, so a trained net saves and loads without rounding.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._fileio import read_exact
from .activation import (
    ActivationConfig,
    ContinuationSchedule,
    hard_ternary,
    schedule_k,
    smooth_ternary,
    smooth_ternary_grad,
)

_CHECKPOINT_MAGIC = b"TNH1"


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_dims: tuple = (256, 256)
    code_dim: int = 16
    num_classes: int = 10
    activation: ActivationConfig = ActivationConfig()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.code_dim, self.num_classes)
        if any(not isinstance(v, int) or v < 1 for v in dims):
            raise ValueError(f"all layer dims must be positive integers, got {dims}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def layer_dims(self) -> tuple:
        """Widths of consecutive layers, input first, classifier last."""
        return (self.input_dim, *self.hidden_dims, self.code_dim, self.num_classes)


@dataclass
class Network:
    """All parameters in one 1-D float32 or float64 vector; weights and biases are views of it."""

    config: NetworkConfig
    flat: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.config.layer_dims
        dtype = getattr(self.flat, "dtype", None)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"parameters must be one float32 or float64 array, got dtype {dtype}")
        if self.flat.shape != (_num_params(dims),):
            raise ValueError(f"layers {dims} take {_num_params(dims)} parameters, got shape {self.flat.shape}")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters must be finite")
        self.weights, self.biases = _layer_views(dims, self.flat)

    @classmethod
    def initialize(cls, config: NetworkConfig) -> "Network":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, seeded."""
        rng = np.random.default_rng(config.seed)
        net = cls(config=config, flat=np.zeros(_num_params(config.layer_dims)))
        for w in net.weights:
            lim = math.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-lim, lim, size=w.shape)
        return net

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which every computation on this net runs."""
        return self.flat.dtype

    def params(self) -> list:
        """The live parameter vector, as the one-element list SGD and backward use."""
        return [self.flat]


def _num_params(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _layer_views(dims, flat: np.ndarray):
    """Per-layer (weights, biases) views of flat, laid out W0, b0, W1, b1, ... row-major.

    The only code that knows the layout; it is also the .tnh payload order.
    """
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        biases.append(flat[at + fan_in * fan_out : at + (fan_in + 1) * fan_out])
        at += (fan_in + 1) * fan_out
    return weights, biases


def _check_batch(batch, input_dim: int, dtype) -> np.ndarray:
    # Finiteness is checked after the cast: a float64 value past the float32
    # range becomes inf here and is rejected, not trained on.
    with np.errstate(over="ignore"):
        arr = np.asarray(batch, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != input_dim:
        raise ValueError(f"batch must be non-empty [B x {input_dim}], got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("batch must be finite")
    return arr


def _check_labels(labels, batch_size: int, num_classes: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.shape != (batch_size,):
        raise ValueError(f"labels must be [{batch_size}], got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return arr


def _forward_cached(net: Network, batch: np.ndarray, k):
    n_hidden = len(net.config.hidden_dims)
    h = batch
    pre_relu = []
    hidden_in = []
    for i in range(n_hidden):
        hidden_in.append(h)
        z = h @ net.weights[i] + net.biases[i]
        pre_relu.append(z)
        h = np.maximum(z, 0.0)
    s = h @ net.weights[n_hidden] + net.biases[n_hidden]
    hash_pre = np.tanh(s)
    if k is None:
        hash_act = hash_pre
    else:
        hash_act = smooth_ternary(hash_pre, ActivationConfig(net.config.activation.alpha, k))
    logits = hash_act @ net.weights[n_hidden + 1] + net.biases[n_hidden + 1]
    return hidden_in, pre_relu, h, hash_pre, hash_act, logits


def forward(net: Network, batch, k):
    """Run a batch through the net at exponent k.

    Returns (hash_pre, hash_act, logits). hash_pre is the tanh-squashed hash
    layer in (-1, 1); hash_act applies the smoothed ternary map to it, or is
    hash_pre itself when k is None (the plain-feature variant the two-step
    baseline trains).
    """
    arr = _check_batch(batch, net.config.input_dim, net.dtype)
    _, _, _, hash_pre, hash_act, logits = _forward_cached(net, arr, k)
    return hash_pre, hash_act, logits


def _log_softmax(logits: np.ndarray):
    """Row-wise (log softmax, softmax) of max-subtracted logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return shifted - np.log(total), exp / total


def cross_entropy(logits, labels) -> float:
    """Mean over the batch of -log softmax(logits)[label], max-subtracted; float32 stays float32."""
    logits = np.asarray(logits)
    if logits.dtype != np.float32:
        logits = logits.astype(np.float64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ValueError(f"logits must be non-empty [B x C], got shape {logits.shape}")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    log_probs, _ = _log_softmax(logits)
    return float(-log_probs[np.arange(labels.size), labels].mean())


def _loss_and_grads(net: Network, batch: np.ndarray, labels: np.ndarray, k):
    n_hidden = len(net.config.hidden_dims)
    hidden_in, pre_relu, h_last, hash_pre, hash_act, logits = _forward_cached(net, batch, k)
    b_size = batch.shape[0]

    log_probs, softmax = _log_softmax(logits)
    loss = float(-log_probs[np.arange(b_size), labels].mean())

    dlogits = softmax.copy()
    dlogits[np.arange(b_size), labels] -= 1.0
    dlogits /= b_size

    grad = np.empty_like(net.flat)
    grad_w, grad_b = _layer_views(net.config.layer_dims, grad)
    np.matmul(hash_act.T, dlogits, out=grad_w[n_hidden + 1])
    dlogits.sum(axis=0, out=grad_b[n_hidden + 1])

    d_act = dlogits @ net.weights[n_hidden + 1].T
    if k is None:
        d_pre = d_act
    else:
        d_pre = d_act * smooth_ternary_grad(hash_pre, ActivationConfig(net.config.activation.alpha, k))
    d_s = d_pre * (1.0 - hash_pre**2)
    np.matmul(h_last.T, d_s, out=grad_w[n_hidden])
    d_s.sum(axis=0, out=grad_b[n_hidden])

    d_h = d_s @ net.weights[n_hidden].T
    for i in reversed(range(n_hidden)):
        d_z = d_h * (pre_relu[i] > 0.0)
        np.matmul(hidden_in[i].T, d_z, out=grad_w[i])
        d_z.sum(axis=0, out=grad_b[i])
        if i:
            d_h = d_z @ net.weights[i].T
    return loss, [grad]


def backward(net: Network, batch, labels, k) -> list:
    """Exact gradient of cross_entropy(forward(...)) as one vector in flat's layout, listed like params()."""
    arr = _check_batch(batch, net.config.input_dim, net.dtype)
    labs = _check_labels(labels, arr.shape[0], net.config.num_classes)
    _, grads = _loss_and_grads(net, arr, labs, k)
    return grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 64
    lr0: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: ContinuationSchedule = ContinuationSchedule()

    def __post_init__(self):
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not math.isfinite(self.lr0) or self.lr0 < 0:
            raise ValueError(f"lr0 must be a non-negative real, got {self.lr0!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError(f"weight_decay must be a non-negative real, got {self.weight_decay!r}")
        if self.schedule.total_epochs < self.epochs:
            raise ValueError(
                f"schedule covers {self.schedule.total_epochs} epochs but training runs {self.epochs}"
            )


@dataclass
class TrainState:
    """Momentum buffers plus the reshuffle stream, for stepwise drivers."""

    velocity: list
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    k: int | None
    lr: float
    loss: float


def cosine_lr(epoch: int, train_cfg: TrainConfig) -> float:
    """lr0 * 0.5 * (1 + cos(pi * epoch / epochs))."""
    if not isinstance(epoch, int) or epoch < 0 or epoch >= train_cfg.epochs:
        raise ValueError(f"epoch must be in [0, {train_cfg.epochs}), got {epoch!r}")
    return train_cfg.lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / train_cfg.epochs))


def sgd_momentum_step(net: Network, state: TrainState, grads: list, lr: float, momentum: float, weight_decay: float):
    """In-place update: v <- momentum*v + (grad + wd*param); param <- param - lr*v.

    Decay hits weights and biases alike. Every grad and velocity must match
    its parameter's shape and dtype; on a mismatch nothing is updated.
    """
    params = net.params()
    if len(grads) != len(params) or len(state.velocity) != len(params):
        raise ValueError("gradient/velocity lists do not match the parameter list")
    for p, v, g in zip(params, state.velocity, grads):
        if g.shape != p.shape or v.shape != p.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}")
        if g.dtype != p.dtype or v.dtype != p.dtype:
            raise ValueError(f"dtype mismatch: param {p.dtype}, grad {g.dtype}, velocity {v.dtype}")
    for p, v, g in zip(params, state.velocity, grads):
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
    return net, state


def quantization_error(net: Network, features, k) -> float:
    """Mean |activation - hard quantization| of the hash layer over a feature set."""
    hash_pre, hash_act, _ = forward(net, features, k)
    return float(np.abs(hash_act - hard_ternary(hash_pre, net.config.activation.alpha)).mean())


def hash_features(net: Network, features) -> np.ndarray:
    """Squashed hash-layer outputs in (-1, 1), the values the quantizer thresholds."""
    hash_pre, _, _ = forward(net, features, None)
    return hash_pre


def train(net_cfg: NetworkConfig, train_cfg: TrainConfig, features, labels, *, ternary: bool = True, epoch_hook=None):
    """Train a fresh network; returns (network, per-epoch logs).

    With ternary=True the hash head runs the smoothed ternary activation at
    the scheduled exponent; with ternary=False it is the identity (the
    learn-features-then-threshold baseline). Deterministic for a fixed seed:
    one RNG stream initializes parameters, an independent same-seeded stream
    drives the per-epoch reshuffle. The last short batch of an epoch is kept.
    Training computes in float32: the initial parameters and the features are
    cast once, and the returned network is float32, as checkpoints store it.
    """
    feats = _check_batch(features, net_cfg.input_dim, np.float32)
    labs = _check_labels(labels, feats.shape[0], net_cfg.num_classes)

    net = Network(config=net_cfg, flat=Network.initialize(net_cfg).flat.astype(np.float32))
    state = TrainState(velocity=[np.zeros_like(net.flat)], rng=np.random.default_rng(net_cfg.seed))
    n = feats.shape[0]
    logs = []
    for epoch in range(train_cfg.epochs):
        k = schedule_k(epoch, train_cfg.schedule) if ternary else None
        lr = cosine_lr(epoch, train_cfg)
        perm = state.rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            loss, grads = _loss_and_grads(net, feats[idx], labs[idx], k)
            sgd_momentum_step(net, state, grads, lr, train_cfg.momentum, train_cfg.weight_decay)
            loss_sum += loss * idx.size
        entry = EpochLog(epoch=epoch, k=k, lr=lr, loss=loss_sum / n)
        if not math.isfinite(entry.loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}: {entry}")
        logs.append(entry)
        if epoch_hook is not None:
            epoch_hook(net, entry)
    return net, logs


def save_checkpoint(path, net: Network, schedule: ContinuationSchedule) -> None:
    """Write magic 'TNH1', the config block, then the flat parameters as float32 little-endian.

    Config block: u32 input_dim, u32 hidden-layer count, u32 per hidden dim,
    u32 code_dim, u32 num_classes, u64 seed, f64 alpha, u32 activation k,
    u32 k_start, u32 k_end, u32 stride_epochs, u32 total_epochs.
    """
    cfg = net.config
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", cfg.input_dim, len(cfg.hidden_dims)))
        fh.write(struct.pack(f"<{len(cfg.hidden_dims)}I", *cfg.hidden_dims))
        fh.write(struct.pack("<IIQ", cfg.code_dim, cfg.num_classes, cfg.seed))
        fh.write(struct.pack("<dIIIII", cfg.activation.alpha, cfg.activation.k,
                             schedule.k_start, schedule.k_end, schedule.stride_epochs, schedule.total_epochs))
        fh.write(net.flat.astype("<f4").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (Network, ContinuationSchedule) with float32 parameters."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_CHECKPOINT_MAGIC!r}")
        input_dim, n_hidden = struct.unpack("<II", read_exact(fh, 8, "checkpoint header"))
        hidden_dims = struct.unpack(f"<{n_hidden}I", read_exact(fh, 4 * n_hidden, "checkpoint header"))
        code_dim, num_classes, seed = struct.unpack("<IIQ", read_exact(fh, 16, "checkpoint header"))
        alpha, k, k_start, k_end, stride, total = struct.unpack("<dIIIII", read_exact(fh, 28, "checkpoint header"))
        cfg = NetworkConfig(
            input_dim=input_dim,
            hidden_dims=hidden_dims,
            code_dim=code_dim,
            num_classes=num_classes,
            activation=ActivationConfig(alpha=alpha, k=k),
            seed=seed,
        )
        schedule = ContinuationSchedule(k_start=k_start, k_end=k_end, stride_epochs=stride, total_epochs=total)
        raw = read_exact(fh, 4 * _num_params(cfg.layer_dims), "parameter payload")
        if fh.read(1):
            raise ValueError("trailing bytes after parameter payload")
    return Network(config=cfg, flat=np.frombuffer(raw, dtype="<f4").astype(np.float32)), schedule
