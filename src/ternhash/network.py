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

from ._fileio import read_exact, read_header, read_payload, write_payload
from .activation import (  # smooth_ternary_grad is unused here but stays importable: the benchmark traces it
    ActivationConfig,
    ContinuationSchedule,
    _smooth_backward,
    _smooth_forward,
    _threshold,
    hard_ternary,
    schedule_k,
    smooth_ternary,
    smooth_ternary_grad,
)
from .codes import CodeMatrix, _pack_planes, _words

_CHECKPOINT_MAGIC = b"TNH1"
_CHECKPOINT_TAIL = "IIQdIIIII"  # the checkpoint header after the hidden dims: code_dim ... total_epochs
# Rows per block of the inference forward: a 256-wide float32 block is 256 KB
# to 512 KB, so the blocks stay in L2 and encode and quantization error hold
# O(block) temporaries; 128 rows runs 7% slower. Blocks are near-equal, R to
# 2R-1 rows each, because a tiny block takes BLAS's matrix-vector path, whose
# rounding differs from the matrix-matrix one.
_ROW_BLOCK = 256


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
        # the bounds are the widths of save_checkpoint's header fields: u64 seed, every other integer u32
        if any(not isinstance(v, int) or not 1 <= v < 2**32 for v in self.layer_dims):
            raise ValueError(f"all layer dims must be integers in [1, 2**32), got {self.layer_dims}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.activation.k >= 2**32:
            raise ValueError(f"activation k must be below 2**32, got {self.activation.k!r}")

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


def _check_batch(batch, input_dim: int, dtype, finite: bool = True) -> np.ndarray:
    # Finiteness is checked after the cast: a float64 value past the float32
    # range becomes inf here and is rejected, not trained on. The inference
    # forward passes finite=False and checks each block as it reaches it.
    with np.errstate(over="ignore"):
        arr = np.asarray(batch, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != input_dim:
        raise ValueError(f"batch must be non-empty [B x {input_dim}], got shape {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
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


def _layer(net: Network, i: int, h: np.ndarray) -> np.ndarray:
    """Layer i of the hidden stack or the hash layer on rows h: h @ W + b, then max(0, .) or, for the hash layer,
    tanh, in place. The one spelling of both, so training and inference stay bit-equal."""
    z = h @ net.weights[i]
    z += net.biases[i]
    if i < len(net.config.hidden_dims):
        return np.maximum(z, 0, out=z)
    return np.tanh(z, out=z)


def _forward_cached(net: Network, batch: np.ndarray, k):
    """Unchecked forward: (batch and post-ReLU hidden outputs, hash_pre, log|hash_pre/alpha|, hash_act, logits)."""
    n_hidden = len(net.config.hidden_dims)
    inputs = [batch]
    for i in range(n_hidden):
        inputs.append(_layer(net, i, inputs[-1]))
    hash_pre = _layer(net, n_hidden, inputs[-1])
    if k is None:
        hash_act, log_mag = hash_pre, None
    else:
        hash_act, log_mag = _smooth_forward(hash_pre / net.config.activation.alpha, k)
    logits = hash_act @ net.weights[n_hidden + 1]
    logits += net.biases[n_hidden + 1]
    return inputs, hash_pre, log_mag, hash_act, logits


def forward(net: Network, batch, k):
    """Run a batch through the net at exponent k.

    Returns (hash_pre, hash_act, logits). hash_pre is the tanh-squashed hash
    layer in (-1, 1); hash_act applies the smoothed ternary map to it, or is
    hash_pre itself when k is None (the plain-feature variant the two-step
    baseline trains).
    """
    arr = _check_batch(batch, net.config.input_dim, net.dtype)
    _, hash_pre, _, hash_act, logits = _forward_cached(net, arr, k)
    return hash_pre, hash_act, logits


def _softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """(mean -log softmax(logits)[label], its gradient in logits), max-subtracted; overwrites logits."""
    rows = np.arange(labels.size)
    logits -= logits.max(axis=1, keepdims=True)
    dlogits = np.exp(logits)
    total = dlogits.sum(axis=1, keepdims=True)
    loss = float(-np.sum(logits[rows, labels] - np.log(total[:, 0])) / labels.size)
    dlogits /= total
    dlogits[rows, labels] -= 1.0
    dlogits /= labels.size
    return loss, dlogits


def cross_entropy(logits, labels) -> float:
    """Mean over the batch of -log softmax(logits)[label], max-subtracted; float32 stays float32."""
    logits = np.asarray(logits)
    logits = logits.astype(np.float32 if logits.dtype == np.float32 else np.float64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ValueError(f"logits must be non-empty [B x C], got shape {logits.shape}")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    return _softmax_loss(logits, labels)[0]


def _loss_and_grads(net: Network, batch: np.ndarray, labels: np.ndarray, k, grad_w: list, grad_b: list) -> float:
    """The loss of a checked batch; its gradient fills grad_w and grad_b, the _layer_views of a gradient vector."""
    n_hidden = len(net.config.hidden_dims)
    inputs, hash_pre, log_mag, hash_act, logits = _forward_cached(net, batch, k)
    loss, dlogits = _softmax_loss(logits, labels)
    np.matmul(hash_act.T, dlogits, out=grad_w[n_hidden + 1])
    dlogits.sum(axis=0, out=grad_b[n_hidden + 1])

    d_s = dlogits @ net.weights[n_hidden + 1].T
    if k is not None:
        d_s *= _smooth_backward(hash_act, log_mag, k, net.config.activation.alpha)
    hash_pre *= hash_pre
    d_s *= np.subtract(1.0, hash_pre, out=hash_pre)
    np.matmul(inputs[-1].T, d_s, out=grad_w[n_hidden])
    d_s.sum(axis=0, out=grad_b[n_hidden])

    d_h = d_s
    for i in reversed(range(n_hidden)):
        d_h = d_h @ net.weights[i + 1].T
        d_h *= inputs[i + 1] > 0
        np.matmul(inputs[i].T, d_h, out=grad_w[i])
        d_h.sum(axis=0, out=grad_b[i])
    return loss


def backward(net: Network, batch, labels, k) -> list:
    """Exact gradient of cross_entropy(forward(...)) as one vector in flat's layout, listed like params()."""
    arr = _check_batch(batch, net.config.input_dim, net.dtype)
    labs = _check_labels(labels, arr.shape[0], net.config.num_classes)
    grad = np.empty_like(net.flat)
    _loss_and_grads(net, arr, labs, k, *_layer_views(net.config.layer_dims, grad))
    return [grad]


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
    """The momentum buffers sgd_momentum_step updates, one per parameter, listed like params()."""

    velocity: list


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

    Decay hits weights and biases alike. grads and the velocity are one-vector
    lists like params(); each vector must match flat's shape and dtype, and on
    a mismatch nothing is updated.
    """
    if len(grads) != 1 or len(state.velocity) != 1:
        raise ValueError("gradient/velocity lists do not match the parameter list")
    p, v, g = net.flat, state.velocity[0], grads[0]
    if g.shape != p.shape or v.shape != p.shape:
        raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}")
    if g.dtype != p.dtype or v.dtype != p.dtype:
        raise ValueError(f"dtype mismatch: param {p.dtype}, grad {g.dtype}, velocity {v.dtype}")
    step = p * weight_decay
    step += g
    v *= momentum
    v += step
    p -= np.multiply(v, lr, out=step)


def _row_blocks(n: int):
    """[start, stop) bounds of n // _ROW_BLOCK near-equal blocks; fewer than 2R rows make one block."""
    count = max(1, n // _ROW_BLOCK)
    bounds = [n * i // count for i in range(count + 1)]
    return zip(bounds, bounds[1:])


def _inference(net: Network, features, shape: tuple, dtype, fill) -> np.ndarray:
    """The blocked inference forward: an [n, *shape] array whose rows of each block are fill(hash layer of the block).

    Each block's rows are checked finite as it is reached. No per-layer caches
    and no classifier. Overflow inside the layers is not warned about: a hash
    block that comes out non-finite is one ValueError naming its first bad row.
    """
    arr = _check_batch(features, net.config.input_dim, net.dtype, finite=False)
    out = np.empty((arr.shape[0], *shape), dtype=dtype)
    for start, stop in _row_blocks(arr.shape[0]):
        h = _check_batch(arr[start:stop], net.config.input_dim, net.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(net.config.hidden_dims) + 1):
                h = _layer(net, i, h)
            if not np.isfinite(h).all():  # the per-row search runs only on failure
                row = start + int(np.argmin(np.isfinite(h).all(axis=1)))
                raise ValueError(f"the hash layer of row {row} is not finite: its features overflow the network")
            out[start:stop] = fill(h)
    return out


def hash_features(net: Network, features) -> np.ndarray:
    """Squashed hash-layer outputs in (-1, 1), the values the quantizer thresholds.

    The blocked inference forward. Its layers are forward's, so it is bit-equal to forward(net, features, None)[0]
    wherever BLAS rounds a block as it rounds the whole batch, as it does at the reference widths.
    """
    return _inference(net, features, (net.config.code_dim,), net.dtype, lambda h: h)


def quantization_error(net: Network, features, k) -> float:
    """Mean |activation - hard quantization| of the hash layer over a feature set, filled in block by block."""
    alpha = net.config.activation.alpha
    cfg = None if k is None else ActivationConfig(alpha, k)

    def error(h):
        diff = (h if cfg is None else smooth_ternary(h, cfg)) - hard_ternary(h, alpha)
        return np.abs(diff, out=diff)

    return float(_inference(net, features, (net.config.code_dim,), net.dtype, error).mean())


def encode_dataset(net: Network, features) -> CodeMatrix:
    """Hash and pack: one code per feature row, each hash block thresholded at +-alpha straight into the planes.

    The bound is hard_ternary's for the net's dtype, so the codes are
    pack_matrix(hard_ternary(hash_features(net, features), alpha)).
    """
    d, bound = net.config.code_dim, _threshold(net.dtype, net.config.activation.alpha)
    planes = _inference(net, features, (2, _words(d)), np.uint64, lambda h: _pack_planes(h, bound))
    return CodeMatrix(planes=planes, d=d)


def train(net_cfg: NetworkConfig, train_cfg: TrainConfig, features, labels, *, ternary: bool = True, epoch_hook=None):
    """Train a fresh network; returns (network, per-epoch logs).

    With ternary=True the hash head runs the smoothed ternary activation at
    the scheduled exponent; with ternary=False it is the identity (the
    learn-features-then-threshold baseline). Deterministic for a fixed seed:
    one RNG stream initializes parameters, an independent same-seeded stream
    drives the per-epoch reshuffle. The last short batch of an epoch is kept.
    Training computes in float32: the initial parameters and the features are
    cast once, and the returned network is float32, as checkpoints store it.
    Overflow and NaN warnings are off, epoch hooks included; a non-finite epoch loss, or non-finite parameters
    at an epoch's end, raise FloatingPointError before the hook runs.
    """
    feats = _check_batch(features, net_cfg.input_dim, np.float32)
    labs = _check_labels(labels, feats.shape[0], net_cfg.num_classes)

    net = Network(config=net_cfg, flat=Network.initialize(net_cfg).flat.astype(np.float32))
    state = TrainState(velocity=[np.zeros_like(net.flat)])
    rng = np.random.default_rng(net_cfg.seed)
    grad = np.empty_like(net.flat)
    grad_w, grad_b = _layer_views(net_cfg.layer_dims, grad)
    n = feats.shape[0]
    logs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            k = schedule_k(epoch, train_cfg.schedule) if ternary else None
            lr = cosine_lr(epoch, train_cfg)
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, train_cfg.batch_size):
                idx = perm[start : start + train_cfg.batch_size]
                loss = _loss_and_grads(net, feats[idx], labs[idx], k, grad_w, grad_b)
                sgd_momentum_step(net, state, [grad], lr, train_cfg.momentum, train_cfg.weight_decay)
                loss_sum += loss * idx.size
            entry = EpochLog(epoch=epoch, k=k, lr=lr, loss=loss_sum / n)
            # a last step that diverges leaves the epoch's loss finite, but not the parameters
            if not (math.isfinite(entry.loss) and np.all(np.isfinite(net.flat))):
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
    header = struct.pack(f"<II{len(cfg.hidden_dims)}I{_CHECKPOINT_TAIL}", cfg.input_dim, len(cfg.hidden_dims),
                         *cfg.hidden_dims, cfg.code_dim, cfg.num_classes, cfg.seed, cfg.activation.alpha,
                         cfg.activation.k, schedule.k_start, schedule.k_end, schedule.stride_epochs,
                         schedule.total_epochs)
    write_payload(path, _CHECKPOINT_MAGIC + header, net.flat, "<f4")


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (Network, ContinuationSchedule) with float32 parameters.
    The hidden-layer count sizes the rest of the header, which is read as one block."""
    with open(path, "rb") as fh:
        input_dim, n_hidden = read_header(fh, _CHECKPOINT_MAGIC, "<II", "checkpoint header")
        fmt = f"<{n_hidden}I{_CHECKPOINT_TAIL}"
        *hidden_dims, code_dim, num_classes, seed, alpha, k, k_start, k_end, stride, total = struct.unpack(
            fmt, read_exact(fh, struct.calcsize(fmt), "checkpoint header"))
        cfg = NetworkConfig(
            input_dim=input_dim,
            hidden_dims=hidden_dims,
            code_dim=code_dim,
            num_classes=num_classes,
            activation=ActivationConfig(alpha=alpha, k=k),
            seed=seed,
        )
        schedule = ContinuationSchedule(k_start=k_start, k_end=k_end, stride_epochs=stride, total_epochs=total)
        flat = read_payload(fh, (_num_params(cfg.layer_dims),), "<f4", "parameter payload")
    return Network(config=cfg, flat=flat), schedule
