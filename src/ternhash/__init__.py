"""Ternary hash codes learned jointly with a sharpening (continuation) activation.

Modules: activation (the smoothed quantizer and its schedule), network (the
trainable model), codes (ternary codes, bit packing, Hamming distance),
retrieval (top-k search and mAP), harness (datasets, config, CLI, and the
continuation-vs-two-step experiment).
"""

from .activation import (
    ActivationConfig,
    ContinuationSchedule,
    hard_ternary,
    schedule_k,
    smooth_ternary,
    smooth_ternary_grad,
)
from .codes import (
    CodeMatrix,
    PackedCode,
    TernaryCode,
    encode_binary,
    hamming,
    load_codes,
    pack,
    save_codes,
    ternarize,
)
from .network import (
    EpochLog,
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
from .retrieval import (
    EvalReport,
    LabelSets,
    RetrievalIndex,
    format_report,
    mean_ap,
    query_topk,
)

__all__ = [
    "ActivationConfig",
    "ContinuationSchedule",
    "hard_ternary",
    "schedule_k",
    "smooth_ternary",
    "smooth_ternary_grad",
    "CodeMatrix",
    "PackedCode",
    "TernaryCode",
    "encode_binary",
    "hamming",
    "load_codes",
    "pack",
    "save_codes",
    "ternarize",
    "EpochLog",
    "Network",
    "NetworkConfig",
    "TrainConfig",
    "TrainState",
    "backward",
    "cosine_lr",
    "cross_entropy",
    "forward",
    "hash_features",
    "load_checkpoint",
    "quantization_error",
    "save_checkpoint",
    "sgd_momentum_step",
    "train",
    "EvalReport",
    "LabelSets",
    "RetrievalIndex",
    "format_report",
    "mean_ap",
    "query_topk",
]
