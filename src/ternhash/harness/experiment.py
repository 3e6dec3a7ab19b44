"""End-to-end comparison: continuation-trained ternary codes vs a two-step baseline.

Per seed, both arms share one dataset and identical hyperparameters. The
continuation arm trains through the smoothed ternary activation while its
exponent sharpens; the baseline trains the same network with an identity hash
head and thresholds afterwards. Each arm is one run_arm call: it encodes the
retrieval and query splits with the same hard quantizer and scores them by the
same mAP path.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..activation import ActivationConfig, ContinuationSchedule, schedule_k
from ..codes import CodeMatrix
from ..network import Network, NetworkConfig, TrainConfig, encode_dataset, quantization_error, train
from ..retrieval import RetrievalIndex, _resolve_k, mean_ap
from .config import GENERATOR_KEYS, ExperimentConfig
from .data import Dataset, gen_synthetic, load_splits, single_labels


@dataclass(frozen=True)
class TwoStepResult:
    network: Network
    logs: list
    retrieval_codes: CodeMatrix
    query_codes: CodeMatrix


def two_step_baseline(dataset: Dataset, net_cfg: NetworkConfig, train_cfg: TrainConfig) -> TwoStepResult:
    """Learn features with an identity hash head, then threshold them into codes.

    The pipeline's two-step arm is run_arm(..., ternary=False); this composition stays for the benchmark.
    """
    feats, label_sets = dataset.subset(dataset.train_ids)
    net, logs = train(net_cfg, train_cfg, feats, single_labels(label_sets), ternary=False)
    codes = [encode_dataset(net, dataset.features[ids]) for ids in (dataset.retrieval_ids, dataset.query_ids)]
    return TwoStepResult(net, logs, *codes)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    stage_epochs: tuple
    stage_ks: tuple
    stage_quant_errors: tuple
    continuation_map: float
    two_step_map: float
    two_step_quant_error: float
    continuation_logs: list
    two_step_logs: list


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    seed_results: list
    median_continuation_map: float
    median_two_step_map: float


def seed_setup(cfg: ExperimentConfig, seed: int) -> tuple:
    """The (Dataset, NetworkConfig, TrainConfig) that one seed of a config runs with.

    Checks eval_k against the retrieval split here, so a config that cannot
    be scored fails before anything trains.
    """
    if cfg.data_prefix is not None:
        dataset = load_splits(cfg.data_prefix)
    else:
        dataset = gen_synthetic(seed=seed, **{key: getattr(cfg, key) for key in GENERATOR_KEYS})
    _resolve_k(cfg.eval_k, len(dataset.retrieval_ids))
    net_cfg = NetworkConfig(
        input_dim=dataset.input_dim,
        hidden_dims=cfg.hidden_dims,
        code_dim=cfg.code_dim,
        num_classes=dataset.num_classes,
        activation=ActivationConfig(alpha=cfg.alpha, k=cfg.k_start),
        seed=seed,
    )
    train_cfg = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr0=cfg.lr0,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        schedule=ContinuationSchedule(
            k_start=cfg.k_start, k_end=cfg.k_end, stride_epochs=cfg.stride_epochs, total_epochs=cfg.epochs
        ),
    )
    return dataset, net_cfg, train_cfg


def run_arm(dataset: Dataset, net_cfg: NetworkConfig, train_cfg: TrainConfig, eval_k, ternary: bool) -> tuple:
    """(mAP, logs, stage ends) of one arm: train, encode both splits, index, score.

    A stage end is (epoch, k, quantization error over the retrieval split),
    taken at the last epoch and at each epoch after which the scheduled k
    changes; the two-step arm, whose k is None, has only its last epoch.
    Each split is gathered once, no earlier than its first use.
    """
    feats, label_sets = dataset.subset(dataset.train_ids)
    retrieval_feats, retrieval_labels = dataset.subset(dataset.retrieval_ids)
    last, schedule = train_cfg.epochs - 1, train_cfg.schedule
    stages = []

    def snapshot(net, entry):
        if entry.epoch == last or (ternary and schedule_k(entry.epoch + 1, schedule) != entry.k):
            stages.append((entry.epoch, entry.k, quantization_error(net, retrieval_feats, entry.k)))

    net, logs = train(net_cfg, train_cfg, feats, single_labels(label_sets), ternary=ternary, epoch_hook=snapshot)
    index = RetrievalIndex(codes=encode_dataset(net, retrieval_feats), labels=retrieval_labels)
    query_feats, query_labels = dataset.subset(dataset.query_ids)
    return mean_ap(index, encode_dataset(net, query_feats), query_labels, eval_k).map, logs, stages


def run_seed(cfg: ExperimentConfig, seed: int) -> SeedResult:
    """Train and evaluate both arms for one seed."""
    dataset, net_cfg, train_cfg = seed_setup(cfg, seed)
    cont_map, cont_logs, stages = run_arm(dataset, net_cfg, train_cfg, cfg.eval_k, ternary=True)
    base_map, base_logs, [(_, _, base_error)] = run_arm(dataset, net_cfg, train_cfg, cfg.eval_k, ternary=False)
    epochs, ks, errors = zip(*stages)
    return SeedResult(
        seed=seed,
        stage_epochs=epochs,
        stage_ks=ks,
        stage_quant_errors=errors,
        continuation_map=cont_map,
        two_step_map=base_map,
        two_step_quant_error=base_error,
        continuation_logs=cont_logs,
        two_step_logs=base_logs,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Both arms across all seeds, plus the across-seed medians."""
    results = [run_seed(cfg, seed) for seed in cfg.seeds]
    return ExperimentResult(
        config=cfg,
        seed_results=results,
        median_continuation_map=statistics.median(r.continuation_map for r in results),
        median_two_step_map=statistics.median(r.two_step_map for r in results),
    )


def format_experiment_report(result: ExperimentResult) -> str:
    """Plain-text comparison table; byte-stable for a fixed config."""
    cfg = result.config
    dataset = cfg.data_prefix if cfg.data_prefix is not None else "synthetic " + " ".join(
        f"{key}={getattr(cfg, key)!r}" for key in GENERATOR_KEYS
    )
    lines = [
        "continuation vs two-step ternary hashing",
        f"dataset: {dataset}",
        f"code_dim={cfg.code_dim} alpha={cfg.alpha!r} k={cfg.k_start}..{cfg.k_end} "
        f"stride={cfg.stride_epochs} epochs={cfg.epochs} eval_k={cfg.eval_k}",
        "",
    ]
    for r in result.seed_results:
        lines.append(f"seed {r.seed}")
        for epoch, k, err in zip(r.stage_epochs, r.stage_ks, r.stage_quant_errors):
            lines.append(f"  stage k={k:<2d} end_epoch={epoch:<3d} quant_error={err:.6f}")
        lines.append(f"  two-step     final quant_error={r.two_step_quant_error:.6f}")
        lines.append(f"  continuation mAP {r.continuation_map:.6f}")
        lines.append(f"  two-step     mAP {r.two_step_map:.6f}")
        lines.append("")
    lines.append(f"median continuation mAP {result.median_continuation_map:.6f}")
    lines.append(f"median two-step     mAP {result.median_two_step_map:.6f}")
    return "\n".join(lines) + "\n"
